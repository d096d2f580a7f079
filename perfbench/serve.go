package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"superpose/internal/cluster"
	"superpose/internal/service"
	"superpose/internal/trust"
)

const (
	// serveScale is the service's default design scale.
	serveScale = 0.05
	// clientConns caps the generator's connections to the coordinator
	// at the container's CPU count.
	clientConns = 2
)

// serveParams sizes the serve workload: an open loop of detect jobs
// against a coordinator and two worker daemons over loopback HTTP.
type serveParams struct {
	Rate float64 // jobs per second, sent on schedule
	// WorkerAddrs are the worker daemons' listen addresses. Fixed ports
	// keep rendezvous routing (a hash of the worker address) the same on
	// every run.
	WorkerAddrs []string
}

var serveFull = serveParams{
	Rate:        6,
	WorkerAddrs: []string{"127.0.0.1:47311", "127.0.0.1:47312"},
}

// recordedSeconds is the longest run whose jobs expected.json covers.
const recordedSeconds = 30

// jobTimeout bounds how long the generator waits for one verdict.
const jobTimeout = 60 * time.Second

var serveTenants = []string{"tenant-a", "tenant-b"}

// serveSpec is job i of an input set: the five Table I cases in turn,
// a distinct chip seed per job and the two tenants alternating.
func serveSpec(set uint64, i int) service.JobSpec {
	cases := trust.Cases()
	return service.JobSpec{
		Kind:     service.KindDetect,
		Case:     cases[i%len(cases)].String(),
		Scale:    serveScale,
		ChipSeed: set*1_000_000 + uint64(i) + 1,
		Tenant:   serveTenants[i%len(serveTenants)],
	}
}

func specKey(s service.JobSpec) string { return fmt.Sprintf("%s/%d", s.Case, s.ChipSeed) }

// serveTap sees the cluster from outside when on: the coordinator's
// accept and each worker's dispatch arrival (by wrapping their HTTP
// handlers) and each worker job's completion (through the worker's
// Job.Done). Times are keyed by chip seed, unique per job.
type serveTap struct {
	on     atomic.Bool
	mu     sync.Mutex
	accept map[uint64]time.Time
	arrive map[uint64]time.Time
	done   map[uint64]time.Time
	wg     sync.WaitGroup // worker-job completion watchers
}

func newServeTap() *serveTap {
	return &serveTap{accept: map[uint64]time.Time{}, arrive: map[uint64]time.Time{}, done: map[uint64]time.Time{}}
}

func (t *serveTap) stamp(m map[uint64]time.Time, seed uint64, at time.Time) {
	t.mu.Lock()
	if _, ok := m[seed]; !ok {
		m[seed] = at
	}
	t.mu.Unlock()
}

func (t *serveTap) get(m map[uint64]time.Time, seed uint64) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := m[seed]
	return at, ok
}

// submittedSeed reads a job submission's chip seed and restores the body.
func submittedSeed(r *http.Request) (uint64, bool) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
		return 0, false
	}
	b, err := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(b))
	if err != nil {
		return 0, false
	}
	var spec service.JobSpec
	if json.Unmarshal(b, &spec) != nil {
		return 0, false
	}
	return spec.ChipSeed, true
}

// coordinator wraps the coordinator's handler to stamp job acceptance.
func (t *serveTap) coordinator(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t.on.Load() {
			if seed, ok := submittedSeed(r); ok {
				t.stamp(t.accept, seed, time.Now())
			}
		}
		h.ServeHTTP(w, r)
	})
}

// captureWriter keeps a copy of the response body.
type captureWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.body.Write(b)
	return c.ResponseWriter.Write(b)
}

// worker wraps a worker daemon's handler to stamp dispatch arrival and
// to watch the worker-side job until it is done.
func (t *serveTap) worker(svc *service.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			svc.ServeHTTP(w, r)
			return
		}
		seed, ok := submittedSeed(r)
		if !ok {
			svc.ServeHTTP(w, r)
			return
		}
		t.stamp(t.arrive, seed, time.Now())
		cw := &captureWriter{ResponseWriter: w}
		svc.ServeHTTP(cw, r)
		var st service.Status
		if json.Unmarshal(cw.body.Bytes(), &st) != nil {
			return
		}
		if j, ok := svc.Job(st.ID); ok {
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				<-j.Done()
				t.stamp(t.done, seed, time.Now())
			}()
		}
	})
}

// rig is a coordinator plus worker daemons in this process, each on its
// own loopback listener, and the load generator's HTTP client.
type rig struct {
	coord    *cluster.Coordinator
	coordURL string
	workers  []*service.Server
	wURLs    []string
	servers  []*http.Server
	serveWG  sync.WaitGroup
	stopAgts context.CancelFunc
	agentWG  sync.WaitGroup
	tap      *serveTap
	client   *http.Client
}

// bootRig starts the coordinator and the workers, registers the workers
// and waits until the coordinator sees them all.
func bootRig(p serveParams) (*rig, error) {
	rg := &rig{tap: newServeTap()}
	rg.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clientConns,
		MaxIdleConnsPerHost: clientConns,
	}}
	coord, err := cluster.New(cluster.Options{})
	if err != nil {
		return nil, err
	}
	coord.Start()
	rg.coord = coord
	addr, err := rg.listen("127.0.0.1:0", rg.tap.coordinator(coord))
	if err != nil {
		rg.close()
		return nil, err
	}
	rg.coordURL = "http://" + addr

	agentCtx, stop := context.WithCancel(context.Background())
	rg.stopAgts = stop
	for _, wa := range p.WorkerAddrs {
		svc, err := service.New(service.Options{})
		if err != nil {
			rg.close()
			return nil, err
		}
		svc.Start()
		rg.workers = append(rg.workers, svc)
		addr, err := rg.listen(wa, rg.tap.worker(svc))
		if err != nil {
			rg.close()
			return nil, err
		}
		rg.wURLs = append(rg.wURLs, "http://"+addr)
		agent := cluster.NewAgent(cluster.AgentOptions{Coordinator: rg.coordURL, Addr: "http://" + addr})
		rg.agentWG.Add(1)
		go func() {
			defer rg.agentWG.Done()
			agent.Run(agentCtx)
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		st, err := rg.stats(rg.coordURL)
		if err == nil && st.Cluster["workers_live"] == uint64(len(p.WorkerAddrs)) {
			return rg, nil
		}
		if time.Now().After(deadline) {
			rg.close()
			return nil, fmt.Errorf("workers did not register with the coordinator")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// listen serves h on addr and returns the bound address.
func (rg *rig) listen(addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	rg.servers = append(rg.servers, hs)
	rg.serveWG.Add(1)
	go func() {
		defer rg.serveWG.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return ln.Addr().String(), nil
}

// close drains the coordinator, deregisters and drains the workers,
// shuts every listener down and waits for every goroutine it started.
func (rg *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if rg.coord != nil {
		_ = rg.coord.Drain(ctx) // a forced drain only cancels leftover jobs
	}
	if rg.stopAgts != nil {
		rg.stopAgts()
	}
	rg.agentWG.Wait()
	for _, w := range rg.workers {
		_ = w.Drain(ctx)
	}
	// Shutdown waits up to 5 s for a connection that was dialled but
	// never sent a request; the generator's client and the cluster's
	// (http.DefaultClient's transport) may hold such a connection idle, so
	// close them first.
	rg.client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	for _, hs := range rg.servers {
		_ = hs.Shutdown(ctx)
	}
	rg.serveWG.Wait()
	rg.tap.wg.Wait()
}

// stats fetches a daemon's /v1/stats.
func (rg *rig) stats(base string) (service.Stats, error) {
	var st service.Stats
	resp, err := rg.client.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// jobTimes is one job's timeline as the load generator saw it.
type jobTimes struct {
	spec     service.JobSpec
	due      time.Time
	sent     time.Time
	accepted time.Time // submit response in hand
	done     time.Time // coordinator Job.Done()
	verdict  time.Time // report fetched
	ok       bool
	digest   string
}

// run submits one job, waits for the coordinator's Job.Done(), fetches
// its status over HTTP and digests the report.
func (rg *rig) run(spec service.JobSpec, due time.Time) (jt jobTimes, err error) {
	jt = jobTimes{spec: spec, due: due, sent: time.Now()}
	body, err := json.Marshal(spec)
	if err != nil {
		return jt, err
	}
	resp, err := rg.client.Post(rg.coordURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jt, err
	}
	var st service.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return jt, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return jt, fmt.Errorf("submit: %w", err)
	}
	jt.accepted = time.Now()
	j, ok := rg.coord.Service().Job(st.ID)
	if !ok {
		return jt, fmt.Errorf("job %s unknown to the coordinator", st.ID)
	}
	select {
	case <-j.Done():
	case <-time.After(jobTimeout):
		return jt, fmt.Errorf("job %s: no verdict within %s", st.ID, jobTimeout)
	}
	jt.done = time.Now()
	resp, err = rg.client.Get(rg.coordURL + "/v1/jobs/" + st.ID)
	if err != nil {
		return jt, err
	}
	st = service.Status{}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	jt.verdict = time.Now()
	if err != nil {
		return jt, fmt.Errorf("fetch: %w", err)
	}
	if st.State != service.StateDone || st.Report == nil {
		return jt, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	jt.digest, err = digestJSON(st.Report)
	return jt, err
}

// openLoop sends jobs first..first+n-1 on a fixed schedule, each at its
// due time whatever the earlier ones are doing, and waits for all of
// them. A job that errors is returned with ok false.
func (rg *rig) openLoop(p serveParams, set uint64, first, n int, exp *expected, log io.Writer) []jobTimes {
	out := make([]jobTimes, n)
	period := time.Duration(float64(time.Second) / p.Rate)
	start := time.Now().Add(period)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := serveSpec(set, first+i)
			jt, err := rg.run(spec, due)
			if err != nil {
				fmt.Fprintf(log, "perfbench: serve job %s: %v\n", specKey(spec), err)
			} else if jt.ok = exp.check("serve", specKey(spec), jt.digest); !jt.ok {
				fmt.Fprintf(log, "perfbench: serve job %s: verdict digest %s does not match the expected one\n", specKey(spec), jt.digest)
			}
			out[i] = jt
		}()
	}
	wg.Wait()
	return out
}

// warm runs every Table I case once on every worker, so each design and
// seed set is in every worker's artifact cache before timing starts and
// a stolen job finds it too, then once through the coordinator. It
// returns a digest of the coordinator-routed reports.
func (rg *rig) warm() (string, error) {
	cases := trust.Cases()
	werrs := make([]error, len(rg.workers))
	var wg sync.WaitGroup
	for wi, w := range rg.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cases {
				spec := serveSpec(0, i)
				spec.ChipSeed = 0xA11 + uint64(i)
				j, err := w.Submit(spec)
				if err != nil {
					werrs[wi] = err
					return
				}
				<-j.Done()
				if st := j.Status(); st.State != service.StateDone {
					werrs[wi] = fmt.Errorf("job %s ended %s: %s", specKey(spec), st.State, st.Error)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(werrs...); err != nil {
		return "", fmt.Errorf("warm-up: %w", err)
	}
	reps := make([]string, len(cases))
	errs := make([]error, len(cases))
	for i := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := serveSpec(0, i)
			spec.ChipSeed = 0xA11 + uint64(i)
			jt, err := rg.run(spec, time.Now())
			reps[i], errs[i] = jt.digest, err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return "", fmt.Errorf("warm-up: %w", err)
	}
	return digestJSON(reps)
}

// serveJobs is the number of jobs a run of the given length sends.
func serveJobs(p serveParams, seconds float64) int {
	return max(2, int(p.Rate*seconds+0.5))
}

// serveRun boots and warms the cluster (set-up), then offers the open
// loop for the given time. Traced, the first half runs with the tap off
// and the second with it on.
func serveRun(p serveParams, seed uint64, seconds float64, trace bool, exp *expected, log io.Writer) (*result, error) {
	set := seed % inputSets
	rg, setupS, _, err := timeSetup(setupReps, func() (*rig, string, map[string]float64, error) {
		rg, err := bootRig(p)
		if err != nil {
			return nil, "", nil, err
		}
		dig, err := rg.warm()
		if err != nil {
			rg.close()
			return nil, "", nil, err
		}
		return rg, dig, nil, nil
	}, (*rig).close)
	if err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	defer rg.close()

	n := serveJobs(p, seconds)
	var t tally
	latencies := func(jobs []jobTimes) (lat []float64, dps float64) {
		var last time.Time
		for _, jt := range jobs {
			t.op(jt.ok)
			if !jt.ok {
				continue
			}
			lat = append(lat, ms(jt.verdict.Sub(jt.due)))
			if jt.verdict.After(last) {
				last = jt.verdict
			}
		}
		if len(lat) > 0 {
			dps = float64(len(lat)) / last.Sub(jobs[0].due).Seconds()
		}
		return lat, dps
	}

	res := &result{}
	if !trace {
		before, err := rg.clusterStats()
		if err != nil {
			return nil, err
		}
		resetPeakRSS()
		lat, dps := latencies(rg.openLoop(p, set, 0, n, exp, log))
		peak := peakRSSMiB()
		after, err := rg.clusterStats()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "perfbench: serve: %.0f steals, %.0f dispatch rejections, %.0f throttled, %.0f cache misses\n",
			after["cluster.steals"]-before["cluster.steals"], after["cluster.dispatch_rejected"]-before["cluster.dispatch_rejected"],
			after["service.jobs_throttled"]-before["service.jobs_throttled"], after["service.cache_misses"]-before["service.cache_misses"])
		res.Metrics = endToEnd(setupS, []float64{peak}, dps, lat)
	} else {
		half := n / 2
		plain, _ := latencies(rg.openLoop(p, set, 0, half, exp, log))
		before, err := rg.clusterStats()
		if err != nil {
			return nil, err
		}
		rg.tap.on.Store(true)
		jobs := rg.openLoop(p, set, half, n-half, exp, log)
		traced, _ := latencies(jobs)
		rg.tap.on.Store(false)
		after, err := rg.clusterStats()
		if err != nil {
			return nil, err
		}
		out := rg.tapMetrics(jobs)
		for k, v := range after {
			out[k] = v - before[k]
		}
		if c := out["service.cache_hits"] + out["service.cache_misses"]; c > 0 {
			out["service.cache_hit_ratio"] = out["service.cache_hits"] / c
		}
		if m := median(plain); m > 0 {
			out["trace.overhead_pct"] = 100 * (median(traced) - m) / m
		}
		probe, err := trust.Build(trust.Cases()[0], serveScale)
		if err != nil {
			return nil, err
		}
		if err := kernelProbes(probe.Host, out); err != nil {
			return nil, err
		}
		res.Metrics = perLayer(out)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	return res, nil
}

// clusterStats reads the coordinator's dispatch counters and the
// workers' artifact-cache counters.
func (rg *rig) clusterStats() (map[string]float64, error) {
	st, err := rg.stats(rg.coordURL)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{
		"cluster.dispatches":        float64(st.Cluster["dispatches"]),
		"cluster.steals":            float64(st.Cluster["steals"]),
		"cluster.dispatch_rejected": float64(st.Cluster["dispatch_rejected"]),
		"service.jobs_throttled":    float64(st.JobsThrottled),
	}
	for _, u := range rg.wURLs {
		ws, err := rg.stats(u)
		if err != nil {
			return nil, err
		}
		out["service.cache_hits"] += float64(ws.CacheHits)
		out["service.cache_misses"] += float64(ws.CacheMisses)
	}
	return out, nil
}

// tapMetrics turns the traced jobs' timelines into spans and reports
// the serving layers' latencies and the trace's uncovered share.
func (rg *rig) tapMetrics(jobs []jobTimes) map[string]float64 {
	rec := newRecorder()
	tap := rg.tap
	for op, jt := range jobs {
		if !jt.ok {
			continue
		}
		seed := jt.spec.ChipSeed
		accept, ok1 := tap.get(tap.accept, seed)
		arrive, ok2 := tap.get(tap.arrive, seed)
		wdone, ok3 := tap.get(tap.done, seed)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		root := rec.add("job", -1, op, jt.due, jt.verdict)
		rec.add("serve.generator_lag", root, op, jt.due, jt.sent)
		rec.add("service.submit", root, op, jt.sent, jt.accepted)
		rec.add("cluster.dispatch", root, op, accept, arrive)
		rec.add("worker.run", root, op, arrive, wdone)
		rec.add("cluster.forward", root, op, wdone, jt.done)
		rec.add("service.fetch", root, op, jt.done, jt.verdict)
	}
	msOf := func(name string) []float64 {
		var out []float64
		for _, d := range rec.durations(name) {
			out = append(out, ms(d))
		}
		return out
	}
	run, fwd := msOf("worker.run"), msOf("cluster.forward")
	return map[string]float64{
		"trace.uncovered_share":  rec.uncoveredShare(),
		"service.submit_ms":      median(msOf("service.submit")),
		"cluster.dispatch_ms":    median(msOf("cluster.dispatch")),
		"worker.run_p50_ms":      quantile(run, 0.5),
		"worker.run_p90_ms":      quantile(run, 0.9),
		"cluster.forward_p50_ms": quantile(fwd, 0.5),
		"cluster.forward_p90_ms": quantile(fwd, 0.9),
		"service.fetch_ms":       median(msOf("service.fetch")),
		"serve.generator_lag_ms": quantile(msOf("serve.generator_lag"), 0.9),
	}
}

// recordServe stores the verdict digests of the first n jobs of one
// input set, computed on a standalone in-process service.
func recordServe(set uint64, n int, exp *expected) error {
	svc, err := service.New(service.Options{QueueSize: 256})
	if err != nil {
		return err
	}
	svc.Start()
	defer svc.Drain(context.Background())
	for i := 0; i < n; i++ {
		spec := serveSpec(set, i)
		j, err := svc.Submit(spec)
		if err != nil {
			return err
		}
		<-j.Done()
		st := j.Status()
		if st.State != service.StateDone || st.Report == nil {
			return fmt.Errorf("job %s ended %s: %s", specKey(spec), st.State, st.Error)
		}
		dig, err := digestJSON(st.Report)
		if err != nil {
			return err
		}
		exp.set("serve", specKey(spec), dig)
	}
	return nil
}
