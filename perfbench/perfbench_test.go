package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// Toy sizes: the same code paths as the full workloads, small enough to
// run in seconds.
var (
	lotToy   = lotParams{Scale: 0.04, Dies: 2, CalDies: 2}
	serveToy = serveParams{Rate: 20, WorkerAddrs: []string{"127.0.0.1:0", "127.0.0.1:0"}}
)

func scaleToy(t *testing.T) scaleParams {
	return scaleParams{Gates: 3000, TmpDir: t.TempDir()}
}

// checkMetrics fails unless res carries exactly the defined metrics,
// each with its unit.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s: unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// checkEndToEnd also requires every end-to-end metric to be positive.
func checkEndToEnd(t *testing.T, res *result) {
	t.Helper()
	checkMetrics(t, res, endToEndDefs)
	for name, m := range res.Metrics {
		if !(m.Value > 0) {
			t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
		}
	}
}

func checkCorrect(t *testing.T, res *result) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
}

// checkTampered requires every operation to have failed the digest check.
func checkTampered(t *testing.T, res *result) {
	t.Helper()
	if res.Correct || res.Failed != res.Attempted || res.Attempted < 1 {
		t.Fatalf("tampered digest: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndDefs)
	same("per_layer", doc.PerLayer, perLayerDefs)
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
}

func TestExpectedCoversEveryInputSet(t *testing.T) {
	exp, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	for set := uint64(0); set < inputSets; set++ {
		if exp.Lot[setKey(set)] == "" || exp.Scale[setKey(set)] == "" {
			t.Errorf("input set %d: no lot or scale digest", set)
		}
		for i := 0; i < serveJobs(serveFull, recordedSeconds); i++ {
			if k := specKey(serveSpec(set, i)); exp.Serve[k] == "" {
				t.Fatalf("no serve digest for job %s", k)
			}
		}
	}
}

func TestTracedLotMatchesCertifyLot(t *testing.T) {
	s := lotSeedsFor(3)
	su, _, _, err := buildLot(lotToy, s.tester)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := certifyPair(lotToy, su, s, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, tot := newRecorder(), newStageTotals()
	traced, err := certifyPair(lotToy, su, s, rec, tot, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := plain.digest()
	got, _ := traced.digest()
	if got != want {
		t.Fatalf("traced lot digest %s, CertifyLot digest %s", got, want)
	}
	for _, lp := range []lotPair{plain, traced} {
		if len(lp.dieLatency) != 2*lotToy.Dies {
			t.Errorf("%d die latencies, want one per die (%d)", len(lp.dieLatency), 2*lotToy.Dies)
		}
	}
	self := rec.selfTimes()
	for _, st := range stagesTraced {
		if self["core."+string(st)+"_s"] <= 0 {
			t.Errorf("stage %s recorded no time", st)
		}
	}
	if tot.adaptiveSteps == 0 || tot.pairsAnalyzed == 0 {
		t.Errorf("adaptive steps %d, pairs analyzed %d; want both > 0", tot.adaptiveSteps, tot.pairsAnalyzed)
	}
}

func TestLotRun(t *testing.T) {
	const seed = 9
	exp := newExpected()
	if err := recordLot(lotToy, seed%inputSets, exp); err != nil {
		t.Fatal(err)
	}
	res, err := lotRun(lotToy, seed, 0.1, false, exp, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkCorrect(t, res)
	checkEndToEnd(t, res)

	res, err = lotRun(lotToy, seed, 0.1, true, exp, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkCorrect(t, res)
	checkMetrics(t, res, perLayerDefs)
	if res.Metrics["core.adaptive_s"].Value <= 0 || res.Metrics["fusion.train_s"].Value <= 0 {
		t.Errorf("traced lot reported no adaptive or training time")
	}

	exp.set("lot", setKey(seed%inputSets), "0000000000000000")
	res, err = lotRun(lotToy, seed, 0.1, false, exp, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkTampered(t, res)
}

func TestScaleRun(t *testing.T) {
	const seed = 4
	p := scaleToy(t)
	exp := newExpected()
	if err := recordScale(p, seed%inputSets, exp); err != nil {
		t.Fatal(err)
	}
	res, err := scaleRun(p, seed, 0.1, false, exp, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkCorrect(t, res)
	checkEndToEnd(t, res)

	res, err = scaleRun(p, seed, 0.1, true, exp, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkCorrect(t, res)
	checkMetrics(t, res, perLayerDefs)
	for _, name := range []string{"core.pairs_s", "go.alloc_mb.pairs", "bench.parse_s", "core.measure_batch_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("traced scale reported %s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}

	exp.set("scale", setKey(seed%inputSets), "0000000000000000")
	res, err = scaleRun(p, seed, 0.1, false, exp, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkTampered(t, res)
}

func TestServeRun(t *testing.T) {
	const (
		seed    = 2
		seconds = 0.5
	)
	set := uint64(seed % inputSets)
	n := serveJobs(serveToy, seconds)
	exp := newExpected()
	if err := recordServe(set, n, exp); err != nil {
		t.Fatal(err)
	}
	res, err := serveRun(serveToy, seed, seconds, false, exp, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkCorrect(t, res)
	checkEndToEnd(t, res)
	if res.Attempted != n {
		t.Errorf("attempted %d jobs, want %d", res.Attempted, n)
	}

	res, err = serveRun(serveToy, seed, seconds, true, exp, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkCorrect(t, res)
	checkMetrics(t, res, perLayerDefs)
	for _, name := range []string{"worker.run_p50_ms", "cluster.forward_p50_ms", "cluster.dispatches"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("traced serve reported %s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}

	exp.set("serve", specKey(serveSpec(set, 0)), "0000000000000000")
	res, err = serveRun(serveToy, seed, seconds, false, exp, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("one tampered job digest: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
}

func TestRecorderSelfTimeAndCoverage(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := newRecorder()
	root := r.add("root", -1, 0, at(0), at(100))
	a := r.add("a", root, 0, at(0), at(40))
	r.add("a1", a, 0, at(10), at(20))
	r.add("a2", a, 0, at(15), at(30)) // overlaps a1
	r.add("b", root, 0, at(50), at(90))

	self := r.selfTimes()
	for name, want := range map[string]time.Duration{
		"root": 20 * time.Millisecond, // 100 − (a ∪ b = 80)
		"a":    20 * time.Millisecond, // 40 − (a1 ∪ a2 = 20)
		"a1":   10 * time.Millisecond,
		"b":    40 * time.Millisecond,
	} {
		if self[name] != want {
			t.Errorf("self(%s) = %v, want %v", name, self[name], want)
		}
	}
	// Leaves a1 ∪ a2 ∪ b cover 20 + 40 of the root's 100 ms.
	if got := r.uncoveredShare(); got != 0.4 {
		t.Errorf("uncovered share %v, want 0.4", got)
	}
	var nilRec *recorder
	if id := nilRec.begin("x", -1, 0); id != -1 {
		t.Errorf("nil recorder returned span id %d", id)
	}
	nilRec.end(-1)
}
