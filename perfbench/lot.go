package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"superpose/internal/atpg"
	"superpose/internal/core"
	"superpose/internal/delay"
	"superpose/internal/fusion"
	"superpose/internal/netlist"
	"superpose/internal/parallel"
	"superpose/internal/power"
	"superpose/internal/stats"
	"superpose/internal/tester"
	"superpose/internal/timing"
	"superpose/internal/trojan"
	"superpose/internal/trust"
)

// The lot workload is the paper's method as a lab runs it: a
// fused-channel certification of an infected and a clean lot of
// s35932-T200 under the combined tester preset with robust acquisition,
// with the dies fanned out over the container's 2 CPUs.
var lotCase = trust.Case{Benchmark: "s35932", Trojan: "T200"}

const (
	lotVarsigma = 0.15
	lotTester   = "combined"
	lotWorkers  = 2
)

// lotParams sizes the lot workload.
type lotParams struct {
	Scale   float64
	Dies    int // per lot
	CalDies int // clean control lot the fusion calibration trains on
}

var lotFull = lotParams{Scale: 0.25, Dies: 12, CalDies: 4}

// lotSeeds are the per-input-set seeds of the measured lots.
type lotSeeds struct {
	tester, infected, clean uint64
}

func lotSeedsFor(set uint64) lotSeeds {
	base := 0x107_0000 + set
	return lotSeeds{
		tester:   parallel.Mix(base, 1),
		infected: parallel.Mix(base, 3),
		clean:    parallel.Mix(base, 4),
	}
}

// The fusion training lot's die and tester seeds are fixed, not drawn
// from the input set, so every run's set-up does the same work and
// trains the same calibration.
var (
	lotTrainSeed   = parallel.Mix(0x107_7EA1, 2)
	lotTrainTester = parallel.Mix(0x107_7EA1, 1)
)

// lotSetup is what a lot run builds before it measures.
type lotSetup struct {
	inst   *trojan.Instance
	cfg    core.Config // shared seeds and trained fusion calibration
	faults tester.Config
}

// buildLot builds the design, generates the shared ATPG seeds with the
// service's options and trains the fusion calibration on a clean control
// lot, as the service does for a fused job. testerSeed realizes the
// tester faults of the measured lots.
func buildLot(p lotParams, testerSeed uint64) (*lotSetup, string, map[string]float64, error) {
	layers := map[string]float64{}
	t0 := time.Now()
	inst, err := trust.Build(lotCase, p.Scale)
	if err != nil {
		return nil, "", nil, err
	}
	t1 := time.Now()
	layers["trust.build_s"] = t1.Sub(t0).Seconds()
	faults, err := tester.Preset(lotTester, testerSeed)
	if err != nil {
		return nil, "", nil, err
	}
	tc, err := tester.Preset(lotTester, lotTrainTester)
	if err != nil {
		return nil, "", nil, err
	}
	cfg, err := core.WithSharedSeeds(inst.Host, core.Config{
		NumChains:   4,
		MaxSeeds:    3,
		Varsigma:    lotVarsigma,
		ATPG:        atpg.Options{Seed: 7, RandomPatterns: 32, MaxFaults: 40, FaultSample: 120, Workers: lotWorkers},
		Acquisition: core.RobustAcquisition(),
		Channel:     core.ChannelFused,
	})
	if err != nil {
		return nil, "", nil, err
	}
	t2 := time.Now()
	layers["atpg.generate_s"] = t2.Sub(t1).Seconds()
	train, err := core.CertifyLot(inst.Host, power.SAED90Like(), inst.Host, cfg, core.LotOptions{
		Dies:        p.CalDies,
		Variation:   power.ThreeSigmaIntra(lotVarsigma),
		Seed:        lotTrainSeed,
		Tester:      tc,
		Acquisition: cfg.Acquisition,
		Workers:     lotWorkers,
	})
	if err != nil {
		return nil, "", nil, fmt.Errorf("fusion training lot: %w", err)
	}
	obs := make([]fusion.Observation, 0, len(train.Dies))
	for _, d := range train.Dies {
		obs = append(obs, fusion.Observation{Power: d.FinalMag, Delay: d.DelayMag})
	}
	cal := fusion.Train(obs, 0)
	cfg.Fusion = &cal
	layers["fusion.train_s"] = time.Since(t2).Seconds()
	dig, err := digestJSON(cfg.SeedPatterns, cal)
	if err != nil {
		return nil, "", nil, err
	}
	return &lotSetup{inst: inst, cfg: cfg, faults: faults}, dig, layers, nil
}

func (su *lotSetup) lotOptions(p lotParams, seed uint64) core.LotOptions {
	return core.LotOptions{
		Dies:        p.Dies,
		Variation:   power.ThreeSigmaIntra(lotVarsigma),
		Seed:        seed,
		Tester:      su.faults,
		Acquisition: su.cfg.Acquisition,
		Workers:     lotWorkers,
	}
}

// lotPair is one measured operation of the lot workload: an infected
// and a clean lot of equal size.
type lotPair struct {
	infected, clean *core.LotReport
	inWall, clWall  time.Duration
	peaksMiB        []float64       // peak RSS while certifying each lot
	dieLatency      []time.Duration // each die's verdict, from its lot's start
}

func (lp lotPair) digest() (string, error) { return digestJSON(lp.infected, lp.clean) }

// certifyPair certifies both lots with core.CertifyLot, each from a
// collected heap with the peak-RSS counter reset, and times each die's
// verdict by the lot's StageDie progress events. With a recorder it
// instead certifies them through tracedLot, which records spans.
func certifyPair(p lotParams, su *lotSetup, s lotSeeds, rec *recorder, tot *stageTotals, op int) (lotPair, error) {
	lib := power.SAED90Like()
	var lp lotPair
	var mu sync.Mutex
	for i, physical := range []*netlist.Netlist{su.inst.Infected, su.inst.Host} {
		seed := s.infected
		if i == 1 {
			seed = s.clean
		}
		resetPeakRSS()
		opts := su.lotOptions(p, seed)
		t0 := time.Now()
		opts.Progress = func(ev core.Progress) {
			if ev.Stage == core.StageDie {
				at := time.Since(t0)
				mu.Lock()
				lp.dieLatency = append(lp.dieLatency, at)
				mu.Unlock()
			}
		}
		var lr *core.LotReport
		var err error
		if rec == nil {
			lr, err = core.CertifyLot(su.inst.Host, lib, physical, su.cfg, opts)
		} else {
			lr, err = tracedLot(su.inst.Host, lib, physical, su.cfg, opts, rec, tot, 2*op+i)
		}
		wall := time.Since(t0)
		if err != nil {
			return lp, err
		}
		lp.peaksMiB = append(lp.peaksMiB, peakRSSMiB())
		if i == 0 {
			lp.infected, lp.inWall = lr, wall
		} else {
			lp.clean, lp.clWall = lr, wall
		}
	}
	return lp, nil
}

// tracedLot is core.CertifyLot with each die's construction and each
// core stage recorded as a span. It repeats CertifyLot's per-die
// construction and its fan-in, so its report must digest identically.
func tracedLot(golden *netlist.Netlist, lib *power.Library, physical *netlist.Netlist,
	cfg core.Config, lot core.LotOptions, rec *recorder, tot *stageTotals, op int) (*core.LotReport, error) {
	cfg.Acquisition = lot.Acquisition
	root := rec.begin("lot", -1, op)
	defer rec.end(root)
	var done atomic.Int64
	dies, err := parallel.Map(context.Background(), lot.Workers, lot.Dies,
		func(die int) (core.DieResult, error) {
			dspan := rec.begin("die", root, op)
			defer rec.end(dspan)
			t0 := time.Now()
			seed := lot.Seed + uint64(die)*0x9E37
			chip := power.Manufacture(physical, lib, lot.Variation, seed)
			dev := core.NewDevice(chip, cfg.NumChains, cfg.Mode)
			defer dev.Close()
			if cfg.Channel.UsesDelay() {
				dev.SetDelayChip(delay.Manufacture(physical, timing.SAED90LikeDelays(), lot.Variation, seed))
			}
			dev.SetAcquisition(lot.Acquisition)
			if lot.Tester.Enabled() {
				tc := lot.Tester
				tc.Seed ^= seed * 0x9E3779B97F4A7C15
				dev.SetFaultModel(tester.New(tc))
			}
			rec.add("core.device_s", dspan, op, t0, time.Now())
			tr := newStageTracker(rec, tot, dev, dspan, op, false)
			dcfg := cfg
			dcfg.Progress = tr.progress
			rep, err := core.DetectContext(context.Background(), golden, lib, dev, dcfg)
			tr.finish()
			if err != nil {
				return core.DieResult{}, fmt.Errorf("die %d: %w", die, err)
			}
			if lot.Progress != nil {
				lot.Progress(core.Progress{Stage: core.StageDie, Step: int(done.Add(1)), Total: lot.Dies, Detail: "die certified"})
			}
			dr := core.DieResult{
				Die: die, Seed: seed, Report: rep,
				FinalMag:   abs(rep.FinalSRPD),
				DelayMag:   math.NaN(),
				FusedScore: rep.FusedScore,
			}
			if rep.Delay != nil {
				dr.DelayMag = rep.Delay.Score
			}
			return dr, nil
		})
	if err != nil {
		return nil, err
	}
	lr := &core.LotReport{Dies: dies}
	var mags, delayMags, fusedScores []float64
	for _, d := range dies {
		if d.Report.Detected {
			lr.Detected++
		}
		if math.IsNaN(d.FinalMag) {
			lr.Unstable++
		} else {
			mags = append(mags, d.FinalMag)
		}
		if d.Report.Delay != nil {
			if d.Report.Delay.Detected {
				lr.DelayDetected++
			}
			if !math.IsNaN(d.DelayMag) {
				delayMags = append(delayMags, d.DelayMag)
			}
		}
		if d.Report.FusedDetected {
			lr.FusedDetected++
		}
		if !math.IsNaN(d.FusedScore) {
			fusedScores = append(fusedScores, d.FusedScore)
		}
		lr.Acquisition = addAcq(lr.Acquisition, d.Report.Acquisition)
	}
	lr.SRPD = stats.Summarize(mags)
	lr.Delay = stats.Summarize(delayMags)
	lr.Fused = stats.Summarize(fusedScores)
	return lr, nil
}

// abs is core's absolute value, which keeps a negative zero's sign bit
// as CertifyLot does (math.Abs would clear it and change the digest).
func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// lotAUCs returns the ROC AUC of the power |S-RPD| and of the fused
// score, infected against clean dies.
func lotAUCs(lp lotPair) (pw, fu float64) {
	pw = core.AUC(core.ROC(lp.infected, lp.clean))
	scores := func(lr *core.LotReport) []float64 {
		out := make([]float64, len(lr.Dies))
		for i, d := range lr.Dies {
			out[i] = d.FusedScore
		}
		return out
	}
	fu = core.AUC(core.ROCFromScores(scores(lp.infected), scores(lp.clean)))
	return pw, fu
}

// lotRun measures lot pairs for the given time. Untraced, it reports the
// end-to-end metrics. Traced, it measures an untraced half and a traced
// half (the difference is the tracing overhead) and reports per-layer
// metrics.
func lotRun(p lotParams, seed uint64, seconds float64, trace bool, exp *expected, log io.Writer) (*result, error) {
	set := seed % inputSets
	s := lotSeedsFor(set)
	su, setupS, layers, err := timeSetup(setupReps, func() (*lotSetup, string, map[string]float64, error) { return buildLot(p, s.tester) }, nil)
	if err != nil {
		return nil, fmt.Errorf("lot set-up: %w", err)
	}
	var t tally
	var peaks []float64
	measure := func(budget float64, rec *recorder, tot *stageTotals) (dps float64, lat []float64, pair lotPair, err error) {
		var dies int
		var busy time.Duration
		for op, last := 0, time.Duration(0); more(busy, last, budget); op++ {
			lp, err := certifyPair(p, su, s, rec, tot, op)
			if err != nil {
				return 0, nil, pair, err
			}
			dig, err := lp.digest()
			if err != nil {
				return 0, nil, pair, err
			}
			ok := exp.check("lot", setKey(set), dig)
			for i := 0; i < 2*p.Dies; i++ {
				t.op(ok)
			}
			if !ok {
				fmt.Fprintf(log, "perfbench: lot set %d: verdict digest %s does not match the expected one\n", set, dig)
			}
			last = lp.inWall + lp.clWall
			fmt.Fprintf(log, "perfbench: lot op %d: infected %.3fs clean %.3fs\n", op, lp.inWall.Seconds(), lp.clWall.Seconds())
			busy += last
			dies += 2 * p.Dies
			for _, d := range lp.dieLatency {
				lat = append(lat, ms(d))
			}
			peaks = append(peaks, lp.peaksMiB...)
			pair = lp
		}
		return float64(dies) / busy.Seconds(), lat, pair, nil
	}

	res := &result{}
	if !trace {
		dps, lat, _, err := measure(seconds, nil, nil)
		if err != nil {
			return nil, err
		}
		res.Metrics = endToEnd(setupS, peaks, dps, lat)
	} else {
		plain, _, _, err := measure(seconds/2, nil, nil)
		if err != nil {
			return nil, err
		}
		rec, tot := newRecorder(), newStageTotals()
		traced, _, pair, err := measure(seconds/2, rec, tot)
		if err != nil {
			return nil, err
		}
		out := layers
		stageMetrics(out, rec, tot)
		out["trace.uncovered_share"] = rec.uncoveredShare()
		out["trace.overhead_pct"] = 100 * (plain - traced) / plain
		out["fusion.power_auc"], out["fusion.fused_auc"] = lotAUCs(pair)
		if err := kernelProbes(su.inst.Host, out); err != nil {
			return nil, err
		}
		res.Metrics = perLayer(out)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	return res, nil
}

// recordLot stores the verdict digest of one input set.
func recordLot(p lotParams, set uint64, exp *expected) error {
	s := lotSeedsFor(set)
	su, _, _, err := buildLot(p, s.tester)
	if err != nil {
		return err
	}
	lp, err := certifyPair(p, su, s, nil, nil, 0)
	if err != nil {
		return err
	}
	dig, err := lp.digest()
	if err != nil {
		return err
	}
	exp.set("lot", setKey(set), dig)
	return nil
}
