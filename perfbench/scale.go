package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"time"

	"superpose/internal/bench"
	"superpose/internal/core"
	"superpose/internal/netlist"
	"superpose/internal/parallel"
	"superpose/internal/power"
	"superpose/internal/scan"
	"superpose/internal/sim"
	"superpose/internal/stats"
	"superpose/internal/trust"
)

// scaleParams sizes the scale workload: the capacity recipe of
// cmd/benchjson -scale, one bounded certification of a generated
// netlist streamed through the .bench parser.
type scaleParams struct {
	Gates  int
	TmpDir string // where the generated .bench file is written
}

var scaleFull = scaleParams{Gates: 100_000, TmpDir: ".bench_build/tmp"}

// scaleChipSeed is the per-input-set seed of the scale workload: the
// die's process draw. The netlist and the two random seed patterns are
// the recipe's fixed ones (generator seed 1, pattern seed 7), so every
// input set does the same simulation work and allocates the same
// memory; only the measured die differs.
func scaleChipSeed(set uint64) uint64 { return parallel.Mix(0x5CA1E_0000+set, 1) }

// scalePatternSeed is the recipe's random-pattern seed.
const scalePatternSeed = 7

// scaleSetupReps is how many times a scale run builds its set-up. The
// build takes about a tenth of a second, so more repetitions than the
// other workloads' cost little and steady the median.
const scaleSetupReps = 9

// buildScale streams the sized netlist to a temporary .bench file,
// parses it back with the streaming parser and compiles its
// structure-of-arrays form.
func buildScale(p scaleParams) (*netlist.Netlist, string, map[string]float64, error) {
	lp := trust.SizedLargeParams(p.Gates, 1)
	if err := os.MkdirAll(p.TmpDir, 0o755); err != nil {
		return nil, "", nil, err
	}
	f, err := os.CreateTemp(p.TmpDir, "scale-*.bench")
	if err != nil {
		return nil, "", nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()

	layers := map[string]float64{}
	t0 := time.Now()
	h := sha256.New()
	if err := trust.EmitLarge(io.MultiWriter(f, h), lp); err != nil {
		return nil, "", nil, err
	}
	t1 := time.Now()
	layers["bench.emit_s"] = t1.Sub(t0).Seconds()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, "", nil, err
	}
	n, err := bench.ParseStreamSized(f, lp.Name, lp.TotalGates())
	if err != nil {
		return nil, "", nil, err
	}
	t2 := time.Now()
	layers["bench.parse_s"] = t2.Sub(t1).Seconds()
	n.SoA()
	layers["netlist.soa_s"] = time.Since(t2).Seconds()
	return n, hex.EncodeToString(h.Sum(nil))[:16], layers, nil
}

// certifyScale runs the recipe's bounded certification: 2 random seed
// patterns, 1 adaptive step, 1 strategic round, the PPSFP engine and
// naive acquisition. With a recorder it records the device construction
// and each core stage, including heap allocation per stage.
func certifyScale(n *netlist.Netlist, chipSeed uint64, rec *recorder, tot *stageTotals, op int) (*core.Report, error) {
	root := rec.begin("certify", -1, op)
	defer rec.end(root)
	t0 := time.Now()
	lib := power.SAED90Like()
	chip := power.Manufacture(n, lib, power.ThreeSigmaIntra(0.15), chipSeed)
	dev := core.NewDevice(chip, 4, scan.LOS)
	defer dev.Close()
	rng := stats.NewRNG(scalePatternSeed)
	ch := scan.Configure(n, 4)
	cfg := core.Config{
		SeedPatterns: []*scan.Pattern{ch.RandomPattern(rng), ch.RandomPattern(rng)},
		MaxSeeds:     1,
		MaxPairs:     1,
		Adaptive:     core.AdaptiveOptions{MaxSteps: 1, Engine: sim.EnginePPSFP},
		Strategic:    core.StrategicOptions{MaxRounds: 1},
		Acquisition:  core.NaiveAcquisition(),
	}
	rec.add("core.device_s", root, op, t0, time.Now())
	if rec == nil {
		return core.Detect(n, lib, dev, cfg)
	}
	tr := newStageTracker(rec, tot, dev, root, op, true)
	cfg.Progress = tr.progress
	rep, err := core.Detect(n, lib, dev, cfg)
	tr.finish()
	return rep, err
}

// scaleRun measures certifications of the sized netlist for the given
// time, untraced for the end-to-end metrics, or half untraced and half
// traced for the per-layer ones.
func scaleRun(p scaleParams, seed uint64, seconds float64, trace bool, exp *expected, log io.Writer) (*result, error) {
	set := seed % inputSets
	chipSeed := scaleChipSeed(set)
	n, setupS, layers, err := timeSetup(scaleSetupReps, func() (*netlist.Netlist, string, map[string]float64, error) { return buildScale(p) }, nil)
	if err != nil {
		return nil, fmt.Errorf("scale set-up: %w", err)
	}
	var t tally
	var peaks []float64
	measure := func(budget float64, rec *recorder, tot *stageTotals) (float64, []float64, error) {
		var lat []float64
		var busy time.Duration
		for op, last := 0, time.Duration(0); more(busy, last, budget); op++ {
			resetPeakRSS()
			t0 := time.Now()
			rep, err := certifyScale(n, chipSeed, rec, tot, op)
			if err != nil {
				return 0, nil, err
			}
			wall := time.Since(t0)
			last = wall
			peaks = append(peaks, peakRSSMiB())
			fmt.Fprintf(log, "perfbench: scale op %d: %.3fs\n", op, wall.Seconds())
			dig, err := digestJSON(rep)
			if err != nil {
				return 0, nil, err
			}
			ok := exp.check("scale", setKey(set), dig)
			t.op(ok)
			if !ok {
				fmt.Fprintf(log, "perfbench: scale set %d: verdict digest %s does not match the expected one\n", set, dig)
			}
			busy += wall
			lat = append(lat, ms(wall))
		}
		return float64(len(lat)) / busy.Seconds(), lat, nil
	}

	res := &result{}
	if !trace {
		dps, lat, err := measure(seconds, nil, nil)
		if err != nil {
			return nil, err
		}
		res.Metrics = endToEnd(setupS, peaks, dps, lat)
	} else {
		plain, _, err := measure(seconds/2, nil, nil)
		if err != nil {
			return nil, err
		}
		rec, tot := newRecorder(), newStageTotals()
		traced, _, err := measure(seconds/2, rec, tot)
		if err != nil {
			return nil, err
		}
		out := layers
		stageMetrics(out, rec, tot)
		out["trace.uncovered_share"] = rec.uncoveredShare()
		out["trace.overhead_pct"] = 100 * (plain - traced) / plain
		if err := kernelProbes(n, out); err != nil {
			return nil, err
		}
		res.Metrics = perLayer(out)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	return res, nil
}

// recordScale stores the verdict digest of one input set.
func recordScale(p scaleParams, set uint64, exp *expected) error {
	n, _, _, err := buildScale(p)
	if err != nil {
		return err
	}
	rep, err := certifyScale(n, scaleChipSeed(set), nil, nil, 0)
	if err != nil {
		return err
	}
	dig, err := digestJSON(rep)
	if err != nil {
		return err
	}
	exp.set("scale", setKey(set), dig)
	return nil
}
