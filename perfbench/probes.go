package main

import (
	"fmt"
	"time"

	"superpose/internal/core"
	"superpose/internal/netlist"
	"superpose/internal/power"
	"superpose/internal/scan"
	"superpose/internal/sim"
	"superpose/internal/stats"
)

// probeBudget bounds the time each kernel probe repeats its call.
const probeBudget = 300 * time.Millisecond

// kernelProbes times direct calls to the kernels on a workload's own
// netlist and reports each as the median over repetitions:
//   - scan.sweep_chunk_us: one 64-flip Sweeper.Run (delta propagation
//     over the flip cones, the adaptive/sweep unit of work);
//   - power.price_us: NominalLanesSparse over that chunk's toggles;
//   - core.measure_batch_us: one 64-pattern Evaluator.MeasureBatch
//     (whole-netlist launch, toggles and pricing, the pairs unit of work).
func kernelProbes(n *netlist.Netlist, out map[string]float64) error {
	const lanes = 64
	lib := power.SAED90Like()
	ch := scan.Configure(n, 4)
	rng := stats.NewRNG(11)

	var flips []scan.Flip
	for c := 0; c < ch.NumChains() && len(flips) < lanes; c++ {
		for i := range ch.Chain(c) {
			if len(flips) == lanes {
				break
			}
			flips = append(flips, scan.Flip{Chain: c, Index: i})
		}
	}
	sw, err := scan.NewSweeperKind(ch, scan.LOS, flips, sim.EnginePPSFP)
	if err != nil {
		return fmt.Errorf("probe sweeper: %w", err)
	}
	defer sw.Close()
	if err := sw.Rebase(ch.RandomPattern(rng)); err != nil {
		return fmt.Errorf("probe sweeper: %w", err)
	}
	model := power.NewModel(n, lib)
	var sweepUs, priceUs []float64
	var dst []float64
	for t0 := time.Now(); len(sweepUs) < 5 || time.Since(t0) < probeBudget; {
		s0 := time.Now()
		ids, masks := sw.Run(0)
		s1 := time.Now()
		dst = model.NominalLanesSparse(ids, masks, len(flips), dst)
		s2 := time.Now()
		sweepUs = append(sweepUs, us(s1.Sub(s0)))
		priceUs = append(priceUs, us(s2.Sub(s1)))
	}

	chip := power.Manufacture(n, lib, power.ThreeSigmaIntra(0.15), 1)
	dev := core.NewDevice(chip, 4, scan.LOS)
	defer dev.Close()
	dev.SetAcquisition(core.NaiveAcquisition())
	ev := core.NewEvaluator(n, lib, dev, 4, scan.LOS)
	defer ev.Close()
	pats := make([]*scan.Pattern, lanes)
	for i := range pats {
		pats[i] = ch.RandomPattern(rng)
	}
	ev.Calibrate(pats[:8])
	var batchUs []float64
	for t0 := time.Now(); len(batchUs) < 5 || time.Since(t0) < probeBudget; {
		s0 := time.Now()
		ev.MeasureBatch(pats)
		batchUs = append(batchUs, us(time.Since(s0)))
	}

	out["scan.sweep_chunk_us"] = median(sweepUs)
	out["power.price_us"] = median(priceUs)
	out["core.measure_batch_us"] = median(batchUs)
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
