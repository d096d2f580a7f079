package main

import (
	"runtime/metrics"
	"sync"
	"time"

	"superpose/internal/core"
)

// stagesTraced are the core.Stage phases a traced certification reports,
// in pipeline order.
var stagesTraced = []core.Stage{
	core.StageCalibrate, core.StageAdaptive, core.StagePairs, core.StageConfirm, core.StageDelay,
}

// stageTotals accumulates the per-stage work of a traced run across
// dies. It is safe for concurrent use.
type stageTotals struct {
	mu            sync.Mutex
	readings      map[core.Stage]uint64
	allocBytes    map[core.Stage]uint64
	adaptiveSteps int
	pairsAnalyzed int
	acq           core.AcquisitionStats
}

func newStageTotals() *stageTotals {
	return &stageTotals{readings: map[core.Stage]uint64{}, allocBytes: map[core.Stage]uint64{}}
}

// stageTracker turns one die's core.Progress transitions into stage
// spans, reading the die's acquisition counters (and, when alloc is
// set, the process heap-allocation counter) at every stage boundary.
// Progress runs on the measuring goroutine, so the device is read
// without racing its owner.
type stageTracker struct {
	rec        *recorder
	tot        *stageTotals
	dev        *core.Device
	parent, op int
	alloc      bool

	cur    core.Stage
	start  time.Time
	acq0   core.AcquisitionStats
	alloc0 uint64
	steps  int
	pairs  int
	first  core.AcquisitionStats
}

func newStageTracker(rec *recorder, tot *stageTotals, dev *core.Device, parent, op int, alloc bool) *stageTracker {
	return &stageTracker{rec: rec, tot: tot, dev: dev, parent: parent, op: op, alloc: alloc, first: dev.AcquisitionStats()}
}

// progress is the core.ProgressFunc of the traced die.
func (t *stageTracker) progress(p core.Progress) {
	switch {
	case p.Stage == core.StageAdaptive && p.Detail == "climb step accepted":
		t.steps++
	case p.Stage == core.StagePairs: // one event per pair analysed, at most Config.MaxPairs per die
		t.pairs++
	}
	if p.Stage == t.cur {
		return
	}
	now := time.Now()
	t.close(now)
	t.cur, t.start = p.Stage, now
	t.acq0 = t.dev.AcquisitionStats()
	if t.alloc {
		t.alloc0 = heapAllocBytes()
	}
}

// close ends the open stage span at now.
func (t *stageTracker) close(now time.Time) {
	if t.cur == "" {
		return
	}
	t.rec.add("core."+string(t.cur)+"_s", t.parent, t.op, t.start, now)
	n := t.dev.AcquisitionStats().Readings - t.acq0.Readings
	var a uint64
	if t.alloc {
		a = heapAllocBytes() - t.alloc0
	}
	t.tot.mu.Lock()
	t.tot.readings[t.cur] += n
	t.tot.allocBytes[t.cur] += a
	t.tot.mu.Unlock()
	t.cur = ""
}

// finish closes the last stage when Detect returns and folds the die's
// counts into the totals.
func (t *stageTracker) finish() {
	t.close(time.Now())
	acq := t.dev.AcquisitionStats().Sub(t.first)
	t.tot.mu.Lock()
	t.tot.adaptiveSteps += t.steps
	t.tot.pairsAnalyzed += t.pairs
	t.tot.acq = addAcq(t.tot.acq, acq)
	t.tot.mu.Unlock()
}

// addAcq sums two acquisition counter sets field by field, as
// core.LotReport accumulates its dies.
func addAcq(a, b core.AcquisitionStats) core.AcquisitionStats {
	return core.AcquisitionStats{
		Readings: a.Readings + b.Readings,
		Passes:   a.Passes + b.Passes,
		Raw:      a.Raw + b.Raw,
		Dropped:  a.Dropped + b.Dropped,
		Rejected: a.Rejected + b.Rejected,
		Latched:  a.Latched + b.Latched,
		Retries:  a.Retries + b.Retries,
		Unstable: a.Unstable + b.Unstable,
	}
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// stageMetrics reports the core-stage layer: self time per stage, work
// counts, time per reading, acquisition effort and (when measured) heap
// allocation per stage.
func stageMetrics(out map[string]float64, rec *recorder, tot *stageTotals) {
	self := rec.selfTimes()
	out["core.device_s"] = self["core.device_s"].Seconds()
	for _, st := range stagesTraced {
		name := "core." + string(st) + "_s"
		out[name] = self[name].Seconds()
		out["go.alloc_mb."+string(st)] = float64(tot.allocBytes[st]) / (1 << 20)
	}
	out["core.adaptive_steps"] = float64(tot.adaptiveSteps)
	out["core.pairs_analyzed"] = float64(tot.pairsAnalyzed)
	ra, rp := tot.readings[core.StageAdaptive], tot.readings[core.StagePairs]
	out["device.readings.adaptive"] = float64(ra)
	out["device.readings.pairs"] = float64(rp)
	if ra > 0 {
		out["core.adaptive_us_per_reading"] = self["core.adaptive_s"].Seconds() * 1e6 / float64(ra)
	}
	if rp > 0 {
		out["core.pairs_us_per_reading"] = self["core.pairs_s"].Seconds() * 1e6 / float64(rp)
	}
	if tot.acq.Readings > 0 {
		out["device.raw_per_reading"] = float64(tot.acq.Raw) / float64(tot.acq.Readings)
	}
	out["device.retries"] = float64(tot.acq.Retries)
	out["device.unstable"] = float64(tot.acq.Unstable)
}
