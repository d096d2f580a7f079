// Command perfbench is the repository's benchmark of the certification
// pipeline. It runs one named workload from a workload seed, checks every
// verdict-bearing output against the digests it keeps in expected.json,
// and prints one JSON result line:
//
//	perfbench --workload lot|scale|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics of an untraced
// run; with --trace 1 it carries the per-layer metrics of a traced run
// (see README.md for every metric, its unit and the layer map).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// inputSets is the number of distinct input sets a workload draws from:
// the workload seed selects set seed mod inputSets, and expected.json
// holds the verdict digests of every set.
const inputSets = 8

// setupReps is how many times a run builds its set-up; setup_s is the
// median.
const setupReps = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts a run's operations and their failures. An operation
// fails when the program errors, refuses it, or returns a verdict whose
// digest differs from the expected one.
type tally struct {
	attempted, failed int
}

func (t *tally) op(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// workload is one benchmark workload at full size. run measures it;
// trace selects the per-layer metrics of a traced run instead of the
// end-to-end ones. record stores the verdict digests of one input set.
type workload struct {
	run    func(seed uint64, seconds float64, trace bool, exp *expected, log io.Writer) (*result, error)
	record func(set uint64, exp *expected) error
}

var workloads = map[string]workload{
	"lot": {
		run: func(seed uint64, seconds float64, trace bool, exp *expected, log io.Writer) (*result, error) {
			return lotRun(lotFull, seed, seconds, trace, exp, log)
		},
		record: func(set uint64, exp *expected) error { return recordLot(lotFull, set, exp) },
	},
	"scale": {
		run: func(seed uint64, seconds float64, trace bool, exp *expected, log io.Writer) (*result, error) {
			return scaleRun(scaleFull, seed, seconds, trace, exp, log)
		},
		record: func(set uint64, exp *expected) error { return recordScale(scaleFull, set, exp) },
	},
	"serve": {
		run: func(seed uint64, seconds float64, trace bool, exp *expected, log io.Writer) (*result, error) {
			return serveRun(serveFull, seed, seconds, trace, exp, log)
		},
		record: func(set uint64, exp *expected) error {
			return recordServe(set, serveJobs(serveFull, recordedSeconds), exp)
		},
	},
}

func main() {
	name := flag.String("workload", "", "workload to run: lot, scale or serve")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 25, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	record := flag.Bool("record", false, "compute the verdict digests of every input set of the workload and write them to -expected")
	expPath := flag.String("expected", "perfbench/expected.json", "verdict digest file")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want lot, scale or serve)\n", *name)
		os.Exit(2)
	}
	exp, err := loadExpected(*expPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *record {
		if err := recordDigests(*name, w.record, exp, *expPath, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := w.run(*seed, *seconds, *trace == 1, exp, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// timeSetup runs build reps times, each from a collected heap, and
// returns the last result with the median wall clock and the median of
// each set-up layer's time. Every repetition must produce the same
// artifact digest, so a set-up that is not deterministic fails the run.
// release, when non-nil, tears down each earlier repetition's result
// after its clock has stopped, so teardown is never timed.
func timeSetup[T any](reps int, build func() (T, string, map[string]float64, error), release func(T)) (T, float64, map[string]float64, error) {
	var (
		out    T
		first  string
		secs   []float64
		layers = map[string][]float64{}
	)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		v, dig, ls, err := build()
		if err != nil {
			return out, 0, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == 0 {
			first = dig
		} else if dig != first {
			if release != nil {
				release(v)
			}
			return out, 0, nil, fmt.Errorf("set-up is not deterministic: digest %s then %s", first, dig)
		}
		for k, x := range ls {
			layers[k] = append(layers[k], x)
		}
		if i < reps-1 && release != nil {
			release(v)
		}
		out = v
	}
	med := map[string]float64{}
	for k, xs := range layers {
		med[k] = median(xs)
	}
	return out, median(secs), med, nil
}

// more reports whether a measuring loop should start another operation:
// always the first, then while the time spent so far plus half the last
// operation stays within the budget, so a run ends as close to its
// budget as whole operations allow.
func more(busy, last time.Duration, budget float64) bool {
	return busy == 0 || (busy+last/2).Seconds() < budget
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// resetPeakRSS collects garbage, returns freed memory to the operating
// system and resets the kernel's peak-RSS counter (VmHWM), so every
// measured operation starts from the same heap and peakRSSMiB covers
// only what runs afterwards. Where the counter cannot be reset, the
// peak covers the whole process.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	defer f.Close()
	_, _ = f.WriteString("5") // best effort: see the fallback above
}

// peakRSSMiB is the process's peak resident set size since the last
// resetPeakRSS.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(kb), " kB"), 64); err == nil {
					return v / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEnd assembles the end-to-end metrics every workload reports.
// peaksMiB are the peak RSS of each measured operation.
func endToEnd(setupS float64, peaksMiB []float64, diesPerS float64, latencyMs []float64) map[string]metric {
	return withUnits(endToEndDefs, map[string]float64{
		"setup_s":        setupS,
		"peak_rss_mb":    median(peaksMiB),
		"dies_per_s":     diesPerS,
		"latency_p50_ms": quantile(latencyMs, 0.5),
		"latency_p90_ms": quantile(latencyMs, 0.9),
	})
}
