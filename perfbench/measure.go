package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

type config struct {
	name    string
	seed    uint64
	seconds time.Duration
	trace   bool
	dir     string
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow repetition (cold page cache, first heap growth,
// a burst of host CPU steal) does not move it.
const setupRepeats = 5

// tracedOps is the number of ops each arm of a traced run covers.
const tracedOps = 4

// workload is one named set of inputs. setup derives every input from the
// seed and does everything the timed ops then reuse.
type workload struct {
	setup func(cfg config, dir string) (instance, error)
	// spans names the spans that must tile each op in the traced run.
	spans []string
}

// instance is a set-up workload. Op i's inputs are a function of the seed
// and i alone, so per-op outcomes repeat exactly for a seed.
type instance interface {
	// op runs op i. A nil tracer means an untraced op: no wrapper that
	// only serves the trace may run. An error is an output that failed
	// its check, or a failure of the program; either aborts the run.
	op(i int, tr *tracer) (outcome, error)
	close() error
}

// outcome is what one op produced, as far as the benchmark checked it.
type outcome struct {
	// verified: the op's output passed the workload's check (a key that
	// reproduces the victim's public key and signs verifiably, a corpus
	// that reads back byte-exact).
	verified bool
	// refused: the attack reported ErrImplausibleKey instead of a key.
	// No unverified key was emitted, but no key was recovered either:
	// the op counts as failed.
	refused bool
	// layer holds this op's per-layer values (counts always, times only
	// when traced).
	layer map[string]float64
}

// opStats is what the loop measured around one op from outside.
type opStats struct {
	wall, cpu time.Duration
	allocB    uint64
	allocs    uint64
	gcs       uint64
}

func run(w workload, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	var inst instance
	var setups []float64
	for rep := 0; rep < setupRepeats; rep++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("run-%d-%d", os.Getpid(), rep))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		in, err := w.setup(cfg, dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupRepeats-1 {
			if err := in.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		inst = in
		defer os.RemoveAll(dir)
	}
	defer inst.close()

	res := &result{Correct: true, Metrics: map[string]metric{}}
	if !cfg.trace {
		var stats []opStats
		var outs []outcome
		start := time.Now()
		for {
			s, out, err := runOp(inst, len(outs), nil)
			if err != nil {
				return failedResult(res, len(outs), err), nil
			}
			stats, outs = append(stats, s), append(outs, out)
			// Start another op only while one more fits in the budget,
			// judged by the ops so far.
			if elapsed := time.Since(start); elapsed+elapsed/time.Duration(len(outs)) > cfg.seconds {
				break
			}
		}
		countOutcomes(res, outs)
		var cpus []float64
		var alloc float64
		for _, s := range stats {
			cpus = append(cpus, s.cpu.Seconds())
			alloc += float64(s.allocB)
		}
		n := float64(len(stats))
		var refused []int
		for i, o := range outs {
			if o.refused {
				refused = append(refused, i)
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d ops, wall s %v, cpu s %v; setup s %v; refused ops %v\n",
			len(stats), roundAll(wallTimes(stats)), roundAll(cpus), roundAll(setups), refused)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["op_s_mean"] = metric{sum(wallTimes(stats)) / n, "s"}
		res.Metrics["cpu_s_per_op"] = metric{sum(cpus) / n, "s"}
		res.Metrics["alloc_mb_per_op"] = metric{alloc / n / 1e6, "MB"}
		res.Metrics["max_rss_mb"] = metric{maxRSSMB(), "MB"}
		res.Metrics["verified_frac"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "frac"}
		return res, nil
	}

	// Traced run: every op runs twice on the same input, untraced and then
	// traced, so the overhead compares identical work and host drift falls
	// on both arms alike. A fixed op count keeps every per-layer count a
	// function of the seed alone.
	var plain, traced []opStats
	var outs, touts []outcome
	before := obsSnapshot()
	tr := newTracer()
	for i := 0; i < tracedOps; i++ {
		s, out, err := runOp(inst, i, nil)
		if err != nil {
			return failedResult(res, len(outs)+len(touts), err), nil
		}
		plain, outs = append(plain, s), append(outs, out)
		s, out, err = runOp(inst, i, tr)
		if err != nil {
			return failedResult(res, len(outs)+len(touts), err), nil
		}
		traced, touts = append(traced, s), append(touts, out)
	}
	after := obsSnapshot()
	countOutcomes(res, append(outs, touts...))
	layer := perLayer(touts, traced)
	layer["trace.op_s_mean_untraced"] = sum(wallTimes(plain)) / tracedOps
	layer["trace.op_s_mean_traced"] = sum(wallTimes(traced)) / tracedOps
	layer["trace.overhead_frac"] = layer["trace.op_s_mean_traced"]/layer["trace.op_s_mean_untraced"] - 1
	cov, gaps, missing := tr.coverage(w.spans)
	layer["trace.stage_coverage"] = cov
	for name, s := range gaps {
		fmt.Fprintf(os.Stderr, "perfbench: uncovered by stage spans: %s %.4fs per op\n", name, s/float64(tracedOps))
	}
	for name, n := range missing {
		fmt.Fprintf(os.Stderr, "perfbench: span %s missing or empty in %d of %d ops\n", name, n, tracedOps)
		layer["trace.missing_spans"] += float64(n)
	}
	// The obs counters move on both arms; each arm does the same work.
	crossCheck(layer, before, after, 2*tracedOps)
	if err := tr.write(filepath.Join(cfg.dir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.name, cfg.seed))); err != nil {
		return nil, err
	}
	tr.printSelf(tracedOps)
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = metric{layer[m.name], m.unit}
	}
	return res, nil
}

// countOutcomes sets the result's op counts: a refused op is a failed one.
func countOutcomes(res *result, outs []outcome) {
	res.Attempted = len(outs)
	for _, o := range outs {
		if o.refused {
			res.Failed++
		}
	}
}

// failedResult reports a run aborted by op i's error.
func failedResult(res *result, i int, err error) *result {
	fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
	res.Correct = false
	res.Attempted = i + 1
	res.Failed = 1
	return res
}

// runOp runs op i, measured from outside. The op starts from a collected
// heap with its free pages returned to the OS, so one op's garbage lands
// neither in the next op's time nor in its share of the resident set.
func runOp(inst instance, i int, tr *tracer) (opStats, outcome, error) {
	runtime.GC()
	s0 := sample()
	if tr != nil {
		tr.beginOp(i)
	}
	out, err := inst.op(i, tr)
	s1 := sample()
	if tr != nil {
		tr.endOp()
	}
	return s1.minus(s0), out, err
}

type snapshot struct {
	at     time.Time
	cpu    time.Duration
	allocB uint64
	allocs uint64
	gcs    uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func sample() snapshot {
	// Getrusage on RUSAGE_SELF with a valid pointer cannot fail.
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(runtimeSamples)
	return snapshot{
		at:     time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB: runtimeSamples[0].Value.Uint64(),
		allocs: runtimeSamples[1].Value.Uint64(),
		gcs:    runtimeSamples[2].Value.Uint64(),
	}
}

func (s snapshot) minus(o snapshot) opStats {
	return opStats{
		wall:   s.at.Sub(o.at),
		cpu:    s.cpu - o.cpu,
		allocB: s.allocB - o.allocB,
		allocs: s.allocs - o.allocs,
		gcs:    s.gcs - o.gcs,
	}
}

// maxRSSMB is the process's peak resident set size (ru_maxrss is KiB on
// Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func wallTimes(stats []opStats) []float64 {
	out := make([]float64, len(stats))
	for i, s := range stats {
		out[i] = s.wall.Seconds()
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// perLayer averages the per-op layer values over the traced ops and adds
// the refused share and Go runtime counts.
func perLayer(outs []outcome, stats []opStats) map[string]float64 {
	layer := map[string]float64{}
	n := float64(len(outs))
	for _, o := range outs {
		for k, v := range o.layer {
			layer[k] += v / n
		}
		if o.refused {
			layer["refused_frac"] += 1 / n
		}
	}
	for _, s := range stats {
		layer["go.allocs_per_op"] += float64(s.allocs) / n
		layer["go.gc_cycles_per_op"] += float64(s.gcs) / n
	}
	return layer
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*1000+0.5)) / 1000
	}
	return out
}

// errWrongOutput marks an op whose output failed its check.
var errWrongOutput = errors.New("wrong output")
