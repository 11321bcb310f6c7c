// Command perfbench is the repository's benchmark. One invocation runs one
// workload in its own process, from a workload seed, checks every output,
// and prints one JSON result object as the last line of standard output:
//
//	perfbench --workload capture-n64 --seed 1 --seconds 45 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, measured
// by wrapping the public seams the program exposes (see README.md). The
// benchmark adds no code to the program: every span and counter is
// recorded from this package, around calls into the layers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 45, "how long the timed ops run")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	dir := flag.String("dir", ".bench_build/work", "working directory for corpora, campaign stores and traces")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// One P: the benchmark measures single-core cost, like the attack's
	// Workers: 1. With one runnable thread the process also sidesteps most
	// of the CPU time a shared host steals from one of its cores, which
	// otherwise moved wall times by half between runs.
	runtime.GOMAXPROCS(1)

	res, err := run(w, config{
		name:    *name,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		dir:     *dir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	return strings.Join(slices.Sorted(maps.Keys(workloads)), ", ")
}
