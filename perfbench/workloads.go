package main

import (
	"fmt"
	"math"
	"os"

	"falcondown/internal/obs"
)

// workloads maps each name to its set-up and to the spans that must tile
// each of its ops in the traced run: every one present, together covering
// at least 95% of the op's wall time.
var workloads = map[string]workload{
	"capture-n64": {setup: setupCapture, spans: []string{
		"capture.acquire", "tracestore.close", "tracestore.open",
		"tracestore.read", "tracestore.manifest"}},
	"campaign-fleet-n16": {setup: setupFleet, spans: []string{
		phaseStart,
		"campaign.phase.exponents", "campaign.phase.mantissa", "campaign.phase.escalation",
		"campaign.phase.signs", "campaign.phase.stragglers", phaseTail, phaseFetch}},
}

// perLayerMetrics lists, in BENCHMARK.json order, every per-layer metric a traced
// run prints, with its unit; a layer a workload leaves idle reads 0 there.
var perLayerMetrics = []struct{ name, unit string }{
	{"core.corrected_values", "count"}, {"go.allocs_per_op", "count"}, {"go.gc_cycles_per_op", "count"},
	{"emleak.acquire_s", "s"}, {"tracestore.append_s", "s"}, {"tracestore.close_s", "s"},
	{"tracestore.bytes_written", "bytes"},
	{"tracestore.open_s", "s"}, {"tracestore.read_s", "s"}, {"tracestore.manifest_s", "s"},
	{"campaign.submit_s", "s"}, {"campaign.start_s", "s"},
	{"campaign.phase.exponents_s", "s"}, {"campaign.phase.mantissa_s", "s"}, {"campaign.phase.escalation_s", "s"},
	{"campaign.phase.signs_s", "s"}, {"campaign.phase.stragglers_s", "s"},
	{"campaign.tail_s", "s"}, {"campaign.fetch_s", "s"},
	{"cluster.passes", "count"}, {"cluster.tasks", "count"}, {"cluster.task_rtt_s", "s"},
	{"cluster.worker_busy_s", "s"}, {"cluster.wire_overhead_s", "s"},
	{"cluster.req_bytes", "bytes"}, {"cluster.resp_bytes", "bytes"},
	{"cluster.retries", "count"}, {"cluster.local_tasks", "count"}, {"cluster.hedges", "count"},
	{"refused_frac", "frac"},
	{"trace.op_s_mean_untraced", "s"}, {"trace.op_s_mean_traced", "s"}, {"trace.overhead_frac", "frac"},
	{"trace.stage_coverage", "frac"}, {"trace.missing_spans", "count"},
	{"obs.sweep_passes", "count"}, {"obs.fleet_tasks", "count"}, {"obs.store_bytes", "bytes"},
	{"obs.mismatches", "count"},
}

// obsCounters maps the program's own obs counters to the benchmark's
// outside counts of the same work, compared per op over the traced ops.
var obsCounters = []struct {
	metric, counter, outside string
}{
	{"obs.sweep_passes", "falcon_sweep_passes_total", "cluster.passes"},
	{"obs.fleet_tasks", "falcon_fleet_tasks_total", "cluster.tasks"},
	{"obs.store_bytes", "falcon_store_bytes_written_total", "tracestore.bytes_written"},
}

// obsSnapshot sums every obs counter by name across its labels.
func obsSnapshot() map[string]float64 {
	out := map[string]float64{}
	for _, m := range obs.Default().Snapshot() {
		if m.Type == obs.TypeCounter {
			out[m.Name] += m.Value
		}
	}
	return out
}

// crossCheck records, per op, how much each obs counter moved over the
// traced ops, and counts the counters that disagree with the benchmark's
// outside count of the same work.
func crossCheck(layer map[string]float64, before, after map[string]float64, ops int) {
	for _, c := range obsCounters {
		delta := (after[c.counter] - before[c.counter]) / float64(ops)
		layer[c.metric] = delta
		outside := layer[c.outside]
		if math.Abs(delta-outside) > 1e-9*max(1, math.Abs(outside)) {
			layer["obs.mismatches"]++
			fmt.Fprintf(os.Stderr, "perfbench: obs cross-check: %s moved %.1f per op, the benchmark counted %.1f (%s)\n",
				c.counter, delta, outside, c.outside)
		}
	}
}
