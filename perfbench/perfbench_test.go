package main

// The benchmark's self-test. It runs the real workloads, so it takes about
// a minute:
//
//	cd perfbench && go test -timeout 10m .

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"
	"time"

	"falcondown/internal/emleak"
)

// tracedOp sets a workload up from seed and runs its op i traced.
func tracedOp(t *testing.T, name string, seed uint64, i int) (outcome, float64) {
	t.Helper()
	inst, err := workloads[name].setup(config{name: name, seed: seed}, t.TempDir())
	if err != nil {
		t.Fatalf("%s setup: %v", name, err)
	}
	defer func() {
		if err := inst.close(); err != nil {
			t.Errorf("%s close: %v", name, err)
		}
	}()
	tr := newTracer()
	tr.beginOp(i)
	out, err := inst.op(i, tr)
	tr.endOp()
	if err != nil {
		t.Fatalf("%s op %d: %v", name, i, err)
	}
	cov, gaps, missing := tr.coverage(workloads[name].spans)
	if cov < 0.95 {
		t.Errorf("%s: stage spans cover %.3f of the op, want >= 0.95; uncovered: %v", name, cov, gaps)
	}
	if len(missing) > 0 {
		t.Errorf("%s: spans missing or empty: %v", name, missing)
	}
	return out, cov
}

// Two traced ops on the same seed do the same work and reach the same
// outcome; every stage span is present and together they cover at least
// 95% of each op.
func TestSameSeedSameWork(t *testing.T) {
	counts := []string{"core.corrected_values", "cluster.passes", "cluster.tasks", "tracestore.bytes_written"}
	for _, name := range slices.Sorted(maps.Keys(workloads)) {
		t.Run(name, func(t *testing.T) {
			a, _ := tracedOp(t, name, 7, 1)
			b, _ := tracedOp(t, name, 7, 1)
			for _, c := range counts {
				if a.layer[c] != b.layer[c] {
					t.Errorf("%s: %s %v then %v on the same seed", name, c, a.layer[c], b.layer[c])
				}
			}
			if a.verified != b.verified || a.refused != b.refused {
				t.Errorf("%s: outcome verified=%v refused=%v then verified=%v refused=%v",
					name, a.verified, a.refused, b.verified, b.refused)
			}
			if !a.verified {
				t.Errorf("%s: op not verified (refused=%v)", name, a.refused)
			}
		})
	}
}

// A different workload seed gives different inputs: another victim and
// corpus in capture-n64, another forged message in campaign-fleet-n16.
func TestSeedChangesInputs(t *testing.T) {
	if a, b := (&fleetInst{seed: 1}).spec(0), (&fleetInst{seed: 2}).spec(0); a.Message == b.Message {
		t.Errorf("campaign-fleet-n16: seeds 1 and 2 post the same message %q", a.Message)
	}

	first := func(seed uint64) obsSum {
		inst, err := setupCapture(config{seed: seed}, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c := inst.(*captureInst)
		o, err := emleak.ObservationAt(c.dev, c.seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		var s obsSum
		s.add(o)
		return s
	}
	if a, b := first(1), first(2); a == b {
		t.Errorf("capture-n64: seeds 1 and 2 give the same first observation (checksum %x)", a.hash)
	}
}

// Self time subtracts the union of child spans; coverage names the gaps.
func TestSelfTimeAndCoverage(t *testing.T) {
	tr := newTracer()
	at := func(s float64) time.Time { return tr.t0.Add(time.Duration(s * float64(time.Second))) }
	tr.beginOp(0)
	tr.mu.Lock()
	tr.opT0 = at(0)
	tr.mu.Unlock()
	root := tr.root()
	parent := tr.add(root, "a", at(0), at(4))
	tr.add(parent, "child", at(1), at(2))
	tr.add(parent, "child", at(1.5), at(3))
	tr.add(root, "b", at(5), at(10))
	tr.record(root, 0, "op", at(0), at(10))

	self := tr.selfTimes()
	if got := self["a"]; got[0] != 4 || got[1] != 2 {
		t.Errorf("span a: total %v self %v, want 4 and 2", got[0], got[1])
	}
	tr.add(root, "empty", at(4), at(4))
	cov, gaps, missing := tr.coverage([]string{"a", "b", "empty", "absent"})
	if cov != 0.9 {
		t.Errorf("coverage %v, want 0.9", cov)
	}
	if g := gaps["between a and b"]; g != 1 {
		t.Errorf("gaps %v, want 1s between a and b", gaps)
	}
	if want := map[string]int{"empty": 1, "absent": 1}; !maps.Equal(missing, want) {
		t.Errorf("missing %v, want %v", missing, want)
	}
}

// The per-layer table and the end-to-end metrics match BENCHMARK.json,
// name for name and unit for unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var table []entry
	for _, m := range perLayerMetrics {
		table = append(table, entry{m.name, m.unit})
	}
	if !slices.Equal(table, spec.PerLayer) {
		t.Errorf("per-layer metrics differ from BENCHMARK.json:\n table %v\n  json %v", table, spec.PerLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := slices.Sorted(maps.Keys(workloads)); !slices.Equal(got, slices.Sorted(slices.Values(names))) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", got, names)
	}

	// An untraced run prints exactly the end-to-end metrics, in their units.
	res, err := run(workloads["capture-n64"], config{name: "capture-n64", seed: 1, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for name, m := range res.Metrics {
		got[name] = m.Unit
	}
	want := map[string]string{}
	for _, m := range spec.EndToEnd {
		want[m.Name] = m.Unit
	}
	if !maps.Equal(got, want) {
		t.Errorf("untraced run prints %v, BENCHMARK.json lists %v", got, want)
	}
}
