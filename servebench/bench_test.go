package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"logicblox"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks
// results against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tiny returns workload name at sizes small enough for a test.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w := workloads()[name]
	if w == nil {
		t.Fatalf("BENCHMARK.json names workload %q, the benchmark has none", name)
	}
	switch s := w.spec.(type) {
	case *inventory:
		w.spec = &inventory{products: 4 * groupSize, joinReadsStock: s.joinReadsStock}
	case *ruleBlocks:
		w.spec = &ruleBlocks{nblocks: 3, keys: 8, selections: 2}
	}
	w.tailCommits, w.heapCommits, w.recoveries = 3, 3, 2
	w.warmCommits, w.roundCommits = 2, 200
	return w
}

func tinyOptions(t *testing.T, trace bool) options {
	o := defaultOptions()
	o.seed, o.seconds, o.trace = 7, 1, trace
	o.setups = 2
	o.workDir = t.TempDir()
	// Tiny requests take a fraction of a millisecond, so the handler's
	// routing outside the program's spans is a larger share of them.
	o.traceTolerance = 0.2
	return o
}

func runTiny(t *testing.T, w *workload, o options) *result {
	t.Helper()
	var out bytes.Buffer
	res, err := run(o, w, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", w.name, err, out.String())
	}
	if !res.Correct || testing.Verbose() {
		t.Log(out.String())
	}
	return res
}

// TestEveryMetricReported runs every workload of BENCHMARK.json at tiny
// sizes, untraced and traced, and checks that each reports exactly the
// metrics BENCHMARK.json names, with their units, and that its answers
// pass their checks.
func TestEveryMetricReported(t *testing.T) {
	logicblox.EnableStorageStats(true)
	bf := readBenchmarkFile(t)
	for _, wl := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, tiny(t, wl.Name), tinyOptions(t, trace))
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptAnswerCaught shows that a wrong query answer fails the
// run: one point lookup's value is altered before it is checked.
func TestCorruptAnswerCaught(t *testing.T) {
	o := tinyOptions(t, false)
	corrupted := false
	o.corrupt = func(rows [][]int64) [][]int64 {
		if !corrupted && len(rows) == 1 && len(rows[0]) == 1 {
			corrupted = true
			rows[0][0] += 1000
		}
		return rows
	}
	res := runTiny(t, tiny(t, "rules-durable-replica"), o)
	if !corrupted {
		t.Fatal("no answer was corrupted")
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted answer not caught: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestModelCandidates pins which values a read may return around
// concurrent writes.
func TestModelCandidates(t *testing.T) {
	m := newModel([]int{5})
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	w1 := &write{val: 10, start: at(1), end: at(2), ver: 7, state: acked}
	w2 := &write{val: 20, start: at(3), end: at(9), ver: 8, state: acked}
	w3 := &write{val: 30, start: at(4), state: pending}
	w4 := &write{val: 40, start: at(4), end: at(5), state: refused}
	m.keys[0] = []*write{w1, w2, w3, w4}
	for _, c := range []struct {
		ts, te int
		want   []int
	}{
		{0, 1, []int{5}},          // before any write
		{0, 3, []int{5, 10}},      // racing w1; w2 and w3 not yet sent
		{3, 4, []int{10, 20}},     // w1 acked before the read; w2 in flight
		{10, 11, []int{20, 30}},   // w2 acked; w3 in flight; w4 refused
		{2, 3, []int{5, 10}},      // w1's ack at 2 is not before ts=2
		{0, 0, []int{5}},          // nothing sent before te
		{100, 100, []int{20, 30}}, // settled
	} {
		got := m.cands(0, at(c.ts), at(c.te))
		if !sameInts(got, c.want) {
			t.Errorf("cands(%d, %d) = %v, want %v", c.ts, c.te, got, c.want)
		}
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[int]int{}
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		seen[x]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return true
}
