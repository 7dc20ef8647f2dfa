package core

import (
	"context"
	"strings"
	"testing"

	"logicblox/internal/obs"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// TestTransactionSpansAndCounters drives a workspace through addblock,
// exec, and query transactions with an observer attached and checks the
// outcome counters, duration histograms, and phase span trees.
func TestTransactionSpansAndCounters(t *testing.T) {
	reg := obs.NewRegistry()
	ws := NewWorkspace().WithObserver(reg)
	if ws.Observer() != reg {
		t.Fatal("WithObserver not visible")
	}

	ws, err := ws.AddBlock("b", `
		path(x, y) <- edge(x, y).
		path(x, z) <- path(x, y), edge(y, z).`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ws.Exec(`+edge(1, 2). +edge(2, 3).`)
	if err != nil {
		t.Fatal(err)
	}
	ws = res.Workspace
	if ws.Observer() != reg {
		t.Fatal("observer lost across transactions")
	}
	rows, err := ws.Query(`_(x, y) <- path(x, y).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("closure = %v", rows)
	}

	s := reg.Snapshot()
	for _, c := range []string{"tx.addblock.commit", "tx.exec.commit", "tx.query.commit"} {
		if s.Counters[c] != 1 {
			t.Fatalf("counter %s = %d, want 1: %v", c, s.Counters[c], s.Counters)
		}
	}
	for _, h := range []string{"tx.addblock.duration", "tx.exec.duration", "tx.query.duration"} {
		if s.Histograms[h].Count != 1 {
			t.Fatalf("histogram %s count = %d, want 1", h, s.Histograms[h].Count)
		}
	}
	if s.Counters["core.rederive.rules_evaluated"] == 0 {
		t.Fatalf("no rederive evaluations counted: %v", s.Counters)
	}
	if len(s.Rules) == 0 {
		t.Fatal("no rule profiles recorded")
	}

	// The exec trace must contain the pipeline phases, with rederive
	// holding the engine's stratum spans.
	var exec *obs.SpanSnapshot
	for i := range s.Traces {
		if s.Traces[i].Name == "tx.exec" {
			exec = &s.Traces[i]
		}
	}
	if exec == nil {
		t.Fatalf("no tx.exec trace: %+v", s.Traces)
	}
	phases := map[string]bool{}
	for _, c := range exec.Children {
		phases[c.Name] = true
	}
	for _, want := range []string{"parse", "compile", "eval.reactive", "frame", "rederive", "constraints"} {
		if !phases[want] {
			t.Fatalf("tx.exec missing phase %q: %v", want, phases)
		}
	}
	tree := obs.FormatSpanTree(*exec)
	if !strings.Contains(tree, "rederive") || !strings.Contains(tree, "base_ins=2") {
		t.Fatalf("span tree missing expected content:\n%s", tree)
	}
}

// TestWritePathSpans pins the phase spans of the other write paths:
// addblock, repair replay and the parse-free Insert all end in settle,
// whose rederive and constraints spans are direct children of the
// transaction span (per-layer latency breakdowns key on these names).
func TestWritePathSpans(t *testing.T) {
	reg := obs.NewRegistry()
	ws, err := NewWorkspace().WithObserver(reg).AddBlock("b", `v(x) <- a(x), c(x).`)
	if err != nil {
		t.Fatal(err)
	}
	_, rec, err := ws.ExecRecorded(`+a(1).`)
	if err != nil {
		t.Fatal(err)
	}
	win, err := ws.Exec(`+c(2).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rec.Repair(context.Background(), win.Workspace); err != nil {
		t.Fatal(err)
	}
	if _, err := win.Workspace.Insert("c", tuple.Ints(3)); err != nil {
		t.Fatal(err)
	}
	last := map[string]obs.SpanSnapshot{}
	for _, tr := range reg.Snapshot().Traces {
		last[tr.Name] = tr // the final tx.exec is the Insert
	}
	for name, phases := range map[string][]string{
		"tx.addblock": {"compile", "analyze", "rederive", "constraints"},
		"tx.repair":   {"eval.reactive", "frame", "rederive", "constraints"},
		"tx.exec":     {"frame", "rederive", "constraints"},
	} {
		tr, ok := last[name]
		if !ok {
			t.Fatalf("no %s trace", name)
		}
		got := map[string]bool{}
		for _, c := range tr.Children {
			got[c.Name] = true
		}
		for _, p := range phases {
			if !got[p] {
				t.Errorf("%s missing phase %q: %v", name, p, got)
			}
		}
	}
}

// TestAbortCounted checks that a constraint violation records an abort,
// not a commit.
func TestAbortCounted(t *testing.T) {
	reg := obs.NewRegistry()
	ws := NewWorkspace().WithObserver(reg)
	ws, err := ws.AddBlock("b", `
		p(x) -> int(x).
		p(x) -> x > 0.`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Exec(`+p(-1).`); err == nil {
		t.Fatal("expected constraint violation")
	}
	s := reg.Snapshot()
	if s.Counters["tx.exec.abort"] != 1 || s.Counters["tx.exec.commit"] != 0 {
		t.Fatalf("abort/commit = %d/%d: %v",
			s.Counters["tx.exec.abort"], s.Counters["tx.exec.commit"], s.Counters)
	}
}

// TestStorageGaugesRefreshed checks that transactions refresh the treap
// gauges when storage stats are enabled.
func TestStorageGaugesRefreshed(t *testing.T) {
	relation.ResetStorageStats()
	relation.EnableStorageStats(true)
	defer relation.EnableStorageStats(false)

	reg := obs.NewRegistry()
	ws := NewWorkspace().WithObserver(reg)
	ws, err := ws.AddBlock("b", `q(x) <- p(x).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Exec(`+p(1). +p(2). +p(3).`); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Gauges["treap.nodes_allocated"] == 0 {
		t.Fatalf("treap.nodes_allocated gauge not refreshed: %v", s.Gauges)
	}
}

// TestNoObserverNoRecording checks the default path records nothing.
func TestNoObserverNoRecording(t *testing.T) {
	ws := NewWorkspace()
	if ws.Observer() != nil {
		t.Fatal("fresh workspace has an observer")
	}
	ws, err := ws.AddBlock("b", `q(x) <- p(x).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Exec(`+p(1).`); err != nil {
		t.Fatal(err)
	}
}
