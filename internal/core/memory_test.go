package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"logicblox/internal/tuple"
)

// TestUnchangedViewsShared is the memory-regression gate for structural
// sharing of derived views. Every commit upserts one stock value, which
// re-derives a few-thousand-tuple view that reads stock but not its
// values, so the view never changes. Every version stays reachable from
// the database history, so a version that kept a private copy of the
// view would grow the heap by the view's size per commit; a shared view
// costs each commit only the O(log n) path copies of its base write.
// The join case covers the non-recursive store, the reach case a
// recursive stratum.
func TestUnchangedViewsShared(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-profile test; skipped in -short")
	}
	const (
		commits  = 100
		maxSlope = 64 << 10 // retained heap bytes per commit
	)
	cases := []struct {
		name, view, logic string
		seed              func(b *strings.Builder)
		want              int
	}{
		{
			name: "join", view: "pair",
			logic: `stock[p] = q -> int(p), int(q).
				grp[p] = g -> int(p), int(g).
				pair(p, r) <- grp[p] = g, grp[r] = g, stock[p] = _, stock[r] = _, p < r.`,
			// 400 products in groups of 16: 25 groups of 120 pairs.
			seed: func(b *strings.Builder) {
				for p := 0; p < 400; p++ {
					fmt.Fprintf(b, "+stock[%d] = 1. +grp[%d] = %d.\n", p, p, p/16)
				}
			},
			want: 25 * 120,
		},
		{
			name: "reach", view: "reach",
			logic: `stock[p] = q -> int(p), int(q).
				next[p] = r -> int(p), int(r).
				reach(p, r) <- next[p] = r, stock[p] = _.
				reach(p, r) <- reach(p, m), next[m] = r.`,
			// A chain of 80 nodes: its closure has 79·80/2 pairs.
			seed: func(b *strings.Builder) {
				for p := 0; p < 80; p++ {
					fmt.Fprintf(b, "+stock[%d] = 1.\n", p)
					if p < 79 {
						fmt.Fprintf(b, "+next[%d] = %d.\n", p, p+1)
					}
				}
			},
			want: 79 * 80 / 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := NewDatabase()
			ws, err := db.Workspace(DefaultBranch)
			if err != nil {
				t.Fatal(err)
			}
			if ws, err = ws.AddBlock("schema", tc.logic); err != nil {
				t.Fatal(err)
			}
			var seed strings.Builder
			tc.seed(&seed)
			res, err := ws.Exec(seed.String())
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Commit(DefaultBranch, res.Workspace); err != nil {
				t.Fatal(err)
			}
			if n := res.Workspace.Relation(tc.view).Len(); n != tc.want {
				t.Fatalf("%s has %d tuples, want %d", tc.view, n, tc.want)
			}
			upsert := func(i int) {
				head, err := db.Workspace(DefaultBranch)
				if err != nil {
					t.Fatal(err)
				}
				src := fmt.Sprintf("^stock[%d] = %d.", i%40, i+2)
				res, err := head.Exec(src)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.CommitIf(DefaultBranch, head, res.Workspace, CommitRecord{Kind: "exec", Src: src}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 10; i++ {
				upsert(i)
			}
			before := liveHeap()
			for i := 10; i < 10+commits; i++ {
				upsert(i)
			}
			after := liveHeap()
			slope := (int64(after) - int64(before)) / commits
			t.Logf("%s: %d versions retained, %d B live heap per commit", tc.view, db.Versions(), slope)
			if slope > maxSlope {
				t.Errorf("live heap grew %d B per commit (bound %d): the unchanged %s view is not shared across versions", slope, maxSlope, tc.view)
			}
			head, _ := db.Workspace(DefaultBranch)
			first, _ := db.VersionAt(1)
			if !head.Relation(tc.view).Equal(first.Workspace.Relation(tc.view)) {
				t.Fatalf("%s changed across the upserts", tc.view)
			}
		})
	}
}

// liveHeap returns the heap bytes still reachable after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestLoadChecksConstraints pins that Load is a transaction like any
// other: a load that leaves an integrity constraint violated aborts.
// Before, Load skipped the check, and Save then wrote a state that
// LoadDatabase rejected as corrupt.
func TestLoadChecksConstraints(t *testing.T) {
	ws, err := NewWorkspace().AddBlock("k", `p(x) -> q(x).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Load("p", []tuple.Tuple{tuple.Ints(1)}); !errors.Is(err, ErrConstraint) {
		t.Fatalf("load violating p(x) -> q(x) = %v, want ErrConstraint", err)
	}
	// Loading in the constraint's direction succeeds and round-trips.
	if ws, err = ws.Load("q", []tuple.Tuple{tuple.Ints(1)}); err != nil {
		t.Fatal(err)
	}
	if ws, err = ws.Load("p", []tuple.Tuple{tuple.Ints(1)}); err != nil {
		t.Fatal(err)
	}
	db := NewDatabaseWith(ws)
	var buf strings.Builder
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDatabase(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("LoadDatabase of a saved state: %v", err)
	}
	got, _ := back.Workspace(DefaultBranch)
	if got.Relation("p").Len() != 1 || got.Relation("q").Len() != 1 {
		t.Fatalf("restored p=%v q=%v", got.Relation("p").Slice(), got.Relation("q").Slice())
	}
}
