package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// TestExecCtxDeadlineStopsFixpoint gives a transaction whose fixpoint
// would derive 50M facts a 50ms budget; the engine must notice the
// deadline at an iteration boundary and abort quickly.
func TestExecCtxDeadlineStopsFixpoint(t *testing.T) {
	ws := mustAddBlock(t, NewWorkspace(), "rec", `
		m(x) <- seed(x).
		m(y) <- m(x), x < 50000000, y = x + 1.`)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := ws.ExecCtx(ctx, `+seed(0).`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("fixpoint ignored the deadline: %v", elapsed)
	}
}

func TestQueryCtxCancel(t *testing.T) {
	ws := mustAddBlock(t, NewWorkspace(), "rec", `
		m(x) <- seed(x).
		m(y) <- m(x), x < 50000000, y = x + 1.`)
	res := mustExec(t, ws, `+one(1).`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the query must not run to completion
	if _, err := res.QueryCtx(ctx, `_(y) <- one(x), seed(x), m(y).`); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// TestTypedErrors checks every failure mode carries its sentinel through
// errors.Is, so callers (and the HTTP layer) never match message text.
func TestTypedErrors(t *testing.T) {
	ws := mustAddBlock(t, NewWorkspace(), "b", `d(x) <- s(x).`)
	db := NewDatabase()

	if _, err := ws.Exec(`+p(1`); !errors.Is(err, ErrParse) {
		t.Errorf("parse: %v", err)
	}
	if _, err := ws.Query(`_(`); !errors.Is(err, ErrParse) {
		t.Errorf("query parse: %v", err)
	}
	if _, err := ws.Exec(`+d(1).`); !errors.Is(err, ErrTypecheck) {
		t.Errorf("write to derived: %v", err)
	}
	if _, err := ws.AddBlock("bad", `a(x) <- b(y), x < y.`); !errors.Is(err, ErrTypecheck) {
		t.Errorf("unbound head var: %v", err)
	}
	if _, err := ws.AddBlock("b", `e(x) <- s(x).`); !errors.Is(err, ErrConflict) {
		t.Errorf("duplicate block: %v", err)
	}
	if _, err := db.Workspace("nope"); !errors.Is(err, ErrNoSuchBranch) {
		t.Errorf("unknown branch: %v", err)
	}
	if err := db.Branch("main", "main"); !errors.Is(err, ErrBranchExists) {
		t.Errorf("duplicate branch: %v", err)
	}

	cws := mustAddBlock(t, NewWorkspace(), "c", `
		Stock[p] = v -> float(v).
		maxStock[p] = v -> float(v).
		Stock[p] = v, maxStock[p] = m -> v <= m.`)
	cres := mustExec(t, cws, `+maxStock["a"] = 10.0. +Stock["a"] = 5.0.`)
	if _, err := cres.Exec(`^Stock["a"] = 50.0.`); !errors.Is(err, ErrConstraint) {
		t.Errorf("constraint violation: %v", err)
	}
}

// TestCommitIf checks the compare-and-swap commit: it succeeds only when
// the branch head is still the transaction's snapshot.
func TestCommitIf(t *testing.T) {
	db := NewDatabase()
	head, _ := db.Workspace(DefaultBranch)

	// Two transactions execute against the same head.
	a, err := head.Exec(`+p(1).`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := head.Exec(`+p(2).`)
	if err != nil {
		t.Fatal(err)
	}

	if err := db.CommitIf(DefaultBranch, head, a.Workspace, CommitRecord{Kind: "exec", Src: `+p(1).`}); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	if err := db.CommitIf(DefaultBranch, head, b.Workspace, CommitRecord{Kind: "exec", Src: `+p(2).`}); !errors.Is(err, ErrConflict) {
		t.Fatalf("second commit = %v, want ErrConflict", err)
	}
	// The loser re-executes against the new head (coarse repair) and wins.
	head2, _ := db.Workspace(DefaultBranch)
	b2, err := head2.Exec(`+p(2).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CommitIf(DefaultBranch, head2, b2.Workspace, CommitRecord{Kind: "exec", Src: `+p(2).`}); err != nil {
		t.Fatalf("repaired commit: %v", err)
	}
	ws, _ := db.Workspace(DefaultBranch)
	if ws.Relation("p").Len() != 2 {
		t.Fatalf("p = %v", ws.Relation("p").Slice())
	}
	if err := db.CommitIf("nope", head2, b2.Workspace, CommitRecord{Kind: "exec", Src: `+p(2).`}); !errors.Is(err, ErrNoSuchBranch) {
		t.Fatalf("unknown branch = %v", err)
	}
}

// TestSavePersistsPlanStore round-trips a database running the adaptive
// optimizer through Save/LoadDatabase: the restored workspace must still
// be adaptive and its plan store must be seeded with the saved plans
// (keyed by structural rule fingerprints, which survive recompilation).
func TestSavePersistsPlanStore(t *testing.T) {
	db := NewDatabaseWith(NewWorkspace().WithAdaptiveOptimizer(true))
	head, _ := db.Workspace(DefaultBranch)
	head = mustAddBlock(t, head, "tc", `
		path(x, y) <- edge(x, y).
		path(x, z) <- path(x, y), edge(y, z).`)
	res, err := head.Exec(`+edge(1, 2). +edge(2, 3). +edge(3, 4).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(DefaultBranch, res.Workspace); err != nil {
		t.Fatal(err)
	}
	ps := res.Workspace.PlanStore()
	if ps == nil || len(ps.Snapshot()) == 0 {
		t.Fatalf("no plans cached before save (store=%v)", ps)
	}
	want := len(ps.Snapshot())

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := restored.Workspace(DefaultBranch)
	rps := ws.PlanStore()
	if rps == nil {
		t.Fatal("restored workspace lost its plan store")
	}
	if got := len(rps.Snapshot()); got != want {
		t.Fatalf("restored plans = %d, want %d", got, want)
	}
	// The restored database keeps optimizing new transactions.
	if _, err := ws.Exec(`+edge(4, 5).`); err != nil {
		t.Fatal(err)
	}
}

// TestDataFirstLiveProgramming regresses an arity bug: facts inserted
// before any logic mentions their predicate used to materialize with
// arity 1 (the default of Workspace.Relation for unknown predicates),
// making a later AddBlock over that data fail inside the LFTJ. The
// paper's live-programming story is explicitly logic-after-data.
func TestDataFirstLiveProgramming(t *testing.T) {
	ws := NewWorkspace()
	res := mustExec(t, ws, `+edge(1, 2). +edge(2, 3).`)
	if got := res.Relation("edge").Arity(); got != 2 {
		t.Fatalf("edge arity = %d, want 2", got)
	}
	ws = mustAddBlock(t, res, "tc", `
		path(x, y) <- edge(x, y).
		path(x, z) <- path(x, y), edge(y, z).`)
	rows, err := ws.Query(`_(x, y) <- path(x, y).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("path over pre-existing data = %v", rows)
	}
}
