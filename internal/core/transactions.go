package core

import (
	"context"
	"fmt"

	"logicblox/internal/ast"
	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/lftj"
	"logicblox/internal/meta"
	"logicblox/internal/obs"
	"logicblox/internal/parser"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// AddBlock installs a named block of logic (an addblock transaction,
// paper §2.2.2). The meta-engine determines which derived predicates the
// change dirties; only those are re-materialized (live programming,
// §3.3).
func (ws *Workspace) AddBlock(name, src string) (*Workspace, error) {
	return ws.AddBlockCtx(context.Background(), name, src)
}

// AddBlockCtx is AddBlock bounded by a context: cancellation or deadline
// expiry stops the re-materialization at the next rule or fixpoint-round
// boundary.
func (ws *Workspace) AddBlockCtx(rctx context.Context, name, src string) (*Workspace, error) {
	if ws.blocks.Contains(name) {
		return nil, fmt.Errorf("block %s already installed: %w", name, ErrConflict)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("block %s: %w: %w", name, ErrParse, err)
	}
	newParsed := ws.parsedBlocks()
	newParsed[name] = prog
	return ws.reinstall(rctx, name, src, prog, newParsed)
}

// RemoveBlock uninstalls a block, restoring the workspace logic to its
// state before the corresponding AddBlock.
func (ws *Workspace) RemoveBlock(name string) (*Workspace, error) {
	if !ws.blocks.Contains(name) {
		return nil, fmt.Errorf("block %s is not installed", name)
	}
	newParsed := ws.parsedBlocks()
	delete(newParsed, name)
	return ws.reinstall(context.Background(), name, "", nil, newParsed)
}

// reinstall recompiles the workspace logic after a block change and
// re-materializes exactly the dirty predicates.
func (ws *Workspace) reinstall(rctx context.Context, name, src string, parsed *ast.Program, newParsed map[string]*ast.Program) (*Workspace, error) {
	sp, done := ws.txSpan(rctx, "addblock")
	out, err := ws.reinstallTraced(rctx, name, src, parsed, newParsed, sp)
	done(err)
	return out, err
}

func (ws *Workspace) reinstallTraced(rctx context.Context, name, src string, parsed *ast.Program, newParsed map[string]*ast.Program, sp *obs.Span) (*Workspace, error) {
	csp := sp.Child("compile")
	compiled, err := compileBlocks(newParsed)
	csp.End()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTypecheck, err)
	}
	asp := sp.Child("analyze")
	analysis, err := meta.Analyze(ws.parsedBlocks(), newParsed)
	asp.End()
	if err != nil {
		return nil, err
	}

	out := ws.clone()
	if parsed == nil {
		out.blocks = out.blocks.Delete(name)
		out.parsed = out.parsed.Delete(name)
	} else {
		out.blocks = out.blocks.Set(name, src)
		out.parsed = out.parsed.Set(name, parsed)
	}
	out.prog = compiled

	// Drop predicates that lost all their rules, and prune stored results
	// of removed rules.
	valid := map[string]bool{}
	for _, r := range compiled.Rules {
		valid[ruleKey(r)] = true
	}
	for _, stratum := range compiled.Strata {
		for _, r := range stratum {
			valid[stratumKey(r.HeadName)] = true
		}
	}
	for _, key := range out.ruleRes.Keys() {
		if !valid[key] {
			out.ruleRes = out.ruleRes.Delete(key)
		}
	}
	for _, p := range analysis.DropPreds {
		out.derived = out.derived.Delete(p)
	}

	dirty := map[string]bool{}
	for _, p := range analysis.DirtyPreds {
		dirty[p] = true
	}
	for _, p := range analysis.DropPreds {
		dirty[p] = true // downstream readers of a dropped view must see it empty
	}
	// A schema change invalidates every cached plan that reads or derives
	// an affected predicate, so the adaptive optimizer re-samples against
	// the new logic instead of trusting stale orders.
	out.plans.InvalidatePreds(dirty)
	return out.settle(rctx, dirty, sp)
}

// ExecResult reports what an exec transaction changed.
type ExecResult struct {
	Workspace *Workspace
	// BaseDeltas lists insertions and deletions per base predicate.
	BaseDeltas map[string]ExecDelta
}

// ExecDelta is the per-predicate effect of an exec transaction.
type ExecDelta struct {
	Ins, Del []tuple.Tuple
}

// Exec runs an exec transaction (paper §2.2.2): src contains reactive
// logic — delta facts and reactive rules over +R, -R, ^R and R@start.
// The pipeline is:
//
//  1. seed R@start with the current contents of every predicate;
//  2. evaluate the reactive rules (stratified over decorated names);
//  3. expand ^R upserts into +R / -R pairs;
//  4. apply the system frame rules R := (R@start − (-R)) ∪ (+R);
//  5. re-derive affected views and check integrity constraints.
//
// On constraint violation the transaction aborts: the receiver workspace
// is untouched (it is just a value) and an error is returned.
func (ws *Workspace) Exec(src string) (*ExecResult, error) {
	return ws.ExecCtx(context.Background(), src)
}

// ExecCtx is Exec bounded by a context: cancellation or deadline expiry
// stops the reactive evaluation and view re-derivation at the next rule
// or fixpoint-round boundary, and the transaction aborts with ctx.Err()
// wrapped (the receiver workspace is untouched, as for any abort).
func (ws *Workspace) ExecCtx(rctx context.Context, src string) (*ExecResult, error) {
	return ws.exec(rctx, src, nil)
}

// exec is the body of ExecCtx and ExecRecordedCtx: the reactive phase
// (recording into rec when it is non-nil), then the frame step and
// settle, under one tx.exec span.
func (ws *Workspace) exec(rctx context.Context, src string, rec *ExecRecord) (*ExecResult, error) {
	sp, done := ws.txSpan(rctx, "exec")
	run, err := ws.execReactive(rctx, src, sp, rec)
	var res *ExecResult
	if err == nil {
		res, err = ws.applyReactive(rctx, run, sp)
	}
	done(err)
	return res, err
}

// reactiveRun is the outcome of an exec transaction's reactive phase
// against one workspace snapshot: the combined program, the evaluation
// context holding the post-reactive delta relations, and the pure
// derivations per head predicate (the union of every rule-evaluation
// output, independent of what the heads were seeded with).
type reactiveRun struct {
	combined *compiler.Program
	ctx      *engine.Context
	derived  map[string]relation.Relation
}

// seedExecCtx builds the engine context for an exec transaction's
// reactive phase over ws: current contents plus @start versions.
func (ws *Workspace) seedExecCtx(rctx context.Context, combined *compiler.Program) *engine.Context {
	ctx := engine.NewContext(combined, ws.relations(), engine.Options{Models: ws.models, Optimize: ws.optimize, Plans: ws.plans, Obs: ws.Observer(), Ctx: rctx})
	for p, info := range combined.Preds {
		// relationOr, not Relation: a predicate first introduced by this
		// transaction is unknown to ws.prog, and defaulting its @start
		// arity would corrupt the delta application below.
		ctx.Set(p+compiler.DecorAtStart, ws.relationOr(p, info.Arity))
	}
	return ctx
}

// execReactive parses, compiles and evaluates the reactive strata of an
// exec transaction against ws. When rec is non-nil it additionally
// records, per reactive stratum, the sensitivity intervals of every read
// and the pure derivations of every rule — the read/derivation record
// that ExecRecord.Repair replays against a different head on commit
// conflict (paper §3.4).
func (ws *Workspace) execReactive(rctx context.Context, src string, sp *obs.Span, rec *ExecRecord) (*reactiveRun, error) {
	psp := sp.Child("parse")
	eprog, err := parser.Parse(src)
	psp.End()
	if err != nil {
		return nil, fmt.Errorf("exec %w: %w", ErrParse, err)
	}
	csp := sp.Child("compile")
	combined, err := compileBlocks(ws.parsedBlocks(), eprog)
	csp.End()
	if err != nil {
		return nil, fmt.Errorf("exec %w: %w", ErrTypecheck, err)
	}
	ctx := ws.seedExecCtx(rctx, combined)
	run := &reactiveRun{combined: combined, ctx: ctx, derived: map[string]relation.Relation{}}

	// Evaluate reactive strata.
	esp := sp.Child("eval.reactive")
	ctx.SetSpan(esp)
	for _, stratum := range combined.ReactiveStrata {
		var idx *lftj.SensitivityIndex
		if rec != nil {
			idx = lftj.NewSensitivityIndex()
			ctx.SetSensitivityIndex(idx)
		}
		ctx.StartDerivedCapture()
		err := ctx.EvalStratum(stratum)
		capt := ctx.TakeDerivedCapture()
		if rec != nil {
			ctx.SetSensitivityIndex(nil)
		}
		if err != nil {
			esp.End()
			return nil, fmt.Errorf("exec: %w", err)
		}
		if rec != nil {
			rec.strata = append(rec.strata, recordedStratum{sens: idx, derived: capt})
		}
		mergeDerived(run.derived, capt)
	}
	ctx.SetSpan(nil)
	esp.End()
	if rec != nil {
		rec.combined = combined
	}
	return run, nil
}

// mergeDerived unions src's per-head derivations into dst.
func mergeDerived(dst, src map[string]relation.Relation) {
	for h, r := range src {
		if cur, ok := dst[h]; ok {
			dst[h] = cur.Union(r)
		} else {
			dst[h] = r
		}
	}
}

// applyReactive finishes an exec transaction against the receiver: it
// expands ^R upserts, applies the frame rules R := (R@start − (-R)) ∪ (+R),
// merges plain-headed reactive derivations into their head predicates,
// then settles (re-derives affected views and checks integrity
// constraints). run's context must have been seeded from the receiver
// (its @start relations are the receiver's contents) — either by
// execReactive on this workspace, or by ExecRecord replay onto a new
// head.
func (ws *Workspace) applyReactive(rctx context.Context, run *reactiveRun, sp *obs.Span) (*ExecResult, error) {
	combined, ctx := run.combined, run.ctx
	fsp := sp.Child("frame")
	// Expand ^R upserts: replace the functional value for the key, i.e.
	// delete the old binding (if different) and insert the new one.
	for p, info := range combined.Preds {
		hat := ctx.Relation(compiler.DecorHat + p)
		if hat.IsEmpty() {
			continue
		}
		plus := ctx.Relation(compiler.DecorPlus + p)
		minus := ctx.Relation(compiler.DecorMinus + p)
		start := ctx.Relation(p + compiler.DecorAtStart)
		hat.ForEach(func(t tuple.Tuple) bool {
			if info.Functional && info.Arity >= 2 {
				if old, ok := start.FuncGet(t[:info.Arity-1]); ok && !tuple.Equal(old, t[info.Arity-1]) {
					minus = minus.Insert(append(t[:info.Arity-1].Clone(), old))
				}
			}
			plus = plus.Insert(t)
			return true
		})
		ctx.Set(compiler.DecorPlus+p, plus)
		ctx.Set(compiler.DecorMinus+p, minus)
	}

	// Apply frame rules to every predicate with a non-empty delta.
	f := ws.newFrame()
	for p, info := range combined.Preds {
		plus := ctx.Relation(compiler.DecorPlus + p)
		minus := ctx.Relation(compiler.DecorMinus + p)
		if plus.IsEmpty() && minus.IsEmpty() {
			continue
		}
		if !info.EDB {
			fsp.End()
			return nil, errDerivedWrite(p)
		}
		f.apply(p, ctx.Relation(p+compiler.DecorAtStart), plus, minus)
	}

	// Plain-headed reactive rules (e.g. audit logs fed by +R) insert their
	// pure derivations into their extensional head predicates. Using the
	// captured derivations (rather than the context's head content, which
	// also holds the head's seed) keeps the merge independent of what the
	// receiver already stored — a frame deletion of a head tuple survives
	// unless the transaction actually re-derived it.
	seen := map[string]bool{}
	for _, stratum := range combined.ReactiveStrata {
		for _, r := range stratum {
			head := r.HeadName
			if compiler.BaseName(head) != head || seen[head] {
				continue
			}
			seen[head] = true
			if derivedRel, ok := run.derived[head]; ok && !derivedRel.IsEmpty() {
				f.apply(head, f.out.relationOr(head, derivedRel.Arity()), derivedRel, relation.New(derivedRel.Arity()))
			}
		}
	}
	fsp.End()
	return f.settle(rctx, sp)
}

// frame is the base side of one write transaction: a clone of the
// receiver whose base predicates the frame rules update, with the
// per-predicate deltas and the dirty set settle starts from.
type frame struct {
	parent, out *Workspace
	deltas      map[string]ExecDelta
	dirty       map[string]bool
}

func (ws *Workspace) newFrame() *frame {
	return &frame{parent: ws, out: ws.clone(), deltas: map[string]ExecDelta{}, dirty: map[string]bool{}}
}

// apply is the per-predicate frame rule R := (start − minus) ∪ plus for
// base predicate p. A change is stored, appended to p's delta and marks
// p dirty; a write that leaves R as it was is dropped.
func (f *frame) apply(p string, start, plus, minus relation.Relation) {
	next := start.Difference(minus).Union(plus)
	if next.Equal(start) {
		return
	}
	d := f.deltas[p]
	start.Diff(next,
		func(t tuple.Tuple) { d.Del = append(d.Del, t) },
		func(t tuple.Tuple) { d.Ins = append(d.Ins, t) })
	f.deltas[p] = d
	f.out.base = f.out.base.Set(p, next)
	f.dirty[p] = true
}

// settle records the frame's delta sizes on sp and settles the changed
// workspace. A frame that changed nothing yields the parent itself.
func (f *frame) settle(rctx context.Context, sp *obs.Span) (*ExecResult, error) {
	var ins, del int64
	for _, d := range f.deltas {
		ins += int64(len(d.Ins))
		del += int64(len(d.Del))
	}
	sp.SetAttr("base_ins", ins)
	sp.SetAttr("base_del", del)
	if len(f.dirty) == 0 {
		return &ExecResult{Workspace: f.parent, BaseDeltas: f.deltas}, nil
	}
	res, err := f.out.settle(rctx, f.dirty, sp)
	if err != nil {
		return nil, err
	}
	return &ExecResult{Workspace: res, BaseDeltas: f.deltas}, nil
}

func errDerivedWrite(p string) error {
	return fmt.Errorf("exec: %w: cannot modify derived predicate %s", ErrTypecheck, p)
}

// Insert is a convenience exec: it inserts tuples into a base predicate
// directly, bypassing parsing and reactive evaluation. It runs the same
// frame step and settle as an exec of the corresponding +pred facts, so
// views are re-derived and integrity constraints checked. Heavy
// transactional workloads use this path.
func (ws *Workspace) Insert(pred string, tuples ...tuple.Tuple) (*Workspace, error) {
	return ws.write(pred, tuples, nil)
}

// Delete is the deletion counterpart of Insert (an exec of -pred facts).
func (ws *Workspace) Delete(pred string, tuples ...tuple.Tuple) (*Workspace, error) {
	return ws.write(pred, nil, tuples)
}

// write is the parse-free base write behind Insert, Delete and Load: a
// one-predicate frame step and settle under a tx.exec span. A predicate
// the logic does not mention takes the tuples' arity (data-first live
// programming, as for exec).
func (ws *Workspace) write(pred string, ins, del []tuple.Tuple) (_ *Workspace, err error) {
	rctx := context.Background()
	sp, done := ws.txSpan(rctx, "exec")
	defer func() { done(err) }()
	info, known := ws.prog.Preds[pred]
	arity := 0
	switch {
	case known && !info.EDB:
		return nil, errDerivedWrite(pred)
	case known:
		arity = info.Arity
	case len(ins) > 0:
		arity = len(ins[0])
	case len(del) > 0:
		arity = len(del[0])
	}
	fsp := sp.Child("frame")
	f := ws.newFrame()
	start := ws.relationOr(pred, arity)
	f.apply(pred, start, relation.FromTuples(start.Arity(), ins), relation.FromTuples(start.Arity(), del))
	fsp.End()
	res, err := f.settle(rctx, sp)
	if err != nil {
		return nil, err
	}
	return res.Workspace, nil
}
