// Package core implements workspaces and transactions (paper §2.2.2,
// §3.1): a workspace bundles logic (blocks of rules and constraints) with
// the contents of base predicates plus the materialized derived
// predicates. Workspaces are immutable values built entirely from
// persistent data structures, so branching is O(1), every transaction
// yields a new version sharing structure with its parent, and aborting a
// transaction is dropping a pointer.
package core

import (
	"context"
	"fmt"
	"sort"

	"logicblox/internal/ast"
	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/ml"
	"logicblox/internal/obs"
	"logicblox/internal/optimizer"
	"logicblox/internal/pmap"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Workspace is one immutable version of the database: logic + data.
// All mutating methods return a new Workspace.
type Workspace struct {
	blocks   pmap.Map[string]            // block name → LogiQL source
	parsed   pmap.Map[*ast.Program]      // block name → parsed program
	prog     *compiler.Program           // compiled program (shared, immutable)
	base     pmap.Map[relation.Relation] // base predicate contents
	ruleRes  pmap.Map[relation.Relation] // materialized result per rule (or per recursive head)
	derived  pmap.Map[relation.Relation] // derived predicate contents
	models   *ml.Registry                // model store (append-only, shared across versions)
	version  uint64
	optimize bool                 // sampling-based join-order optimization (paper §3.2)
	plans    *optimizer.PlanStore // adaptive plan cache (shared across versions; nil = re-sample every transaction)
	obs      *obs.Registry        // transaction profiling target (nil → obs.Default)
}

// NewWorkspace returns an empty workspace with no logic and no data.
func NewWorkspace() *Workspace {
	empty, err := compiler.Compile(&ast.Program{})
	if err != nil {
		panic(err)
	}
	return &Workspace{
		blocks:  pmap.NewMap[string](),
		parsed:  pmap.NewMap[*ast.Program](),
		prog:    empty,
		base:    pmap.NewMap[relation.Relation](),
		ruleRes: pmap.NewMap[relation.Relation](),
		derived: pmap.NewMap[relation.Relation](),
		models:  ml.NewRegistry(),
	}
}

// Version returns the workspace's version number (monotone along a
// branch's history).
func (ws *Workspace) Version() uint64 { return ws.version }

// WithOptimizer returns a workspace whose evaluations use the
// sampling-based variable-order optimizer (paper §3.2). The flag is
// inherited by branches and subsequent versions.
func (ws *Workspace) WithOptimizer(on bool) *Workspace {
	cp := *ws
	cp.optimize = on
	return &cp
}

// WithAdaptiveOptimizer returns a workspace whose evaluations use the
// feedback-driven adaptive optimizer: the sampling optimizer is on, and
// chosen variable orders persist in a plan store shared by every version
// and branch derived from this workspace (like the model registry).
// Subsequent transactions reuse cached orders and re-run sampling only
// when the engine's observed evaluation costs drift past the store's
// threshold, when input cardinalities change materially, or when a
// schema change invalidates the plan. Passing false detaches the store
// and reverts to per-transaction sampling.
func (ws *Workspace) WithAdaptiveOptimizer(on bool) *Workspace {
	cp := *ws
	cp.optimize = on
	if on {
		cp.plans = optimizer.NewPlanStore(optimizer.StoreOptions{})
	} else {
		cp.plans = nil
	}
	return &cp
}

// PlanStore returns the adaptive optimizer's plan cache, or nil when the
// workspace is not running with WithAdaptiveOptimizer.
func (ws *Workspace) PlanStore() *optimizer.PlanStore { return ws.plans }

// Blocks returns the installed block names.
func (ws *Workspace) Blocks() []string { return ws.blocks.Keys() }

// Program returns the compiled program.
func (ws *Workspace) Program() *compiler.Program { return ws.prog }

// Models returns the predict-rule model registry.
func (ws *Workspace) Models() *ml.Registry { return ws.models }

// Relation returns the current contents of a predicate (base or derived).
func (ws *Workspace) Relation(name string) relation.Relation {
	if r, ok := ws.derived.Get(name); ok {
		return r
	}
	if r, ok := ws.base.Get(name); ok {
		return r
	}
	arity := 1
	if p, ok := ws.prog.Preds[name]; ok {
		arity = p.Arity
	}
	return relation.New(arity)
}

// Relations returns the full predicate → contents map (base and
// derived) of this version. The map is freshly allocated; the relations
// themselves are immutable persistent values.
func (ws *Workspace) Relations() map[string]relation.Relation { return ws.relations() }

// relationOr returns the current contents of a predicate, or an empty
// relation of the given arity when the workspace holds no data for it.
// Transactions use this with the arity of the program they compiled,
// which — unlike ws.prog behind Relation — also knows predicates the
// transaction introduces (data-first live programming: facts may arrive
// before any logic mentions their predicate).
func (ws *Workspace) relationOr(name string, arity int) relation.Relation {
	if r, ok := ws.derived.Get(name); ok {
		return r
	}
	if r, ok := ws.base.Get(name); ok {
		return r
	}
	return relation.New(arity)
}

// relations materializes the full name → relation map for an engine
// context.
func (ws *Workspace) relations() map[string]relation.Relation {
	out := map[string]relation.Relation{}
	ws.base.Range(func(k string, v relation.Relation) bool { out[k] = v; return true })
	ws.derived.Range(func(k string, v relation.Relation) bool { out[k] = v; return true })
	return out
}

func (ws *Workspace) clone() *Workspace {
	cp := *ws
	cp.version = ws.version + 1
	return &cp
}

// parsedBlocks returns the parsed programs keyed by block name.
func (ws *Workspace) parsedBlocks() map[string]*ast.Program {
	out := map[string]*ast.Program{}
	ws.parsed.Range(func(k string, v *ast.Program) bool { out[k] = v; return true })
	return out
}

func compileBlocks(parsed map[string]*ast.Program, extra ...*ast.Program) (*compiler.Program, error) {
	var names []string
	for n := range parsed {
		names = append(names, n)
	}
	sort.Strings(names)
	var progs []*ast.Program
	for _, n := range names {
		progs = append(progs, parsed[n])
	}
	progs = append(progs, extra...)
	return compiler.Compile(progs...)
}

// ruleKey identifies a rule's materialized result across recompilations.
func ruleKey(r *compiler.RulePlan) string { return r.HeadName + "\x00" + r.Source }

// stratumKey identifies a recursive stratum head's materialized result.
func stratumKey(head string) string { return "rec\x00" + head }

// rederive re-materializes derived predicates after base-data or logic
// changes. dirty seeds the set of changed names (base predicates with new
// contents and/or derived predicates marked dirty by the meta-engine);
// the change propagates through the execution graph, and rules none of
// whose dependencies changed reuse their stored results — the engine-side
// half of live programming (paper Figure 6).
func (ws *Workspace) rederive(rctx context.Context, dirty map[string]bool, parent *obs.Span) (*Workspace, error) {
	out := ws.clone()
	reg := ws.Observer()
	sp := parent.Child("rederive")
	sp.SetAttr("dirty", int64(len(dirty)))
	ctx := engine.NewContext(out.prog, out.relations(), engine.Options{Models: out.models, Optimize: out.optimize, Plans: out.plans, Obs: reg, Ctx: rctx})
	ctx.SetSpan(sp)
	var evals, reused int64
	defer func() {
		sp.SetAttr("rules_evaluated", evals)
		sp.SetAttr("rules_reused", reused)
		sp.End()
		if evals+reused > 0 {
			reg.Counter("core.rederive.rules_evaluated").Add(evals)
			reg.Counter("core.rederive.rules_reused").Add(reused)
		}
	}()
	changed := dirty

	for _, stratum := range out.prog.Strata {
		heads := map[string]bool{}
		for _, r := range stratum {
			heads[r.HeadName] = true
		}
		recursive := false
		for _, r := range stratum {
			for _, b := range r.BodyNames {
				if heads[b] {
					recursive = true
				}
			}
		}
		touched := func(r *compiler.RulePlan) bool {
			if changed[r.HeadName] {
				return true
			}
			for _, b := range r.BodyNames {
				if changed[b] {
					return true
				}
			}
			for _, b := range r.NegNames {
				if changed[b] {
					return true
				}
			}
			return false
		}

		if recursive {
			any := false
			for _, r := range stratum {
				if touched(r) {
					any = true
					break
				}
			}
			if !any {
				reused += int64(len(stratum))
				continue
			}
			evals += int64(len(stratum))
			for h := range heads {
				ctx.Set(h, relation.New(out.prog.Preds[h].Arity))
			}
			if err := ctx.EvalStratum(stratum); err != nil {
				return nil, err
			}
			for h := range heads {
				cur, _ := publish(&out.ruleRes, stratumKey(h), ctx.Relation(h))
				if publishView(out, ctx, h, cur) {
					changed[h] = true
				}
			}
			continue
		}

		headTouched := map[string]bool{}
		for _, r := range stratum {
			key := ruleKey(r)
			if _, have := out.ruleRes.Get(key); have && !touched(r) {
				reused++
				continue
			}
			evals++
			res, err := ctx.EvalRule(r, nil)
			if err != nil {
				return nil, err
			}
			if _, moved := publish(&out.ruleRes, key, res); moved {
				headTouched[r.HeadName] = true
			}
		}
		for h := range headTouched {
			rel := relation.New(out.prog.Preds[h].Arity)
			for _, r := range stratum {
				if r.HeadName != h {
					continue
				}
				if rr, ok := out.ruleRes.Get(ruleKey(r)); ok {
					rel = rel.Union(rr)
				}
			}
			if publishView(out, ctx, h, rel) {
				changed[h] = true
			}
		}
		// Unchanged heads of this stratum still need their contexts seeded
		// for later strata; ctx already holds them from relations().
	}
	return out, nil
}

// publish is rederive's one store rule: it puts rel under key in *m
// unless *m already holds a relation Equal to it, in which case the
// stored value stays. A view a transaction re-evaluated but did not
// change is therefore shared with the parent version instead of being
// retained as a private copy by every version in the history. It
// returns the value now stored and whether it differs from the old one.
func publish(m *pmap.Map[relation.Relation], key string, rel relation.Relation) (relation.Relation, bool) {
	if prev, ok := m.Get(key); ok && prev.Equal(rel) {
		return prev, false
	}
	*m = m.Set(key, rel)
	return rel, true
}

// publishView publishes derived predicate h's new contents and seeds the
// evaluation context with the stored value for later strata. It reports
// whether h changed; a head that had no stored contents counts as
// changed only when it is non-empty.
func publishView(out *Workspace, ctx *engine.Context, h string, rel relation.Relation) bool {
	_, had := out.derived.Get(h)
	stored, moved := publish(&out.derived, h, rel)
	ctx.Set(h, stored)
	return moved && (had || !rel.IsEmpty())
}

// settle is the one tail of every change to base data or logic: it
// re-derives the views the dirty names reach, then checks integrity
// constraints on the result. Exec, repair replay, Insert/Delete/Load,
// addblock/removeblock and snapshot restore all end here; only Solve
// calls rederive alone (see its doc). "rederive" and "constraints" are
// direct child spans of sp.
func (ws *Workspace) settle(rctx context.Context, dirty map[string]bool, sp *obs.Span) (*Workspace, error) {
	out, err := ws.rederive(rctx, dirty, sp)
	if err != nil {
		return nil, err
	}
	ksp := sp.Child("constraints")
	err = out.checkConstraints()
	ksp.End()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkConstraints validates the workspace state, returning an error
// listing all violations if the state is illegal. Constraints that
// reference free solver predicates (lang:solve:variable) define the
// optimization problem rather than the set of legal states before a
// solve, so they are enforced only once the free predicate has been
// populated.
func (ws *Workspace) checkConstraints() error {
	ctx := engine.NewContext(ws.prog, ws.relations(), engine.Options{Models: ws.models, Obs: ws.Observer()})
	deferred := map[string]bool{}
	if ws.prog.Solve != nil {
		for _, v := range ws.prog.Solve.Variables {
			if ws.Relation(v).IsEmpty() {
				deferred[v] = true
			}
		}
	}
	var vs []engine.Violation
	for _, k := range ws.prog.Constraints {
		skip := false
		for _, ref := range k.References() {
			if deferred[ref] {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		kvs, err := ctx.CheckConstraint(k)
		if err != nil {
			return err
		}
		vs = append(vs, kvs...)
	}
	if len(vs) == 0 {
		return nil
	}
	msg := ""
	for i, v := range vs {
		if i == 5 {
			msg += fmt.Sprintf("\n  … and %d more", len(vs)-5)
			break
		}
		msg += "\n  " + v.String()
	}
	return fmt.Errorf("transaction aborted: %d %w(s):%s", len(vs), ErrConstraint, msg)
}

// Query runs a query transaction: src is a program with a designated
// answer predicate "_" (plus any auxiliary rules). It returns the answer
// tuples. The workspace is unchanged (queries are read-only and run on
// the branch's snapshot, paper §3.1).
func (ws *Workspace) Query(src string) ([]tuple.Tuple, error) {
	return ws.QueryCtx(context.Background(), src)
}

// QueryCtx is Query bounded by a context: cancellation or deadline
// expiry stops the evaluation at the next rule or fixpoint-round
// boundary and the transaction returns ctx.Err() wrapped. It is a thin
// wrapper that drains a QueryStream cursor (under the classic tx.query
// span kind), so both paths evaluate identically.
func (ws *Workspace) QueryCtx(rctx context.Context, src string) ([]tuple.Tuple, error) {
	sp, done := ws.txSpan(rctx, "query")
	cur, err := ws.openCursor(rctx, src, sp)
	if err != nil {
		done(err)
		return nil, err
	}
	cur.sp, cur.done = sp, done
	out := make([]tuple.Tuple, 0, cur.hint)
	for t, ok := cur.Next(); ok; t, ok = cur.Next() {
		out = append(out, t)
	}
	err = cur.Err()
	cur.Close()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Load seeds a base predicate in bulk, bypassing parsing and reactive
// evaluation. It is Insert under the bulk-loading name: one frame step,
// then the views it reaches are re-derived and integrity constraints
// checked, so a load that violates a constraint aborts like any other
// transaction. Loading several predicates a constraint relates must
// follow the constraint's direction (load the referenced predicate
// first).
func (ws *Workspace) Load(name string, tuples []tuple.Tuple) (*Workspace, error) {
	return ws.write(name, tuples, nil)
}
