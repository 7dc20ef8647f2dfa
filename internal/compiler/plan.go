package compiler

import (
	"logicblox/internal/ast"
	"logicblox/internal/tuple"
)

// Decorated predicate names: reactive rules refer to versioned and delta
// predicates (paper §2.2.1). The engine evaluates rules over a context of
// named relations, so deltas and versions are simply distinct names.
//
//	R         — current content
//	R@start   — content at transaction start
//	+R        — insertions of the current transaction
//	-R        — deletions of the current transaction
//	^R        — upsert pseudo-predicate, expanded into +R/-R
const (
	DecorPlus    = "+"
	DecorMinus   = "-"
	DecorHat     = "^"
	DecorAtStart = "@start"
)

// DecoratedName returns the context name for a predicate occurrence.
func DecoratedName(pred string, delta ast.DeltaKind, atStart bool) string {
	name := pred
	switch delta {
	case ast.DeltaPlus:
		name = DecorPlus + name
	case ast.DeltaMinus:
		name = DecorMinus + name
	case ast.DeltaHat:
		name = DecorHat + name
	}
	if atStart {
		name += DecorAtStart
	}
	return name
}

// BaseName strips delta/version decorations from a context name.
func BaseName(name string) string {
	for len(name) > 0 && (name[0] == '+' || name[0] == '-' || name[0] == '^') {
		name = name[1:]
	}
	if n := len(name) - len(DecorAtStart); n > 0 && name[n:] == DecorAtStart {
		name = name[:n]
	}
	return name
}

// PredInfo is catalog metadata for one predicate.
type PredInfo struct {
	Name       string
	Arity      int
	Functional bool // declared/used in the bracket shape R[k...] = v
	EDB        bool // extensional (base); inferred unless declared
	// ColumnKinds holds per-column type constraints harvested from type
	// declarations; tuple.KindNull means unconstrained.
	ColumnKinds []tuple.Kind
}

// AtomPlan is a planned positive body atom: which stored relation to scan,
// under what column permutation, binding which join variables.
type AtomPlan struct {
	Name string // decorated context name
	// Perm maps plan columns to stored columns: plan column i reads stored
	// column Perm[i]. nil means identity (no secondary index needed).
	Perm []int
	// Vars[i] is the join variable bound by plan column i; strictly
	// increasing, as leapfrog triejoin requires.
	Vars []int
}

// ConstBind is a virtual constant predicate joined on one variable
// (the rewrite of constants in atoms, paper §3.2).
type ConstBind struct {
	Var int
	Val tuple.Value
}

// GroundAtom is an atom whose arguments are all computable at check time:
// negated body atoms and constraint-head atoms. A nil Expr is a wildcard
// (match anything at that column).
type GroundAtom struct {
	Name string // decorated context name
	Args []Expr // len = predicate arity; nil entries are wildcards
}

// FilterPlan is a comparison checked after variables are bound.
type FilterPlan struct {
	Op   string
	L, R Expr
}

// AssignPlan computes a non-join variable from bound ones.
type AssignPlan struct {
	Slot int
	E    Expr
}

// TypeCheck asserts that a slot holds a value of a primitive kind
// (constraint heads like float(v)).
type TypeCheck struct {
	Slot int
	Kind tuple.Kind
}

// AggPlan describes the aggregation of a P2P rule body (paper §2.2.1).
// ArgSlot is the aggregated variable's slot, or -1 for count.
type AggPlan struct {
	Func    string
	ArgSlot int
}

// PredictPlan describes a predict P2P rule (paper §2.3.2).
type PredictPlan struct {
	Func          string // logist, linear (learning) or eval
	ValueSlot     int    // observed value (learning) / model handle (eval)
	FeatureSlot   int    // feature value variable
	ValueKeySlots []int  // slots identifying a training example (e.g. wk)
	FeatNameSlots []int  // slots identifying a feature (e.g. n)
}

// RulePlan is an executable derivation rule. Bindings are tuples of
// Slots values: the first NumJoinVars slots are leapfrog join variables,
// the rest are assigned (computed) variables.
type RulePlan struct {
	ID          int
	Source      string // pretty-printed original rule
	HeadName    string // decorated head predicate name
	HeadArity   int
	HeadExprs   []Expr // one per head column (for agg/predict: key columns only)
	NumJoinVars int
	Slots       int
	VarNames    []string
	Atoms       []AtomPlan
	Consts      []ConstBind
	NegAtoms    []GroundAtom
	Filters     []FilterPlan
	Assigns     []AssignPlan // in dependency order
	Agg         *AggPlan
	Predict     *PredictPlan
	// BodyNames / NegNames list decorated body predicate names for
	// dependency tracking (positive and negated occurrences).
	BodyNames []string
	NegNames  []string
}

// ConstraintPlan is a compiled integrity constraint F -> G: the body plan
// enumerates bindings of F; for each, every head check must pass.
type ConstraintPlan struct {
	ID     int
	Source string
	// Body reuses RulePlan machinery with no head.
	Body      *RulePlan
	HeadAtoms []GroundAtom
	// HeadNegAtoms records negated head atoms structurally (in addition
	// to the "!exists" entry in HeadChecks), so References can name the
	// atom's predicate.
	HeadNegAtoms []GroundAtom
	HeadChecks   []FilterPlan
	HeadTypes    []TypeCheck
}

// SolveSpec captures the lang:solve directives of a block (paper §2.3.1).
type SolveSpec struct {
	Variables []string // free second-order predicate variables
	Maximize  string   // objective predicate (nullary functional), or ""
	Minimize  string
	Integral  []string // predicates constrained to integer values (MIP)
}

// Program is the compiled form of a block set: catalog, plans, and
// stratification.
type Program struct {
	Preds          map[string]*PredInfo
	Rules          []*RulePlan // static derivation rules (no deltas)
	Reactive       []*RulePlan // rules mentioning delta/@start predicates
	Constraints    []*ConstraintPlan
	Strata         [][]*RulePlan // static rules grouped into evaluation strata
	ReactiveStrata [][]*RulePlan // reactive rules in evaluation order (exec pipeline)
	Solve          *SolveSpec
	// IDBPreds lists derived predicate names in stratum order.
	IDBPreds []string
}

// References lists every predicate name a constraint touches (body atoms,
// negated atoms, head atoms, and functional lookups in head checks). The
// workspace uses it to defer constraints over free solver predicates to
// the prescriptive-analytics machinery instead of enforcing them at
// transaction time.
func (k *ConstraintPlan) References() []string {
	set := map[string]bool{}
	for _, a := range k.Body.Atoms {
		set[BaseName(a.Name)] = true
	}
	for _, n := range k.Body.NegNames {
		set[BaseName(n)] = true
	}
	for _, ha := range k.HeadAtoms {
		set[BaseName(ha.Name)] = true
	}
	for _, ha := range k.HeadNegAtoms {
		set[BaseName(ha.Name)] = true
	}
	for _, hc := range k.HeadChecks {
		collectExprPreds(hc.L, set)
		collectExprPreds(hc.R, set)
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	return out
}

func collectExprPreds(e Expr, set map[string]bool) {
	switch e := e.(type) {
	case FuncGetExpr:
		set[BaseName(e.Name)] = true
		for _, a := range e.Args {
			collectExprPreds(a, set)
		}
	case ArithExpr:
		collectExprPreds(e.L, set)
		collectExprPreds(e.R, set)
	case existsExpr:
		set[BaseName(e.name)] = true
		for _, a := range e.args {
			if a != nil {
				collectExprPreds(a, set)
			}
		}
	}
}
