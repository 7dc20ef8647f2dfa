package logicblox

// The benchmark harness: one benchmark family per experiment in
// EXPERIMENTS.md / DESIGN.md §3. Run with:
//
//	go test -bench=. -benchmem
//
// E1/Fig5  BenchmarkFig5ThreeClique{LFTJ,HashJoin,MergeJoin}
// E2       BenchmarkBranch
// E3       BenchmarkTxRepairVsCoarse
// E4       BenchmarkIVM
// E6       BenchmarkWorstCaseOptimal
// E7       BenchmarkLiveProgramming
// E8       BenchmarkTreap
// E9       BenchmarkSolver
// E10      BenchmarkPredict
// E11      BenchmarkAdaptiveOptimizer
// ablation BenchmarkVariableOrder, BenchmarkOptimizer,
//          BenchmarkPartitionedTriangle, BenchmarkWorkspaceExec,
//          BenchmarkQuery

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"logicblox/internal/compiler"
	"logicblox/internal/core"
	"logicblox/internal/engine"
	"logicblox/internal/graphgen"
	"logicblox/internal/ivm"
	"logicblox/internal/joins"
	"logicblox/internal/lftj"
	"logicblox/internal/ml"
	"logicblox/internal/obs"
	"logicblox/internal/optimizer"
	"logicblox/internal/parser"
	"logicblox/internal/relation"
	"logicblox/internal/solver"
	"logicblox/internal/treap"
	"logicblox/internal/tuple"
	"logicblox/internal/workload"
)

func mustCompileB(b *testing.B, src string) *compiler.Program {
	b.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	c, err := compiler.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// --- E1 (Figure 5): 3-clique, LFTJ vs binary join plans ------------------

var fig5Sizes = []int{1000, 10000, 100000}

func fig5Graph(edges int) relation.Relation {
	all := graphgen.Canonical(graphgen.PreferentialAttachment(edges/3, 3, 2015))
	if edges > len(all) {
		edges = len(all)
	}
	return graphgen.ToRelation(all[:edges])
}

func lftjTriangleCount(b *testing.B, e relation.Relation) int {
	j, err := lftj.NewJoin(3, []lftj.Atom{
		{Pred: "E1", Iter: e.Iterator(), Vars: []int{0, 1}},
		{Pred: "E2", Iter: e.Iterator(), Vars: []int{1, 2}},
		{Pred: "E3", Iter: e.Iterator(), Vars: []int{0, 2}},
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return j.Count()
}

func BenchmarkFig5ThreeCliqueLFTJ(b *testing.B) {
	for _, n := range fig5Sizes {
		e := fig5Graph(n)
		b.Run(fmt.Sprintf("edges=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lftjTriangleCount(b, e)
			}
		})
	}
}

func BenchmarkFig5ThreeCliqueHashJoin(b *testing.B) {
	for _, n := range fig5Sizes {
		e := fig5Graph(n)
		b.Run(fmt.Sprintf("edges=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				joins.TriangleCountHash(e)
			}
		})
	}
}

func BenchmarkFig5ThreeCliqueMergeJoin(b *testing.B) {
	for _, n := range fig5Sizes {
		e := fig5Graph(n)
		b.Run(fmt.Sprintf("edges=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				joins.TriangleCountMerge(e)
			}
		})
	}
}

// --- E6: worst-case optimality (Loomis–Whitney) ---------------------------

func BenchmarkWorstCaseOptimal(b *testing.B) {
	for _, n := range []int{200, 400} {
		r := relation.New(2)
		for i := int64(0); i < int64(n); i++ {
			r = r.Insert(tuple.Ints(0, i))
			r = r.Insert(tuple.Ints(i, 0))
		}
		b.Run(fmt.Sprintf("lftj/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lftjTriangleCount(b, r)
			}
		})
		b.Run(fmt.Sprintf("hashjoin/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				joins.TriangleCountHash(r)
			}
		})
	}
}

// --- ablation: variable-order choice --------------------------------------

func BenchmarkVariableOrder(b *testing.B) {
	// The 3-path query out(a,c) over a skewed graph: the order [b,a,c]
	// (most-constrained first) beats [a,b,c] when b has high fan-in.
	e := fig5Graph(10000)
	ba := e.Permuted([]int{1, 0})
	b.Run("good-order-bac", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j, err := lftj.NewJoin(3, []lftj.Atom{
				{Pred: "E1", Iter: ba.Iterator(), Vars: []int{0, 1}}, // E(a,b) as (b,a)
				{Pred: "E2", Iter: e.Iterator(), Vars: []int{0, 2}},  // E(b,c)
			}, nil)
			if err != nil {
				b.Fatal(err)
			}
			j.Count()
		}
	})
	b.Run("bad-order-abc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j, err := lftj.NewJoin(3, []lftj.Atom{
				{Pred: "E1", Iter: e.Iterator(), Vars: []int{0, 1}}, // E(a,b)
				{Pred: "E2", Iter: e.Iterator(), Vars: []int{1, 2}}, // E(b,c)
			}, nil)
			if err != nil {
				b.Fatal(err)
			}
			j.Count()
		}
	})
}

// --- ablation: sampling-based optimizer vs static heuristic -----------------

func BenchmarkOptimizer(b *testing.B) {
	// q(a,b,c) <- r(a,b), s(b,c), t(c): the static heuristic starts at b
	// (most occurrences); with a tiny t, starting at c is far cheaper.
	prog := mustCompileB(b, `q(a, b, c) <- r(a, b), s(b, c), t(c).`)
	r := relation.New(2)
	s := relation.New(2)
	for i := int64(0); i < 120000; i++ {
		r = r.Insert(tuple.Ints(i%2000, i%3000))
		s = s.Insert(tuple.Ints(i%3000, i%4000))
	}
	tt := relation.New(1)
	tt = tt.Insert(tuple.Ints(17))
	base := map[string]relation.Relation{"r": r, "s": s, "t": tt}
	rule := prog.Rules[0]
	b.Run("heuristic-order", func(b *testing.B) {
		ctx := engine.NewContext(prog, base, engine.Options{})
		for i := 0; i < b.N; i++ {
			if _, err := ctx.EvalRule(rule, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampled-order", func(b *testing.B) {
		// Steady state: the optimizer's choice is cached after the first
		// evaluation; the benchmark measures the chosen plan.
		ctx := engine.NewContext(prog, base, engine.Options{Optimize: true})
		if _, err := ctx.EvalRule(rule, nil); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.EvalRule(rule, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("choose-order-cost", func(b *testing.B) {
		rels := func(name string) relation.Relation { return base[name] }
		for i := 0; i < b.N; i++ {
			if _, err := optimizer.ChooseOrder(rule, rels, optimizer.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E11: the adaptive optimizer loop. Each iteration models a transaction
// re-entering fixpoint evaluation: a fresh engine context (per-context
// plan memos are cold, as after a recompile) evaluates the same rule.
// Without a plan store every re-entry re-runs sample-based ChooseOrder;
// with one, the cached order is reused after the first decision.
func BenchmarkAdaptiveOptimizer(b *testing.B) {
	prog := mustCompileB(b, `q(a, b, c) <- r(a, b), s(b, c), t(c).`)
	r := relation.New(2)
	s := relation.New(2)
	for i := int64(0); i < 120000; i++ {
		r = r.Insert(tuple.Ints(i%2000, i%3000))
		s = s.Insert(tuple.Ints(i%3000, i%4000))
	}
	tt := relation.New(1)
	tt = tt.Insert(tuple.Ints(17))
	base := map[string]relation.Relation{"r": r, "s": s, "t": tt}
	rule := prog.Rules[0]
	b.Run("resample-per-tx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := engine.NewContext(prog, base, engine.Options{Optimize: true})
			if _, err := ctx.EvalRule(rule, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plan-cache", func(b *testing.B) {
		store := optimizer.NewPlanStore(optimizer.StoreOptions{})
		// Warm the store: first decision samples, the rest reuse it.
		ctx := engine.NewContext(prog, base, engine.Options{Optimize: true, Plans: store})
		if _, err := ctx.EvalRule(rule, nil); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx := engine.NewContext(prog, base, engine.Options{Optimize: true, Plans: store})
			if _, err := ctx.EvalRule(rule, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := store.Stats()
		if st.Hits < int64(b.N) {
			b.Fatalf("expected at least %d plan-cache hits, got %+v", b.N, st)
		}
	})
}

// --- E2: branching ----------------------------------------------------------

func BenchmarkBranch(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		ws := core.NewWorkspace()
		ws, err := ws.AddBlock("s", `fact(x, y) -> int(x), int(y).`)
		if err != nil {
			b.Fatal(err)
		}
		ts := make([]tuple.Tuple, n)
		for i := range ts {
			ts[i] = tuple.Ints(int64(i), int64(i%97))
		}
		ws, err = ws.Load("fact", ts)
		if err != nil {
			b.Fatal(err)
		}
		db := core.NewDatabase()
		if err := db.Commit(core.DefaultBranch, ws); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("facts=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("b%d", i)
				if err := db.Branch(core.DefaultBranch, name); err != nil {
					b.Fatal(err)
				}
				if err := db.DeleteBranch(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E3: transaction repair vs coarse retry --------------------------------

// benchInventoryWS seeds inv[k] = 1000 for k in [0, n).
func benchInventoryWS(b *testing.B, n int) *core.Workspace {
	b.Helper()
	var buf strings.Builder
	for k := 0; k < n; k++ {
		fmt.Fprintf(&buf, "+inv[%d] = 1000.\n", k)
	}
	res, err := core.NewWorkspace().Exec(buf.String())
	if err != nil {
		b.Fatal(err)
	}
	return res.Workspace
}

// benchInventoryTxns builds transactions that decrement each touched item
// through a point read, touching items with probability α·n^(−1/2) (two
// transactions then share α² items in expectation, the paper's conflict
// model for §3.4).
func benchInventoryTxns(n, txCount int, alpha float64) []string {
	rng := rand.New(rand.NewSource(11))
	p := alpha / math.Sqrt(float64(n))
	txs := make([]string, 0, txCount)
	for i := 0; i < txCount; i++ {
		var buf strings.Builder
		for k := 0; k < n; k++ {
			if rng.Float64() < p {
				fmt.Fprintf(&buf, "^inv[%d] = r <- inv@start[%d] = q, r = q - 1.\n", k, k)
			}
		}
		if buf.Len() == 0 {
			k := rng.Intn(n)
			fmt.Fprintf(&buf, "^inv[%d] = r <- inv@start[%d] = q, r = q - 1.\n", k, k)
		}
		txs = append(txs, buf.String())
	}
	return txs
}

// benchRunTxns races the transactions over `workers` goroutines with
// optimistic commits; a lost CAS tries fine-grained repair first when
// enabled, else re-executes in full.
func benchRunTxns(b *testing.B, db *core.Database, txs []string, workers int, repair bool) {
	b.Helper()
	ctx := context.Background()
	work := make(chan string, len(txs))
	for _, src := range txs {
		work <- src
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for src := range work {
				head, err := db.Workspace("main")
				if err != nil {
					panic(err)
				}
				var res *core.ExecResult
				var rec *core.ExecRecord
				if repair {
					res, rec, err = head.ExecRecordedCtx(ctx, src)
				} else {
					res, err = head.ExecCtx(ctx, src)
				}
				if err != nil {
					panic(err)
				}
				for db.CommitIf("main", head, res.Workspace, core.CommitRecord{Kind: "exec", Src: src}) != nil {
					newHead, err := db.Workspace("main")
					if err != nil {
						panic(err)
					}
					if rec != nil {
						if res2, _, rerr := rec.Repair(ctx, newHead); rerr == nil {
							head, res = newHead, res2
							continue
						}
					}
					head = newHead
					if repair {
						res, rec, err = head.ExecRecordedCtx(ctx, src)
					} else {
						res, err = head.ExecCtx(ctx, src)
					}
					if err != nil {
						panic(err)
					}
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkTxRepairVsCoarse(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	const n, txCount = 1000, 64
	for _, alpha := range []float64{0.1, 1, 10} {
		seed := benchInventoryWS(b, n)
		txs := benchInventoryTxns(n, txCount, alpha)
		b.Run(fmt.Sprintf("repair/alpha=%g", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRunTxns(b, core.NewDatabaseWith(seed), txs, workers, true)
			}
		})
		b.Run(fmt.Sprintf("coarse/alpha=%g", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRunTxns(b, core.NewDatabaseWith(seed), txs, workers, false)
			}
		})
		b.Run(fmt.Sprintf("serial/alpha=%g", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRunTxns(b, core.NewDatabaseWith(seed), txs, 1, false)
			}
		})
	}
}

// --- E4: incremental view maintenance --------------------------------------

func BenchmarkIVM(b *testing.B) {
	edges := graphgen.Canonical(graphgen.PreferentialAttachment(4000, 3, 7))
	base := map[string]relation.Relation{"e": graphgen.ToRelation(edges)}
	prog := mustCompileB(b, `tri(x, y, z) <- e(x, y), e(y, z), e(x, z).`)
	for _, mode := range []ivm.Mode{ivm.Recompute, ivm.Counting, ivm.DRed, ivm.Sensitivity} {
		for _, ds := range []int{1, 100} {
			b.Run(fmt.Sprintf("%s/delta=%d", mode, ds), func(b *testing.B) {
				m, err := ivm.NewMaintainer(prog, cloneRelsB(base), mode)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var d ivm.Delta
					for k := 0; k < ds; k++ {
						v := int64(100000 + (i*ds+k)*2)
						d.Ins = append(d.Ins, tuple.Ints(v, v+1))
					}
					if _, err := m.Apply(map[string]ivm.Delta{"e": d}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func cloneRelsB(m map[string]relation.Relation) map[string]relation.Relation {
	out := make(map[string]relation.Relation, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// --- E7: live programming ----------------------------------------------------

func BenchmarkLiveProgramming(b *testing.B) {
	for _, views := range []int{10, 100} {
		ws := core.NewWorkspace()
		ws, err := ws.AddBlock("schema", `src(x, y) -> int(x), int(y).`)
		if err != nil {
			b.Fatal(err)
		}
		ts := make([]tuple.Tuple, 2000)
		for i := range ts {
			ts[i] = tuple.Ints(int64(i%200), int64(i))
		}
		ws, err = ws.Load("src", ts)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < views; i++ {
			ws, err = ws.AddBlock(fmt.Sprintf("view%03d", i),
				fmt.Sprintf("v%03d(x) <- src(x, y), y > %d.", i, i))
			if err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("addblock/views=%d", views), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ws.AddBlock("extra", `extra(x) <- src(x, y), y > 1000.`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: treap substrate ------------------------------------------------------

func intOpsB() treap.Ops[int] {
	return treap.Ops[int]{
		Compare: func(a, b int) int { return a - b },
		Hash: func(k int) uint64 {
			h := uint64(k) * 0x9e3779b97f4a7c15
			h ^= h >> 32
			h *= 0xbf58476d1ce4e5b9
			return h ^ h>>29
		},
	}
}

func BenchmarkTreapInsert(b *testing.B) {
	t := treap.New[int, int](intOpsB())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t = t.Insert(i, i)
	}
}

func BenchmarkTreapUnion(b *testing.B) {
	big := treap.New[int, int](intOpsB())
	for i := 0; i < 100000; i++ {
		big = big.Insert(i*2, i)
	}
	small := treap.New[int, int](intOpsB())
	for i := 0; i < 1000; i++ {
		small = small.Insert(i*200+1, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = big.Union(small)
	}
}

func BenchmarkTreapEqualShared(b *testing.B) {
	big := treap.New[int, int](intOpsB())
	for i := 0; i < 100000; i++ {
		big = big.Insert(i, i)
	}
	branch := big
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !big.Equal(branch) {
			b.Fatal("unequal")
		}
	}
}

func BenchmarkTreapDiffOneChange(b *testing.B) {
	big := treap.New[int, int](intOpsB())
	for i := 0; i < 100000; i++ {
		big = big.Insert(i, i)
	}
	mod := big.Insert(-1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		big.DiffWith(mod, nil, func(int, int) { n++ }, func(int, int) { n++ }, nil)
		if n != 1 {
			b.Fatal("diff miscounted")
		}
	}
}

// --- E9: solver ---------------------------------------------------------------

func BenchmarkSolver(b *testing.B) {
	src := `
		spacePerProd[p] = v -> Product(p), float(v).
		profitPerProd[p] = v -> Product(p), float(v).
		minStock[p] = v -> Product(p), float(v).
		maxStock[p] = v -> Product(p), float(v).
		maxShelf[] = v -> float(v).
		Stock[p] = v -> Product(p), float(v).
		totalShelf[] = u <- agg<<u = sum(z)>> Stock[p] = x, spacePerProd[p] = y, z = x * y.
		totalProfit[] = u <- agg<<u = sum(z)>> Stock[p] = x, profitPerProd[p] = y, z = x * y.
		Product(p) -> Stock[p] >= minStock[p].
		Product(p) -> Stock[p] <= maxStock[p].
		totalShelf[] = u, maxShelf[] = v -> u <= v.
		lang:solve:variable(` + "`Stock" + `).
		lang:solve:max(` + "`totalProfit" + `).`
	prog := mustCompileB(b, src)
	for _, n := range []int{50, 500} {
		retail := workload.Generate(workload.Config{Products: n, Stores: 1, Weeks: 1, Seed: 5})
		rels := retail.Relations()
		rels["maxShelf"] = relation.FromTuples(1, []tuple.Tuple{{tuple.Float(float64(n) * 10)}})
		b.Run(fmt.Sprintf("ground/products=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := solver.Ground(prog, rels); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("solve/products=%d", n), func(b *testing.B) {
			g, err := solver.Ground(prog, rels)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := g.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E10: predict rules ---------------------------------------------------------

func BenchmarkPredict(b *testing.B) {
	buy, feat := workload.ClassificationSet(50, 30, 0.1, 13)
	prog := mustCompileB(b, `
		SM[s] = m <- predict<<m = logist(v|f)>> Buy[s, c] = v, Feature[s, n] = f.
		Pred[s] = v <- predict<<v = eval(m|f)>> SM[s] = m, Feature[s, n] = f.`)
	b.Run("learn+eval/stores=50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := engine.NewContext(prog, map[string]relation.Relation{
				"Buy": buy, "Feature": feat,
			}, engine.Options{Models: ml.NewRegistry()})
			if err := ctx.EvalAll(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- engine micro: end-to-end transaction throughput -----------------------------

func BenchmarkWorkspaceExec(b *testing.B) {
	ws := core.NewWorkspace()
	ws, err := ws.AddBlock("s", `
		inventory[x] = v -> string(x), int(v).
		low(x) <- inventory[x] = v, v < 5.`)
	if err != nil {
		b.Fatal(err)
	}
	res, err := ws.Exec(`+inventory["widget"] = 1000000.`)
	if err != nil {
		b.Fatal(err)
	}
	ws = res.Workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := ws.Exec(`^inventory["widget"] = y <- inventory@start["widget"] = x, y = x - 1.`)
		if err != nil {
			b.Fatal(err)
		}
		ws = r.Workspace
	}
}

func BenchmarkQuery(b *testing.B) {
	ws := core.NewWorkspace()
	ws, err := ws.AddBlock("s", `sales(p, v) -> string(p), int(v).`)
	if err != nil {
		b.Fatal(err)
	}
	ts := make([]tuple.Tuple, 10000)
	for i := range ts {
		ts[i] = tuple.Of(tuple.String(fmt.Sprintf("p%04d", i%500)), tuple.Int(int64(i)))
	}
	ws, err = ws.Load("sales", ts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.Query(`bySku[p] = u <- agg<<u = sum(v)>> sales(p, v).
			_(p, u) <- bySku[p] = u, u > 90000.`); err != nil {
			b.Fatal(err)
		}
	}
}

// --- domain decomposition (paper §3.2 parallelization) -----------------------

func BenchmarkPartitionedTriangle(b *testing.B) {
	e := fig5Graph(30000)
	mkAtoms := func() []lftj.Atom {
		return []lftj.Atom{
			{Pred: "E1", Iter: e.Iterator(), Vars: []int{0, 1}},
			{Pred: "E2", Iter: e.Iterator(), Vars: []int{1, 2}},
			{Pred: "E3", Iter: e.Iterator(), Vars: []int{0, 2}},
		}
	}
	want := lftjTriangleCount(b, e)
	for _, parts := range []int{1, 2, 4, 8} {
		cuts := lftj.Quantiles(e.Sample(512), parts)
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got, err := lftj.PartitionedCount(3, mkAtoms, cuts, parts)
				if err != nil {
					b.Fatal(err)
				}
				if got != want {
					b.Fatalf("count %d != %d", got, want)
				}
			}
		})
	}
}

// BenchmarkObsOverhead measures the cost of the observability layer on a
// real fixpoint evaluation (transitive closure over a random graph):
// "off" runs with no registry attached — every instrumentation point is
// a nil-handle no-op — and "on" runs with full metrics, per-rule
// profiles, and span tracing enabled.
func BenchmarkObsOverhead(b *testing.B) {
	prog := mustCompileB(b, `
		path(x, y) <- edge(x, y).
		path(x, z) <- path(x, y), edge(y, z).`)
	edges := relation.New(2)
	for i := int64(0); i < 2000; i++ {
		edges = edges.Insert(tuple.Ints(i%400, (i*i*31+7)%400))
	}
	base := map[string]relation.Relation{"edge": edges}

	run := func(b *testing.B, reg *obs.Registry) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := engine.NewContext(prog, base, engine.Options{Obs: reg})
			if err := ctx.EvalAll(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, obs.NewRegistry()) })
}
