package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"logicblox/internal/core"
	"logicblox/internal/tuple"
)

// A workload is one traffic mix against one generated program and data
// set. Everything the program sees is LogiQL text generated here from
// the seed.
type workload struct {
	name string
	// clients holds, per closed-loop client, the cycle of operations it
	// repeats: 'w' an upsert, 'r' a query. A fixed cycle keeps the mix
	// of every run the same; the seed picks keys and values.
	clients []string
	// follower attaches an in-process replica.Follower to the primary.
	follower bool
	// A run's window is a sequence of rounds. Each round sets the
	// system up afresh, makes warmCommits unmeasured upserts, then
	// measures until it has made roundCommits more. The program keeps
	// every committed version, so a fresh system per round bounds the
	// heap and keeps latency from drifting with the window's length.
	warmCommits, roundCommits int
	// tailCommits is how many commits follow the checkpoint that ends
	// every round, so recovery replays a fixed journal tail.
	tailCommits int
	// recoveries is how many times each round's primary data directory
	// is recovered; recovery_s is the median over all rounds. Single
	// recoveries of rules-durable-replica's 0.1 s vary by ±25% within a
	// run, so it takes more of them.
	recoveries int
	// heapCommits is the number of sequential commits the traced run
	// takes its heap and treap slopes over.
	heapCommits int
	spec        spec
}

// spec is a generated program: its blocks, its data, its operations and
// the model that checks every answer.
type spec interface {
	// blocks are installed in order at set-up.
	blocks() []block
	// loadSrcs are the bulk-load exec transactions.
	loadSrcs() []string
	// initial returns the value every key holds after the bulk load.
	initial() []int
	// upsertSrc is the exec source writing v to key k.
	upsertSrc(k, v int) string
	// newValue draws a fresh value for a write by client c; the low bit
	// carries c, so two clients never write the same value to one key.
	newValue(rng *rand.Rand, c, old int) int
	// genRead draws the i-th query of a client.
	genRead(rng *rand.Rand, i int) read
	// checkRead checks a query answer; cands gives the values a key may
	// hold at that moment.
	checkRead(r read, rows [][]int64, cands func(k int) []int) error
	// state reads the base values and the derived views from a
	// workspace; derive computes the views the base values imply.
	state(ws *core.Workspace) (dbState, error)
	derive(base []int) map[string]string
	// sizes describes the generated program and data for the report.
	sizes() string
}

type block struct{ name, src string }

// read is one generated query: its source and what it looks up.
type read struct {
	kind string // "point", "agg" or "range"
	key  int    // point: the key; agg, range: the group
	src  string
}

// dbState is a database's content as the audit compares it: every base
// value, and each derived view as a canonical string.
type dbState struct {
	base    []int
	derived map[string]string
}

// workloads are the benchmark's traffic mixes, by name.
func workloads() map[string]*workload {
	return map[string]*workload{
		"views-write": {
			name: "views-write", clients: []string{"wr"},
			warmCommits: 4, roundCommits: 96,
			tailCommits: 4, recoveries: 3, heapCommits: 20,
			spec: &inventory{products: 2000, joinReadsStock: true},
		},
		"read-large": {
			name: "read-large", clients: []string{"rrw"},
			warmCommits: 4, roundCommits: 96,
			tailCommits: 4, recoveries: 3, heapCommits: 20,
			spec: &inventory{products: 16000, joinReadsStock: false},
		},
		"rules-durable-replica": {
			name: "rules-durable-replica", clients: []string{"wwwwr"}, follower: true,
			warmCommits: 32, roundCommits: 2048,
			tailCommits: 64, recoveries: 8, heapCommits: 200,
			spec: &ruleBlocks{nblocks: 20, keys: 64, selections: 9},
		},
	}
}

// tailQuantile is the percentile reported as exec_p99_ms and
// query_p99_ms. Every workload's window leaves far more than ten samples
// beyond p90, but above it fsync stalls and the host's slow phases make
// the figure vary between runs by more than the bounds allow.
const tailQuantile = 0.90

// groupSize is the number of products per group of the inventory
// program.
const groupSize = 16

// lowBelow is the threshold of the low view.
const lowBelow = 10

// inventory is the program of views-write and read-large: a functional
// stock level per product, products in groups of 16, an aggregate per
// group, a selection, and a within-group join that reads stock so every
// upsert re-derives it.
type inventory struct {
	products int
	// joinReadsStock makes the join read stock, so every upsert
	// re-derives it; without it an upsert re-derives byGroup and low
	// only. The join's tuples are the same either way.
	joinReadsStock bool
}

func (s *inventory) blocks() []block {
	join := "pair(p, r) <- grp[p] = g, grp[r] = g, p < r."
	if s.joinReadsStock {
		join = "pair(p, r) <- grp[p] = g, grp[r] = g, stock[p] = _, stock[r] = _, p < r."
	}
	return []block{{"inventory", fmt.Sprintf(`
stock[p] = q -> int(p), int(q).
grp[p] = g -> int(p), int(g).
byGroup[g] = t <- agg<<t = sum(q)>> stock[p] = q, grp[p] = g.
low(p) <- stock[p] = q, q < %d.
%s
`, lowBelow, join)}}
}

// initialValue is the stock level product p starts with.
func initialValue(p int) int { return (p * 37) % 200 }

func (s *inventory) sizes() string {
	return fmt.Sprintf("products=%d groups=%d pair_tuples=%d rules=5", s.products, s.products/groupSize, s.products/groupSize*groupSize*(groupSize-1)/2)
}

func (s *inventory) initial() []int {
	v := make([]int, s.products)
	for p := range v {
		v[p] = initialValue(p)
	}
	return v
}

func (s *inventory) loadSrcs() []string {
	var b strings.Builder
	for p := 0; p < s.products; p++ {
		fmt.Fprintf(&b, "+stock[%d] = %d. +grp[%d] = %d.\n", p, initialValue(p), p, p/groupSize)
	}
	return []string{b.String()}
}

func (s *inventory) upsertSrc(k, v int) string { return fmt.Sprintf("^stock[%d] = %d.", k, v) }

// newValue keeps stock levels in [0, 200), so about one in twenty
// products is low.
func (s *inventory) newValue(rng *rand.Rand, c, old int) int { return freshValue(rng, c, old, 100) }

// freshValue draws 2r+c for r in [0, n), differing from old.
func freshValue(rng *rand.Rand, c, old, n int) int {
	for {
		if v := 2*rng.IntN(n) + c; v != old {
			return v
		}
	}
}

// genRead cycles through a point lookup, an aggregate lookup, a point
// lookup and a one-group range over the join.
func (s *inventory) genRead(rng *rand.Rand, i int) read {
	groups := s.products / groupSize
	switch x := i % 4; {
	case x%2 == 0:
		k := rng.IntN(s.products)
		return read{"point", k, fmt.Sprintf("_(q) <- stock[%d] = q.", k)}
	case x == 1:
		g := rng.IntN(groups)
		return read{"agg", g, fmt.Sprintf("_(t) <- byGroup[%d] = t.", g)}
	default:
		g := rng.IntN(groups)
		return read{"range", g, fmt.Sprintf("_(p, r) <- grp[p] = %d, pair(p, r).", g)}
	}
}

func (s *inventory) checkRead(r read, rows [][]int64, cands func(k int) []int) error {
	switch r.kind {
	case "point":
		return checkPoint(rows, cands(r.key))
	case "agg":
		var sets [][]int
		for p := r.key * groupSize; p < (r.key+1)*groupSize; p++ {
			sets = append(sets, cands(p))
		}
		return checkSum(rows, sets)
	default:
		want := map[[2]int64]bool{}
		for p := r.key * groupSize; p < (r.key+1)*groupSize; p++ {
			for q := p + 1; q < (r.key+1)*groupSize; q++ {
				want[[2]int64{int64(p), int64(q)}] = true
			}
		}
		if len(rows) != len(want) {
			return fmt.Errorf("range over group %d: %d rows, want %d", r.key, len(rows), len(want))
		}
		for _, row := range rows {
			if len(row) != 2 || !want[[2]int64{row[0], row[1]}] {
				return fmt.Errorf("range over group %d: unexpected row %v", r.key, row)
			}
		}
		return nil
	}
}

func (s *inventory) state(ws *core.Workspace) (dbState, error) {
	st := dbState{base: make([]int, s.products), derived: map[string]string{}}
	rows, err := queryInts(ws, "_(p, q) <- stock[p] = q.")
	if err != nil {
		return st, err
	}
	if len(rows) != s.products {
		return st, fmt.Errorf("stock has %d rows, want %d", len(rows), s.products)
	}
	for _, r := range rows {
		if r[0] < 0 || int(r[0]) >= s.products {
			return st, fmt.Errorf("stock row for unknown product %d", r[0])
		}
		st.base[r[0]] = int(r[1])
	}
	for _, v := range []struct{ name, src string }{
		{"byGroup", "_(g, t) <- byGroup[g] = t."},
		{"low", "_(p) <- low(p)."},
		{"pair", "_(p, r) <- pair(p, r)."},
	} {
		rows, err := queryInts(ws, v.src)
		if err != nil {
			return st, err
		}
		if v.name == "byGroup" {
			st.derived[v.name] = canon(rows)
		} else {
			st.derived[v.name+".count"] = fmt.Sprint(len(rows))
		}
	}
	return st, nil
}

func (s *inventory) derive(base []int) map[string]string {
	sums := map[int]int64{}
	low := 0
	for p, q := range base {
		sums[p/groupSize] += int64(q)
		if q < lowBelow {
			low++
		}
	}
	var rows [][]int64
	for g, t := range sums {
		rows = append(rows, []int64{int64(g), t})
	}
	pairs := 0
	for g := 0; g*groupSize < len(base); g++ {
		n := min(groupSize, len(base)-g*groupSize)
		pairs += n * (n - 1) / 2
	}
	return map[string]string{
		"byGroup":    canon(rows),
		"low.count":  fmt.Sprint(low),
		"pair.count": fmt.Sprint(pairs),
	}
}

// ruleBlocks is the program of rules-durable-replica: many small blocks,
// each a functional base predicate over a few keys, selection rules at
// fixed thresholds and one total, so a transaction's fixed costs
// (compiling the whole program, journaling, replication) outweigh its
// data work.
type ruleBlocks struct{ nblocks, keys, selections int }

func (s *ruleBlocks) threshold(j int) int { return (j + 1) * 1000 / (s.selections + 1) }

func (s *ruleBlocks) pred(b int) string { return fmt.Sprintf("b%02d", b) }

func (s *ruleBlocks) blocks() []block {
	var out []block
	for b := 0; b < s.nblocks; b++ {
		p := s.pred(b)
		var src strings.Builder
		fmt.Fprintf(&src, "%s_v[k] = x -> int(k), int(x).\n", p)
		for j := 0; j < s.selections; j++ {
			fmt.Fprintf(&src, "%s_s%d(k) <- %s_v[k] = x, x >= %d.\n", p, j, p, s.threshold(j))
		}
		fmt.Fprintf(&src, "%s_tot[] = t <- agg<<t = sum(x)>> %s_v[k] = x.\n", p, p)
		out = append(out, block{p, src.String()})
	}
	return out
}

func (s *ruleBlocks) sizes() string {
	return fmt.Sprintf("blocks=%d keys_per_block=%d rules=%d", s.nblocks, s.keys, s.nblocks*(s.selections+1))
}

func (s *ruleBlocks) initial() []int {
	v := make([]int, s.nblocks*s.keys)
	for k := range v {
		v[k] = (k * 97) % 1000
	}
	return v
}

func (s *ruleBlocks) loadSrcs() []string {
	var b strings.Builder
	for k, v := range s.initial() {
		fmt.Fprintf(&b, "+%s_v[%d] = %d.\n", s.pred(k/s.keys), k%s.keys, v)
	}
	return []string{b.String()}
}

func (s *ruleBlocks) upsertSrc(k, v int) string {
	return fmt.Sprintf("^%s_v[%d] = %d.", s.pred(k/s.keys), k%s.keys, v)
}

func (s *ruleBlocks) newValue(rng *rand.Rand, c, old int) int { return freshValue(rng, c, old, 500) }

func (s *ruleBlocks) genRead(rng *rand.Rand, _ int) read {
	k := rng.IntN(s.nblocks * s.keys)
	return read{"point", k, fmt.Sprintf("_(x) <- %s_v[%d] = x.", s.pred(k/s.keys), k%s.keys)}
}

func (s *ruleBlocks) checkRead(r read, rows [][]int64, cands func(k int) []int) error {
	return checkPoint(rows, cands(r.key))
}

func (s *ruleBlocks) state(ws *core.Workspace) (dbState, error) {
	st := dbState{base: make([]int, s.nblocks*s.keys), derived: map[string]string{}}
	for b := 0; b < s.nblocks; b++ {
		p := s.pred(b)
		rows, err := queryInts(ws, fmt.Sprintf("_(k, x) <- %s_v[k] = x.", p))
		if err != nil {
			return st, err
		}
		if len(rows) != s.keys {
			return st, fmt.Errorf("%s_v has %d rows, want %d", p, len(rows), s.keys)
		}
		for _, r := range rows {
			if r[0] < 0 || int(r[0]) >= s.keys {
				return st, fmt.Errorf("%s_v row for unknown key %d", p, r[0])
			}
			st.base[b*s.keys+int(r[0])] = int(r[1])
		}
		rows, err = queryInts(ws, fmt.Sprintf("_(t) <- %s_tot[] = t.", p))
		if err != nil {
			return st, err
		}
		st.derived[p+"_tot"] = canon(rows)
		for j := 0; j < s.selections; j++ {
			rows, err := queryInts(ws, fmt.Sprintf("_(k) <- %s_s%d(k).", p, j))
			if err != nil {
				return st, err
			}
			st.derived[fmt.Sprintf("%s_s%d.count", p, j)] = fmt.Sprint(len(rows))
		}
	}
	return st, nil
}

func (s *ruleBlocks) derive(base []int) map[string]string {
	out := map[string]string{}
	for b := 0; b < s.nblocks; b++ {
		p := s.pred(b)
		var tot int64
		counts := make([]int, s.selections)
		for _, x := range base[b*s.keys : (b+1)*s.keys] {
			tot += int64(x)
			for j := range counts {
				if x >= s.threshold(j) {
					counts[j]++
				}
			}
		}
		out[p+"_tot"] = canon([][]int64{{tot}})
		for j, n := range counts {
			out[fmt.Sprintf("%s_s%d.count", p, j)] = fmt.Sprint(n)
		}
	}
	return out
}

// checkPoint accepts a one-row, one-column answer holding one of cands.
func checkPoint(rows [][]int64, cands []int) error {
	if len(rows) != 1 || len(rows[0]) != 1 {
		return fmt.Errorf("point lookup: got %v, want one of %v", rows, cands)
	}
	for _, c := range cands {
		if int64(c) == rows[0][0] {
			return nil
		}
	}
	return fmt.Errorf("point lookup: got %d, want one of %v", rows[0][0], cands)
}

// checkSum accepts a one-row aggregate equal to some choice of one
// value from each key's candidate set.
func checkSum(rows [][]int64, sets [][]int) error {
	if len(rows) != 1 || len(rows[0]) != 1 {
		return fmt.Errorf("aggregate: got %v", rows)
	}
	sums := map[int64]bool{0: true}
	for _, set := range sets {
		next := map[int64]bool{}
		for s := range sums {
			for _, v := range set {
				next[s+int64(v)] = true
			}
		}
		sums = next
	}
	if !sums[rows[0][0]] {
		return fmt.Errorf("aggregate: got %d, not a sum the acknowledged writes allow", rows[0][0])
	}
	return nil
}

// queryInts runs a query on ws and returns its rows as integers.
func queryInts(ws *core.Workspace, src string) ([][]int64, error) {
	ts, err := ws.Query(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", src, err)
	}
	rows := make([][]int64, len(ts))
	for i, t := range ts {
		row := make([]int64, len(t))
		for j, v := range t {
			n, ok := numeric(v)
			if !ok {
				return nil, fmt.Errorf("%s: non-numeric value %v", src, v)
			}
			row[j] = n
		}
		rows[i] = row
	}
	return rows, nil
}

func numeric(v tuple.Value) (int64, bool) {
	f, ok := v.Numeric()
	return int64(f), ok && f == float64(int64(f))
}

// canon renders rows in a canonical order.
func canon(rows [][]int64) string {
	ss := make([]string, len(rows))
	for i, r := range rows {
		ss[i] = fmt.Sprint(r)
	}
	sort.Strings(ss)
	return strings.Join(ss, ";")
}
