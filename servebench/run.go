package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"logicblox/internal/core"
	"logicblox/internal/durable"
	"logicblox/internal/obs"
	"logicblox/internal/relation"
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// setups is how many times the system is set up from an empty data
	// directory before the first round; setup_s is the median of these
	// and of every round's set-up, and the last one is measured.
	setups int
	// workDir holds the run's data directories and span files.
	workDir string
	// traceTolerance bounds the share of handler time the traced
	// breakdown may leave unattributed.
	traceTolerance float64
	// corrupt, when set, rewrites query answers before they are checked.
	corrupt func([][]int64) [][]int64
}

func defaultOptions() options {
	return options{
		setups:  3,
		workDir: filepath.Join(".bench_build", "runs"), traceTolerance: 0.05,
	}
}

// runState is what one run accumulates.
type runState struct {
	o         options
	w         *workload
	out       io.Writer
	sys       *system
	m         *model
	tr        *tracer
	cs        []*client
	setups    []float64 // seconds of every set-up from an empty data directory
	audited   int       // databases the audit has checked
	attempted int
	failed    int
	wrong     []error   // wrong answers and audit mismatches
	lags      []float64 // replication lag per acknowledged write, ms; written by the lag watcher
}

// count tallies finished operations, keeping the first few wrong
// answers.
func (rs *runState) count(ss []sample) {
	for _, s := range ss {
		rs.attempted++
		if !s.ok {
			rs.failed++
			if len(rs.wrong) < 5 && errors.Is(s.err, errWrongAnswer) {
				rs.wrong = append(rs.wrong, s.err)
			}
		}
	}
}

// run performs one run of workload w and returns its result; the
// report lines go to out.
func run(o options, w *workload, out io.Writer) (*result, error) {
	rs := &runState{o: o, w: w, out: out}
	base, err := filepath.Abs(filepath.Join(o.workDir, fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	if o.trace {
		rs.tr = newTracer()
	}
	fmt.Fprintf(out, "servebench workload=%s seed=%d seconds=%d trace=%v\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "env nproc=%d GOMAXPROCS=%d go=%s fsync=%s checkpoint_every=256 repair=on storage_stats=on clients=%d cycles=%q follower=%v warm_commits=%d round_commits=%d %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), durable.FsyncAlways,
		len(w.clients), w.clients, w.follower, w.warmCommits, w.roundCommits, w.spec.sizes())

	defer func() {
		if rs.sys != nil {
			rs.sys.close()
		}
	}()
	for i := 0; i < o.setups; i++ {
		if err := rs.rebuild(filepath.Join(base, fmt.Sprintf("setup%d", i))); err != nil {
			return nil, err
		}
	}
	for i := range w.clients {
		c := newClient(i, o.seed, w, rs.tr)
		c.corrupt = o.corrupt
		defer c.closeIdle()
		rs.cs = append(rs.cs, c)
	}
	ws, err := rs.window(base)
	if err != nil {
		return nil, err
	}
	setupS := metric{Value: median(rs.setups), Unit: "s", desc: fmt.Sprintf("median of %d set-ups from an empty data dir", len(rs.setups))}
	recoveryS := metric{Value: median(ws.recoveries), Unit: "s",
		desc: fmt.Sprintf("median of %d durable.Open+Recover, %d per round, after a checkpoint and %d more commits", len(ws.recoveries), w.recoveries, w.tailCommits)}
	var res *result
	if o.trace {
		res = rs.tracedMetrics(ws)
		rs.report(map[string]metric{"setup_s": setupS, "recovery_s": recoveryS})
		res.Metrics["durable.recover_replayed"] = metric{Value: float64(ws.replayed), Unit: "count", desc: "journal records replayed by the last recovery"}
		if err := rs.finishTrace(res, base); err != nil {
			return nil, err
		}
	} else {
		res = rs.endToEnd(ws)
		res.Metrics["setup_s"] = setupS
		res.Metrics["recovery_s"] = recoveryS
	}
	fmt.Fprintf(out, "audit: %d databases checked against the model and each other\n", rs.audited)
	res.Attempted, res.Failed = rs.attempted, rs.failed
	res.Correct = len(rs.wrong) == 0
	for _, e := range rs.wrong {
		fmt.Fprintln(out, "WRONG:", e)
	}
	fmt.Fprintf(out, "ops attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	printMetrics(out, res.Metrics)
	return res, nil
}

// rebuild shuts the current system down, if there is one, and sets a
// new one up in dir, an empty data directory, recording how long the
// set-up took.
func (rs *runState) rebuild(dir string) error {
	if rs.sys != nil {
		err := rs.sys.close()
		os.RemoveAll(rs.sys.dir)
		rs.sys = nil
		if err != nil {
			return err
		}
		runtime.GC()
	}
	t0 := time.Now()
	sys, err := start(dir, rs.w.follower, rs.tr)
	if err != nil {
		return err
	}
	rs.sys = sys
	if err := rs.load(); err != nil {
		return err
	}
	rs.setups = append(rs.setups, time.Since(t0).Seconds())
	return nil
}

// load installs the program and the data over HTTP, waits for the
// follower to catch up and checkpoints the loaded data, as an lb-serve
// restarted after its bulk load would have (it checkpoints at
// shutdown). Without that checkpoint the primary's first automatic one
// moves its journal floor past a follower that is a record or two
// behind, and the follower falls back to a snapshot resync in about
// half of the rounds.
func (rs *runState) load() error {
	c := newClient(-1, 0, rs.w, nil)
	c.attach(rs.sys.url, nil)
	defer c.closeIdle()
	var rep execReply
	for _, b := range rs.w.spec.blocks() {
		if _, err := c.post("/addblock", "setup", false, map[string]string{"name": b.name, "src": b.src}, &rep); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	for _, src := range rs.w.spec.loadSrcs() {
		if _, err := c.post("/exec", "setup", false, map[string]string{"src": src}, &rep); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := rs.sys.caughtUp(ctx); err != nil {
		return err
	}
	if err := rs.sys.store.Checkpoint(rs.sys.db.SaveSnapshot); err != nil {
		return fmt.Errorf("set-up checkpoint: %w", err)
	}
	return nil
}

// windowStats is what the measured parts of a window's rounds add up
// to.
type windowStats struct {
	ss         []sample
	el         time.Duration // measured time; set-up, warm-up and the end of rounds excluded
	rounds     int
	heaps      []float64 // post-GC live heap at the end of each full round, bytes
	roundP50   []float64 // each round's median exec latency, ms
	versions   int       // Database.Versions() at the end of a full round
	recoveries []float64 // seconds of every recovery
	replayed   int       // journal records the last recovery replayed
	// The traced run's heap and treap slopes.
	heapPer, nodesPer, sharedPer float64
	// The traced run's registry deltas over the measured parts.
	counters  map[string]int64
	queueWait obs.HistogramSnapshot
	joinSteps int64
	applied   int64 // records the follower applied
	lagMax    uint64
}

// window runs rounds until their measured parts add up to --seconds.
// Every round runs on a freshly set-up system: warmCommits unmeasured
// upserts, then the measured part until roundCommits upserts or the end
// of the window, then endRound's checkpoint, audit and recovery.
func (rs *runState) window(base string) (*windowStats, error) {
	ws := &windowStats{counters: map[string]int64{}, queueWait: obs.HistogramSnapshot{Buckets: map[int64]int64{}}}
	left := time.Duration(rs.o.seconds) * time.Second
	for r := 0; ; r++ {
		if r > 0 {
			if err := rs.rebuild(filepath.Join(base, fmt.Sprintf("round%d", r))); err != nil {
				return nil, err
			}
		}
		rs.m = newModel(rs.w.spec.initial())
		for _, c := range rs.cs {
			c.attach(rs.sys.url, rs.m)
		}
		ss, _ := runClients(context.Background(), rs.cs, rs.w.warmCommits)
		rs.count(ss)
		ss, el := rs.measure(ws, left)
		ws.roundP50 = append(ws.roundP50, median(latencies(ss, "exec")))
		ws.ss = append(ws.ss, ss...)
		ws.el += el
		ws.rounds++
		left -= el
		last := left <= 0
		// The live heap and the version count are taken after the same
		// number of commits in every round; a round the window's end
		// cut short counts only if no round was full.
		if upserts(ss) == rs.w.roundCommits || last && len(ws.heaps) == 0 {
			ws.heaps = append(ws.heaps, liveHeap())
			ws.versions = rs.sys.db.Versions()
		}
		if last && rs.tr != nil {
			ws.heapPer, ws.nodesPer, ws.sharedPer = rs.heapSlope(rs.w.heapCommits)
		}
		if err := rs.endRound(ws); err != nil {
			return nil, err
		}
		if last {
			return ws, nil
		}
	}
}

// measure runs the measured part of a round for at most left.
func (rs *runState) measure(ws *windowStats, left time.Duration) ([]sample, time.Duration) {
	stopLag := rs.watchLag()
	var before, fBefore obs.Snapshot
	stopSlices := func() uint64 { return 0 }
	if rs.tr != nil {
		before, fBefore = rs.sys.reg.Snapshot(), rs.sys.freg.Snapshot()
		stopSlices = rs.traceSlices()
	}
	ctx, cancel := context.WithTimeout(context.Background(), left)
	ss, el := runClients(ctx, rs.cs, rs.w.roundCommits)
	cancel()
	ws.lagMax = max(ws.lagMax, stopSlices())
	stopLag()
	rs.count(ss)
	if rs.tr != nil {
		ws.add(before, rs.sys.reg.Snapshot())
		fAfter := rs.sys.freg.Snapshot()
		ws.applied += fAfter.Counters["replica.records_applied"] - fBefore.Counters["replica.records_applied"]
	}
	return ss, el
}

// add accumulates the registry's change from before to after.
func (ws *windowStats) add(before, after obs.Snapshot) {
	for name, v := range after.Counters {
		ws.counters[name] += v - before.Counters[name]
	}
	d := histDelta(before.Histograms["server.queue.wait"], after.Histograms["server.queue.wait"])
	ws.queueWait.Count += d.Count
	ws.queueWait.Sum += d.Sum
	ws.queueWait.Max = max(ws.queueWait.Max, d.Max)
	for b, n := range d.Buckets {
		ws.queueWait.Buckets[b] += n
	}
	for _, r := range after.Rules {
		ws.joinSteps += r.Seeks + r.Nexts
	}
	for _, r := range before.Rules {
		ws.joinSteps -= r.Seeks + r.Nexts
	}
}

// latencies returns the latencies of the successful operations of a
// kind among ss, in ms.
func latencies(ss []sample, kind string) []float64 {
	var out []float64
	for _, s := range ss {
		if s.ok && s.kind == kind {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

// upserts counts the upserts among ss.
func upserts(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.kind == "exec" {
			n++
		}
	}
	return n
}

// liveHeap returns the live heap after a full collection, in bytes.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// watchLag starts, when a follower runs, the goroutine that times each
// acknowledged write until the follower holds it durably. The
// returned function stops it and waits for it.
func (rs *runState) watchLag() func() {
	if rs.sys.follower == nil {
		return func() {}
	}
	// Sized above the commits one client can make in a round, so a slow
	// follower never blocks the client that reports to it.
	ch := make(chan ackedSeq, 1<<16)
	rs.cs[0].lags, rs.cs[0].primarySeq = ch, rs.sys.db.Seq
	sys := rs.sys
	done := make(chan struct{})
	var lagErrs []error
	go func() {
		defer close(done)
		for a := range ch {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := sys.waitFollower(ctx, a.seq)
			cancel()
			got := time.Now()
			if err != nil {
				lagErrs = append(lagErrs, fmt.Errorf("follower never got seq %d: %w", a.seq, err))
			} else {
				rs.lags = append(rs.lags, ms(got.Sub(a.at)))
			}
			if rs.tr != nil && rs.tr.active() {
				rs.tr.addLag(a.req, a.at, got)
			}
		}
	}()
	return func() {
		rs.cs[0].lags, rs.cs[0].primarySeq = nil, nil
		close(ch)
		<-done
		rs.failed += len(lagErrs)
		rs.wrong = append(rs.wrong, lagErrs...)
	}
}

// endToEnd computes the end-to-end metrics of an untraced window.
func (rs *runState) endToEnd(ws *windowStats) *result {
	execs, queries := latencies(ws.ss, "exec"), latencies(ws.ss, "query")
	failed := len(ws.ss) - len(execs) - len(queries)
	w, secs := rs.w, ws.el.Seconds()
	ms := map[string]metric{
		"exec_p50_ms":   {Value: median(execs), Unit: "ms", desc: fmt.Sprintf("n=%d", len(execs))},
		"exec_p99_ms":   {Value: quantile(execs, tailQuantile), Unit: "ms", desc: tailDesc(tailQuantile, len(execs))},
		"query_p50_ms":  {Value: median(queries), Unit: "ms", desc: fmt.Sprintf("n=%d", len(queries))},
		"query_p99_ms":  {Value: quantile(queries, tailQuantile), Unit: "ms", desc: tailDesc(tailQuantile, len(queries))},
		"commits_per_s": {Value: float64(len(execs)) / secs, Unit: "1/s", desc: fmt.Sprintf("over %.2f s measured in %d rounds", secs, ws.rounds)},
		"queries_per_s": {Value: float64(len(queries)) / secs, Unit: "1/s"},
		"heap_live_mib": {Value: median(ws.heaps) / (1 << 20), Unit: "MiB",
			desc: fmt.Sprintf("median over %d rounds of the post-GC live heap after %d commits", len(ws.heaps), w.warmCommits+w.roundCommits)},
	}
	tails := func(xs []float64) string {
		return fmt.Sprintf("p75=%.4f p85=%.4f p90=%.4f p95=%.4f p98=%.4f ms", quantile(xs, 0.75), quantile(xs, 0.85), quantile(xs, 0.9), quantile(xs, 0.95), quantile(xs, 0.98))
	}
	fmt.Fprintf(rs.out, "exec tail: %s\nquery tail: %s\n", tails(execs), tails(queries))
	fmt.Fprintf(rs.out, "exec p50 per round: %.4g ms\n", ws.roundP50)
	rs.report(map[string]metric{
		"fail_frac": {Value: ratio(float64(failed), float64(len(ws.ss))), Unit: "ratio", desc: fmt.Sprintf("%d of %d ops in the window", failed, len(ws.ss))},
	})
	if rs.w.follower {
		rs.report(map[string]metric{
			"replica_lag_p50_ms": {Value: median(rs.lags), Unit: "ms", desc: fmt.Sprintf("n=%d", len(rs.lags))},
			"replica_lag_p99_ms": {Value: quantile(rs.lags, tailQuantile), Unit: "ms", desc: tailDesc(tailQuantile, len(rs.lags))},
		})
	}
	return &result{Metrics: ms}
}

// report prints metrics that are not part of the final JSON object.
func (rs *runState) report(ms map[string]metric) { printMetrics(rs.out, ms) }

func tailDesc(q float64, n int) string {
	return fmt.Sprintf("p%g of n=%d (%d samples beyond it)", q*100, n, int(float64(n)*(1-q)))
}

// auditLive waits for the follower to catch up and reads the primary's
// and the follower's state, checking each against the model. It reads
// them before shutdown, so their databases are garbage by the time
// recovery is timed.
func (rs *runState) auditLive() map[string]dbState {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	err := rs.sys.caughtUp(ctx)
	cancel()
	if err != nil {
		rs.mismatch(err)
	}
	states := map[string]dbState{}
	rs.check(states, "primary", rs.sys.db)
	if rs.sys.follower != nil {
		rs.check(states, "follower", rs.sys.follower.DB())
	}
	return states
}

// agree checks that every database of states holds what the primary
// holds.
func (rs *runState) agree(states map[string]dbState) {
	for name, st := range states {
		if err := sameState(states["primary"], st); err != nil {
			rs.mismatch(fmt.Errorf("%s differs from primary: %w", name, err))
		}
	}
}

// endRound checkpoints the round's primary, makes the workload's tail
// commits, audits the model, the primary and the follower, stops the
// system (as a crash after the last ack would leave it), recovers the
// primary's data directory and audits the recovered database. The
// recovery replays the same number of journal records in every round.
func (rs *runState) endRound(ws *windowStats) error {
	if err := rs.sys.store.Checkpoint(rs.saveFunc()); err != nil {
		return fmt.Errorf("end-of-round checkpoint: %w", err)
	}
	rs.commits(rs.w.tailCommits)
	states := rs.auditLive()
	dir := rs.sys.dir
	defer os.RemoveAll(dir)
	err := rs.sys.close()
	rs.sys = nil
	if err != nil {
		return err
	}
	for i := 0; i < rs.w.recoveries; i++ {
		runtime.GC()
		db, el, n, err := recoverPrimary(dir)
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		ws.replayed = n
		ws.recoveries = append(ws.recoveries, el.Seconds())
		if i == rs.w.recoveries-1 {
			rs.check(states, "recovered", db)
		}
	}
	rs.agree(states)
	return nil
}

// saveFunc is the checkpoint save function, wrapped in the traced run.
func (rs *runState) saveFunc() durable.SaveFunc {
	save := durable.SaveFunc(rs.sys.db.SaveSnapshot)
	if rs.tr != nil {
		save = rs.tr.wrapSave(save)
	}
	return save
}

// commits makes n upserts from the first client, one after another.
func (rs *runState) commits(n int) {
	c := rs.cs[0]
	var ss []sample
	for i := 0; i < n; i++ {
		ss = append(ss, c.exec(c.rng.IntN(len(rs.m.init))))
	}
	rs.count(ss)
}

// mismatch records an audit failure, which counts as a wrong answer.
func (rs *runState) mismatch(err error) {
	rs.failed++
	rs.wrong = append(rs.wrong, fmt.Errorf("audit: %w", err))
}

// check reads db's state into states[name], checking its base values
// against the model and its views against its base values.
func (rs *runState) check(states map[string]dbState, name string, db *core.Database) {
	ws, err := db.Workspace(core.DefaultBranch)
	if err != nil {
		rs.mismatch(fmt.Errorf("%s: %w", name, err))
		return
	}
	st, err := rs.w.spec.state(ws)
	if err != nil {
		rs.mismatch(fmt.Errorf("%s: %w", name, err))
		return
	}
	if err := rs.m.checkBase(st.base); err != nil {
		rs.mismatch(fmt.Errorf("%s: %w", name, err))
	}
	for view, want := range rs.w.spec.derive(st.base) {
		if got := st.derived[view]; got != want {
			rs.mismatch(fmt.Errorf("%s: %s is %.80q, its base data implies %.80q", name, view, got, want))
		}
	}
	states[name] = st
	rs.audited++
}

func sameState(a, b dbState) error {
	if len(a.base) != len(b.base) {
		return fmt.Errorf("%d keys vs %d", len(a.base), len(b.base))
	}
	for k := range a.base {
		if a.base[k] != b.base[k] {
			return fmt.Errorf("key %d: %d vs %d", k, a.base[k], b.base[k])
		}
	}
	for view, v := range a.derived {
		if b.derived[view] != v {
			return fmt.Errorf("view %s differs", view)
		}
	}
	return nil
}

// heapSlope makes n sequential commits and returns the post-GC heap
// growth, treap nodes allocated and shared subtrees per commit.
func (rs *runState) heapSlope(n int) (heapPer, nodesPer, sharedPer float64) {
	h0, st0 := liveHeap(), relation.ReadStorageStats()
	rs.commits(n)
	h1, st1 := liveHeap(), relation.ReadStorageStats()
	c := float64(n)
	return (h1 - h0) / c, float64(st1.NodesAllocated-st0.NodesAllocated) / c, float64(st1.SharedSubtrees-st0.SharedSubtrees) / c
}
