package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// ruleHeads are the views of the inventory program whose re-derivation
// is reported rule by rule; other heads are summed.
var ruleHeads = []string{"pair", "byGroup", "low"}

// traceSlices starts alternating the clients between untraced and
// traced slices of 250 ms, so the tracing overhead is measured against
// the same workload state and the per-layer metrics come from the
// traced slices, and samples the follower's lag every 10 ms. The
// returned function stops it and returns the largest lag it saw.
func (rs *runState) traceSlices() func() uint64 {
	f := rs.sys.follower
	stop := make(chan struct{})
	sampled := make(chan uint64)
	go func() {
		var lagMax uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for i := 1; ; i++ {
			select {
			case <-stop:
				rs.tr.on.Store(false)
				sampled <- lagMax
				return
			case <-tick.C:
			}
			if i%25 == 0 {
				rs.tr.on.Store(!rs.tr.on.Load())
			}
			if f != nil {
				lagMax = max(lagMax, f.Status().LagSeq)
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-sampled
	}
}

// tracedMetrics computes the per-layer metrics of a traced window.
func (rs *runState) tracedMetrics(ws *windowStats) *result {
	ms := rs.layerMetrics(ws)
	if rs.w.follower {
		ms["replica.apply_per_s"] = metric{Value: float64(ws.applied) / ws.el.Seconds(), Unit: "1/s"}
	} else {
		ms["replica.apply_per_s"] = metric{Value: 0, Unit: "1/s", desc: "no follower"}
	}
	ms["replica.lag_seq_max"] = metric{Value: float64(ws.lagMax), Unit: "count", desc: "max of Follower.Status().LagSeq sampled every 10 ms"}
	ms["core.versions_retained"] = metric{Value: float64(ws.versions), Unit: "count", desc: "Database.Versions() at the end of a full round"}
	desc := fmt.Sprintf("over %d sequential commits at the end of the last round", rs.w.heapCommits)
	ms["heap_bytes_per_commit"] = metric{Value: ws.heapPer, Unit: "B", desc: "post-GC heap growth " + desc}
	ms["treap.nodes_per_commit"] = metric{Value: ws.nodesPer, Unit: "count", desc: desc}
	ms["treap.shared_subtrees_per_commit"] = metric{Value: ws.sharedPer, Unit: "count", desc: desc}
	return &result{Metrics: ms}
}

// layerMetrics computes the per-layer metrics of the traced window from
// the traced requests' spans and the registry's counters.
func (rs *runState) layerMetrics(ws *windowStats) map[string]metric {
	out := map[string]metric{}
	put := func(name string, v float64, unit, desc string) { out[name] = metric{Value: v, Unit: unit, desc: desc} }
	delta := func(name string) float64 { return float64(ws.counters[name]) }

	qw := ws.queueWait
	put("server.queue_wait_p50_ms", ms(qw.Quantile(0.5)), "ms", fmt.Sprintf("n=%d, power-of-two buckets", qw.Count))
	put("server.queue_wait_p99_ms", ms(qw.Quantile(0.99)), "ms", fmt.Sprintf("n=%d, power-of-two buckets", qw.Count))
	commits, retries := delta("server.commits"), delta("server.commit.retries")
	put("server.retries_per_commit", ratio(retries, commits), "ratio", "")
	put("server.repairs_per_commit", ratio(delta("server.commit.repairs"), commits), "ratio", "")
	put("server.full_reexecs", delta("server.commit.full_reexecs"), "count", "")
	put("server.conflicts", delta("server.commit.conflicts"), "count", "commits that ended in 409")
	put("server.useful_ratio", ratio(commits, commits+retries), "ratio", "commits / (commits + retries)")
	reused, evaluated := delta("core.rederive.rules_reused"), delta("core.rederive.rules_evaluated")
	put("core.rederive.reuse_ratio", ratio(reused, reused+evaluated), "ratio", "")
	put("core.repair.repaired_ratio", ratio(delta("core.repair.repaired"), delta("core.repair.attempts")), "ratio", "repairs / repair attempts")

	// Join work of the window's rule evaluations. The query path records
	// no rule stats, so this is view maintenance work; rule ids repeat
	// across compilations, so only the total is meaningful.
	put("engine.join_steps_per_commit", ratio(float64(ws.joinSteps), commits), "count", "LFTJ seeks+nexts of all rule evaluations per commit")

	// Span-derived layer times, per endpoint.
	t := rs.tr
	t.mu.Lock()
	ops := append([]*tracedOp(nil), t.ops...)
	jbytes := append([]int64(nil), t.jbytes...)
	t.mu.Unlock()
	b := map[string]map[string]time.Duration{"exec": {}, "query": {}}
	handler := map[string][]float64{}
	var overhead, hooks []float64
	for _, o := range ops {
		if o.tree == nil || o.handler.start.IsZero() || o.kind == "" {
			continue
		}
		h := o.handler.end.Sub(o.handler.start)
		handler[o.kind] = append(handler[o.kind], ms(h))
		overhead = append(overhead, ms(o.client.end.Sub(o.client.start)-h))
		var hook time.Duration
		for _, x := range o.hook {
			hook += x.end.Sub(x.start)
			hooks = append(hooks, ms(x.end.Sub(x.start)))
		}
		buckets(*o.tree, hook, b[o.kind])
		b[o.kind]["handler"] += h
		b[o.kind]["gap"] += h - o.tree.Duration
	}
	put("server.handler_ms.exec", median(handler["exec"]), "ms", fmt.Sprintf("median of n=%d traced execs", len(handler["exec"])))
	put("server.handler_ms.query", median(handler["query"]), "ms", fmt.Sprintf("median of n=%d traced queries", len(handler["query"])))
	put("bench.http_overhead_ms", median(overhead), "ms", "median client round trip minus handler time")
	nExec, nQuery := float64(len(handler["exec"])), float64(len(handler["query"]))
	for _, p := range []string{"parse", "compile", "eval_reactive", "frame", "rederive", "constraints"} {
		v := b["exec"]["core."+p]
		put("core.exec."+p+"_ms", ratio(ms(v), nExec), "ms", "mean self time per exec")
		put("core.exec."+p+"_share", ratio(float64(v), float64(b["exec"]["handler"])), "ratio", "of exec handler time")
	}
	for _, p := range []string{"parse", "compile", "eval"} {
		v := b["query"]["core."+p]
		put("core.query."+p+"_ms", ratio(ms(v), nQuery), "ms", "mean self time per query")
		put("core.query."+p+"_share", ratio(float64(v), float64(b["query"]["handler"])), "ratio", "of query handler time")
	}
	other := time.Duration(0)
	for name, v := range b["exec"] {
		head, ok := strings.CutPrefix(name, "rule:")
		if ok && !slices.Contains(ruleHeads, head) {
			other += v
		}
	}
	for _, h := range ruleHeads {
		put("engine.rule_ms."+h, ratio(ms(b["exec"]["rule:"+h]), nExec), "ms", "mean re-derivation time per exec")
	}
	put("engine.rule_ms.other", ratio(ms(other), nExec), "ms", "mean re-derivation time per exec, other heads")
	put("durable.log_commit_p50_ms", median(hooks), "ms", fmt.Sprintf("n=%d", len(hooks)))
	put("durable.log_commit_p99_ms", quantile(hooks, tailQuantile), "ms", tailDesc(tailQuantile, len(hooks)))
	put("durable.log_commit_count", float64(len(hooks)), "count", "traced commits")
	put("durable.log_commit_share", ratio(float64(b["exec"]["durable"]), float64(b["exec"]["handler"])), "ratio", "of exec handler time")
	jb := make([]float64, len(jbytes))
	for i, n := range jbytes {
		jb[i] = float64(n)
	}
	put("durable.journal_bytes_per_commit", mean(jb), "B", "journal growth per traced commit")

	// The overhead of tracing: median latency of traced requests against
	// untraced ones per op kind, weighted by the traced requests' mix.
	lat := map[bool]map[string][]float64{false: {}, true: {}}
	for _, s := range ws.ss {
		if s.ok {
			lat[s.traced][s.op] = append(lat[s.traced][s.op], ms(s.lat))
		}
	}
	var tr, un float64
	for op, xs := range lat[true] {
		if n := float64(len(xs)); len(lat[false][op]) > 0 {
			tr += n * median(xs)
			un += n * median(lat[false][op])
		}
	}
	put("trace_overhead_frac", ratio(tr, un)-1, "ratio", "median traced latency / median untraced latency - 1, per op kind")

	var all, handled time.Duration
	for _, kind := range []string{"exec", "query"} {
		for name, v := range b[kind] {
			if name != "handler" && name != "gap" {
				all += v
			}
		}
		handled += b[kind]["handler"]
	}
	unacc := ratio(float64(handled-all), float64(handled))
	put("trace.unaccounted_frac", unacc, "ratio", fmt.Sprintf("share of handler time outside every layer bucket (tolerance %.2f)", rs.o.traceTolerance))
	if unacc > rs.o.traceTolerance || unacc < 0 {
		rs.wrong = append(rs.wrong, fmt.Errorf("trace: layer buckets leave %.3f of handler time unaccounted, tolerance %.2f", unacc, rs.o.traceTolerance))
	}
	rs.printTable(b, handler)
	return out
}

// printTable prints, per endpoint, where the traced handler time went.
func (rs *runState) printTable(b map[string]map[string]time.Duration, handler map[string][]float64) {
	fmt.Fprintf(rs.out, "per-layer self time of traced requests (ivm and optimizer: not reached, lb-serve runs without -adaptive-opt)\n")
	for _, kind := range []string{"exec", "query"} {
		n := len(handler[kind])
		if n == 0 {
			continue
		}
		total := b[kind]["handler"]
		fmt.Fprintf(rs.out, "  %s (n=%d, handler %.3f ms/op)\n", kind, n, ms(total)/float64(n))
		rows := map[string]time.Duration{}
		for name, v := range b[kind] {
			if head, ok := strings.CutPrefix(name, "rule:"); ok && !slices.Contains(ruleHeads, head) {
				name = "rule:(other heads)"
			}
			if name != "handler" {
				rows[name] += v
			}
		}
		names := make([]string, 0, len(rows))
		for name := range rows {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return rows[names[i]] > rows[names[j]] })
		for _, name := range names {
			v := rows[name]
			fmt.Fprintf(rs.out, "    %-24s %10.4f ms/op %6.1f%%\n", name, ms(v)/float64(n), 100*float64(v)/float64(total))
		}
	}
}

// finishTrace adds the checkpoint metrics and writes the span file.
func (rs *runState) finishTrace(res *result, base string) error {
	t := rs.tr
	t.mu.Lock()
	var durs, bytes []float64
	for _, s := range t.saves {
		durs = append(durs, ms(s.end.Sub(s.start)))
		bytes = append(bytes, float64(s.bytes))
	}
	t.mu.Unlock()
	res.Metrics["durable.checkpoint_ms"] = metric{Value: mean(durs), Unit: "ms", desc: "mean snapshot save time per checkpoint"}
	res.Metrics["durable.checkpoint_count"] = metric{Value: float64(len(durs)), Unit: "count", desc: "checkpoints after set-up, each round's closing one included"}
	res.Metrics["durable.snapshot_bytes"] = metric{Value: mean(bytes), Unit: "B", desc: "mean snapshot payload"}
	recs := t.records()
	path := filepath.Join(filepath.Dir(base), fmt.Sprintf("spans-%s-%d.jsonl", rs.w.name, rs.o.seed))
	if err := writeSpans(path, recs); err != nil {
		return err
	}
	fmt.Fprintf(rs.out, "spans: %d written to %s\n", len(recs), path)
	return nil
}
