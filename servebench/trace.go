package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"logicblox/internal/core"
	"logicblox/internal/durable"
	"logicblox/internal/obs"
)

// tracer is the traced run's span recorder. Its spans come from the
// benchmark's own wrappers around the calls into each layer (client,
// handler, commit hook, checkpoint save, follower WaitSeq) and from the
// span trees the program returns for ?trace=1 requests; it adds no span
// inside the program. Spans stay in memory until the run writes them
// out once at the end. A nil *tracer records nothing.
type tracer struct {
	on    atomic.Bool // requests sent while set are traced
	epoch time.Time

	mu       sync.Mutex
	ops      []*tracedOp
	byReq    map[string]*tracedOp
	srcReq   map[string]string // exec source -> request id
	saves    []timed
	jbytes   []int64 // journal growth per traced commit
	lagSpans []timed
}

// timed is one wrapper span.
type timed struct {
	req        string
	start, end time.Time
	bytes      int64
}

// tracedOp is everything recorded about one traced request.
type tracedOp struct {
	kind    string // "exec" or "query"
	req     string
	client  timed
	handler timed
	hook    []timed
	tree    *obs.SpanSnapshot
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byReq: map[string]*tracedOp{}, srcReq: map[string]string{}}
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) op(req string) *tracedOp {
	o := t.byReq[req]
	if o == nil {
		o = &tracedOp{req: req}
		t.byReq[req] = o
		t.ops = append(t.ops, o)
	}
	return o
}

// expectCommit registers a traced exec's source so the commit hook can
// attribute its journal append to the request.
func (t *tracer) expectCommit(src, req string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.srcReq[src] = req
}

// addOp records a traced request's client-side span and the program's
// span tree from its reply.
func (t *tracer) addOp(kind, req string, start time.Time, lat time.Duration, tree *obs.SpanSnapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := t.op(req)
	o.kind = kind
	o.client = timed{req: req, start: start, end: start.Add(lat)}
	o.tree = tree
}

func (t *tracer) addLag(req string, ack, got time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lagSpans = append(t.lagSpans, timed{req: req, start: ack, end: got})
}

// wrapHandler times every traced request through the server's handler.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("trace") != "1" {
			h.ServeHTTP(w, r)
			return
		}
		req := r.Header.Get("X-Request-ID")
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		t.mu.Lock()
		t.op(req).handler = timed{req: req, start: t0, end: t1}
		t.mu.Unlock()
	})
}

// wrapHook times the journal append of every traced commit and the
// journal's growth across it.
func (t *tracer) wrapHook(next core.CommitHook, journal string) core.CommitHook {
	return func(rec core.CommitRecord) error {
		t.mu.Lock()
		req, ok := t.srcReq[rec.Src]
		t.mu.Unlock()
		if !ok {
			return next(rec)
		}
		size0 := fileSize(journal)
		t0 := time.Now()
		err := next(rec)
		t1 := time.Now()
		grew := fileSize(journal) - size0
		t.mu.Lock()
		defer t.mu.Unlock()
		o := t.op(req)
		o.hook = append(o.hook, timed{req: req, start: t0, end: t1})
		if grew > 0 {
			t.jbytes = append(t.jbytes, grew)
		}
		return err
	}
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// wrapSave times every checkpoint's snapshot save and counts its bytes.
func (t *tracer) wrapSave(next durable.SaveFunc) durable.SaveFunc {
	return func(w io.Writer) (uint64, error) {
		cw := &countingWriter{w: w}
		t0 := time.Now()
		seq, err := next(cw)
		t1 := time.Now()
		t.mu.Lock()
		t.saves = append(t.saves, timed{start: t0, end: t1, bytes: cw.n})
		t.mu.Unlock()
		return seq, err
	}
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// spanRecord is one line of the span file.
type spanRecord struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's epoch
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// records flattens every span into one list, joining the program's span
// trees under the handler span of the request that produced them, each
// journal append under the program's root span of its request, and each
// replication lag under the client span of the write it follows.
func (t *tracer) records() []spanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []spanRecord
	add := func(parent int, req, name string, start, end time.Time, bytes int64) int {
		id := len(out)
		out = append(out, spanRecord{ID: id, Parent: parent, Req: req, Name: name,
			Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Bytes: bytes})
		return id
	}
	var tree func(parent int, req string, s obs.SpanSnapshot) int
	tree = func(parent int, req string, s obs.SpanSnapshot) int {
		id := add(parent, req, s.Name, s.Start, s.Start.Add(s.Duration), 0)
		for _, c := range s.Children {
			tree(id, req, c)
		}
		return id
	}
	clientSpan := map[string]int{}
	for _, o := range t.ops {
		if o.kind == "" {
			continue // only a wrapper saw it
		}
		cid := add(-1, o.req, "client."+o.kind, o.client.start, o.client.end, 0)
		clientSpan[o.req] = cid
		parent := cid
		if !o.handler.start.IsZero() {
			parent = add(cid, o.req, "handler."+o.kind, o.handler.start, o.handler.end, 0)
		}
		if o.tree != nil {
			parent = tree(parent, o.req, *o.tree)
		}
		for _, h := range o.hook {
			add(parent, o.req, "durable.log_commit", h.start, h.end, 0)
		}
	}
	for _, l := range t.lagSpans {
		parent, ok := clientSpan[l.req]
		if !ok {
			parent = -1
		}
		add(parent, l.req, "replica.lag", l.start, l.end, 0)
	}
	for _, s := range t.saves {
		add(-1, "", "durable.checkpoint_save", s.start, s.end, s.bytes)
	}
	return out
}

// writeSpans writes the span file, one JSON record per line.
func writeSpans(path string, recs []spanRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(s obs.SpanSnapshot) time.Duration {
	type iv struct{ a, b time.Time }
	end := s.Start.Add(s.Duration)
	var ivs []iv
	for _, c := range s.Children {
		a, b := c.Start, c.Start.Add(c.Duration)
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.Duration - covered
}

// corePhases are the named phases of a transaction span (tx.exec,
// tx.repair, tx.query) the breakdown reports one by one.
var corePhases = map[string]string{
	"parse": "parse", "compile": "compile", "eval.reactive": "eval_reactive",
	"frame": "frame", "rederive": "rederive", "constraints": "constraints", "eval": "eval",
}

// buckets attributes every nanosecond of a request's program span tree
// to exactly one layer bucket by self time:
//
//	server        the http.<endpoint> root, less the journal append
//	durable       the journal append (commit hook)
//	core.<phase>  a transaction phase (parse, compile, ...)
//	core.tx       the transaction span itself, and unnamed phases
//	rule:<head>   a rule evaluated while re-deriving views
//	engine        everything below a phase (strata, reactive rules, joins)
func buckets(root obs.SpanSnapshot, hook time.Duration, into map[string]time.Duration) {
	into["server"] += max(0, selfTime(root)-hook)
	into["durable"] += hook
	for _, tx := range root.Children {
		if !strings.HasPrefix(tx.Name, "tx.") {
			into["engine"] += tx.Duration
			continue
		}
		into["core.tx"] += selfTime(tx)
		for _, ph := range tx.Children {
			name, ok := corePhases[ph.Name]
			if !ok {
				into["core.tx"] += ph.Duration
				continue
			}
			into["core."+name] += selfTime(ph)
			for _, c := range ph.Children {
				if name == "rederive" && strings.HasPrefix(c.Name, "rule:") {
					into[c.Name] += c.Duration
				} else {
					into["engine"] += c.Duration
				}
			}
		}
	}
}
