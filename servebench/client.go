package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"logicblox/internal/obs"
)

// client is one closed-loop session: it sends its next request only
// when the previous reply has arrived, over its own single connection.
type client struct {
	id    int
	hc    *http.Client
	url   string
	rng   *rand.Rand
	w     *workload
	m     *model
	tr    *tracer
	n     int // requests sent
	ops   int // operations drawn from the cycle
	reads int // queries drawn
	// lags, while a follower's lag is measured, receives every
	// acknowledged commit, numbered by primarySeq.
	lags       chan ackedSeq
	primarySeq func() uint64
	// corrupt, when set, rewrites a query answer before it is checked;
	// the self-test uses it to show a wrong answer is caught.
	corrupt func(rows [][]int64) [][]int64
}

// errWrongAnswer marks a reply the model does not allow.
var errWrongAnswer = errors.New("wrong answer")

// sample is one finished operation.
type sample struct {
	kind   string // "exec" or "query"
	op     string // "exec" or the read's kind
	lat    time.Duration
	ok     bool
	err    error
	traced bool
}

// ackedSeq is an acknowledged commit whose replication lag is measured.
type ackedSeq struct {
	seq uint64
	at  time.Time
	req string
}

func newClient(id int, seed uint64, w *workload, tr *tracer) *client {
	return &client{
		id: id,
		// One connection per client: the benchmark never holds more
		// connections than it has clients.
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		rng: rand.New(rand.NewPCG(seed, uint64(id)+1)),
		w:   w, tr: tr,
	}
}

// attach points the client at a freshly set-up system and the model of
// its writes. The seed's stream and the request numbering carry on.
func (c *client) attach(url string, m *model) {
	c.hc.CloseIdleConnections()
	c.url, c.m = url, m
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// upsertNext reports whether the client's next operation is an upsert.
func (c *client) upsertNext() bool {
	cycle := c.w.clients[c.id]
	return cycle[c.ops%len(cycle)] == 'w'
}

// next draws and runs one operation from the workload's mix.
func (c *client) next() sample {
	cycle := c.w.clients[c.id]
	c.ops++
	if cycle[(c.ops-1)%len(cycle)] == 'r' {
		c.reads++
		return c.query(c.w.spec.genRead(c.rng, c.reads-1))
	}
	return c.exec(c.rng.IntN(len(c.m.init)))
}

// reqID names the client's next request; it is also appended to the
// LogiQL source as a comment so a journaled record identifies its
// request.
func (c *client) reqID() string {
	c.n++
	return fmt.Sprintf("c%d-%d", c.id, c.n)
}

// post sends body to path and decodes a 200 reply into out.
func (c *client) post(path, rid string, traced bool, body any, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	url := c.url + path
	if traced {
		url += "?trace=1"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s: decoding reply: %w", path, err)
	}
	return resp.StatusCode, nil
}

type execReply struct {
	OK      bool              `json:"ok"`
	Version uint64            `json:"version"`
	Trace   *obs.SpanSnapshot `json:"trace"`
}

type queryReply struct {
	OK    bool              `json:"ok"`
	Rows  [][]any           `json:"rows"`
	Trace *obs.SpanSnapshot `json:"trace"`
}

// exec upserts a fresh value into key k and records the outcome in the
// model.
func (c *client) exec(k int) sample {
	rid := c.reqID()
	v := c.w.spec.newValue(c.rng, c.id, c.m.latest(k))
	src := c.w.spec.upsertSrc(k, v) + " // " + rid
	traced := c.tr.active()
	if traced {
		c.tr.expectCommit(src, rid)
	}
	wr := c.m.begin(k, v)
	t0 := time.Now()
	var rep execReply
	status, err := c.post("/exec", rid, traced, map[string]string{"src": src}, &rep)
	lat := time.Since(t0)
	if err == nil && !rep.OK {
		err = fmt.Errorf("/exec: ok=false")
	}
	switch {
	case err == nil:
		c.m.finish(wr, acked, rep.Version)
	case status >= 400 && status < 500:
		c.m.finish(wr, refused, 0)
	default:
		c.m.finish(wr, unknown, 0)
	}
	if err == nil && c.lags != nil {
		// One client writes, so the primary's newest sequence number
		// is this commit's.
		c.lags <- ackedSeq{seq: c.primarySeq(), at: t0.Add(lat), req: rid}
	}
	if traced {
		c.tr.addOp("exec", rid, t0, lat, rep.Trace)
	}
	return sample{kind: "exec", op: "exec", lat: lat, ok: err == nil, err: err, traced: traced}
}

// query runs a read and checks its answer against the model.
func (c *client) query(r read) sample {
	rid := c.reqID()
	traced := c.tr.active()
	ts := c.m.now()
	t0 := time.Now()
	var rep queryReply
	_, err := c.post("/query", rid, traced, map[string]string{"src": r.src}, &rep)
	lat := time.Since(t0)
	te := c.m.now()
	if err == nil {
		err = c.checkAnswer(r, rep, ts, te)
	}
	if traced {
		c.tr.addOp("query", rid, t0, lat, rep.Trace)
	}
	return sample{kind: "query", op: r.kind, lat: lat, ok: err == nil, err: err, traced: traced}
}

func (c *client) checkAnswer(r read, rep queryReply, ts, te time.Duration) error {
	if !rep.OK {
		return fmt.Errorf("/query %q: ok=false", r.src)
	}
	rows := make([][]int64, len(rep.Rows))
	for i, row := range rep.Rows {
		rows[i] = make([]int64, len(row))
		for j, v := range row {
			f, ok := v.(float64)
			if !ok || f != float64(int64(f)) {
				return fmt.Errorf("/query %q: non-integer value %v", r.src, v)
			}
			rows[i][j] = int64(f)
		}
	}
	if c.corrupt != nil {
		rows = c.corrupt(rows)
	}
	if err := c.w.spec.checkRead(r, rows, func(k int) []int { return c.m.cands(k, ts, te) }); err != nil {
		return fmt.Errorf("%w to %q: %w", errWrongAnswer, r.src, err)
	}
	return nil
}

// runClients drives every client in a closed loop until ctx's deadline,
// or until the clients together have drawn the given number of upserts,
// and returns their samples and the time from start until the last
// reply arrived.
func runClients(ctx context.Context, cs []*client, upserts int) ([]sample, time.Duration) {
	t0 := time.Now()
	per := make([][]sample, len(cs))
	var drawn atomic.Int64
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for ctx.Err() == nil {
				if c.upsertNext() && drawn.Add(1) > int64(upserts) {
					return
				}
				per[i] = append(per[i], c.next())
			}
		}(i, c)
	}
	wg.Wait()
	el := time.Since(t0)
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out, el
}
