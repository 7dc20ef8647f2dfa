package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"logicblox/internal/core"
	"logicblox/internal/tuple"
)

// seedEdges installs e(i, i%k) for i in [0, n) on the test server.
func seedEdges(t *testing.T, ts *httptest.Server, n, k int) {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "+e(%d, %d).\n", i, i%k)
	}
	mustOK(t, ts, "POST", "/exec", Request{Src: sb.String()}, nil)
}

// streamLines POSTs a /query and returns the raw NDJSON lines plus the
// response. The caller asserts on framing.
func streamLines(t *testing.T, ts *httptest.Server, path string, body Request, hdr map[string]string) (*http.Response, []string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+path, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return resp, lines
}

// splitStream parses NDJSON lines into row records and the trailing
// summary, failing on any framing violation (summary not last, unknown
// record shape, missing trailer).
func splitStream(t *testing.T, lines []string) ([]json.RawMessage, StreamSummary) {
	t.Helper()
	if len(lines) == 0 {
		t.Fatal("empty stream: no summary record")
	}
	var rows []json.RawMessage
	for i, ln := range lines {
		var rec struct {
			Row     json.RawMessage `json:"row"`
			Summary *StreamSummary  `json:"summary"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d: %v (%q)", i, err, ln)
		}
		switch {
		case rec.Summary != nil:
			if i != len(lines)-1 {
				t.Fatalf("summary at line %d of %d: not trailing", i, len(lines))
			}
			return rows, *rec.Summary
		case rec.Row != nil:
			rows = append(rows, rec.Row)
		default:
			t.Fatalf("line %d: neither row nor summary: %q", i, ln)
		}
	}
	t.Fatal("stream ended without a summary record")
	return nil, StreamSummary{}
}

// materializedRowsRaw fetches the same query unstreamed and returns the
// raw JSON encoding of each row, for byte-level comparison.
func materializedRowsRaw(t *testing.T, ts *httptest.Server, body Request) ([]json.RawMessage, QueryResponse) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("materialized query: status %d: %s", resp.StatusCode, data)
	}
	var wire struct {
		Rows []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	var q QueryResponse
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	return wire.Rows, q
}

// TestQueryStreamNDJSON: the streamed response is NDJSON — one
// {"row":[...]} per answer plus a trailing summary — and each row's
// bytes are identical to the materialized envelope's corresponding
// array element (byte-equivalent modulo framing).
func TestQueryStreamNDJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	seedEdges(t, ts, 50, 7)
	q := Request{Src: `_(y, x) <- e(x, y), y < 5.`}

	want, _ := materializedRowsRaw(t, ts, q)
	if len(want) == 0 {
		t.Fatal("expected answers")
	}

	q.Stream = true
	resp, lines := streamLines(t, ts, "/v1/query", q, nil)
	if ct := resp.Header.Get("Content-Type"); ct != ndjsonContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	rows, sum := splitStream(t, lines)
	if len(rows) != len(want) {
		t.Fatalf("streamed %d rows, materialized %d", len(rows), len(want))
	}
	for i := range rows {
		if string(rows[i]) != string(want[i]) {
			t.Fatalf("row %d: stream %s != materialized %s", i, rows[i], want[i])
		}
	}
	if !sum.OK || sum.Rows != int64(len(want)) || sum.Truncated || sum.NextCursor != "" {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Bytes <= 0 {
		t.Fatalf("summary bytes = %d", sum.Bytes)
	}
	if sum.RequestID == "" {
		t.Fatal("summary missing request_id")
	}
	if got := s.Obs().Counter("server.query.streamed").Value(); got != 1 {
		t.Fatalf("server.query.streamed = %d", got)
	}
	if got := s.Obs().Counter("server.stream.rows").Value(); got != int64(len(want)) {
		t.Fatalf("server.stream.rows = %d, want %d", got, len(want))
	}
	if got := s.Obs().Counter("tx.query.stream.commit").Value(); got != 1 {
		t.Fatalf("tx.query.stream.commit = %d", got)
	}
}

// TestQueryStreamNegotiation: ?stream=1 and Accept: application/x-ndjson
// both select the NDJSON response without the body field.
func TestQueryStreamNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	seedEdges(t, ts, 10, 3)
	q := Request{Src: `_(x, y) <- e(x, y).`}

	resp, lines := streamLines(t, ts, "/query?stream=1", q, nil)
	if resp.Header.Get("Content-Type") != ndjsonContentType {
		t.Fatalf("?stream=1: Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	if _, sum := splitStream(t, lines); !sum.OK || sum.Rows != 10 {
		t.Fatalf("?stream=1 summary = %+v", sum)
	}

	resp, lines = streamLines(t, ts, "/query", q, map[string]string{"Accept": ndjsonContentType})
	if resp.Header.Get("Content-Type") != ndjsonContentType {
		t.Fatalf("Accept: Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	if _, sum := splitStream(t, lines); !sum.OK || sum.Rows != 10 {
		t.Fatalf("Accept summary = %+v", sum)
	}
}

// TestQueryStreamErrorHandling: a pre-stream failure (parse error) is a
// plain JSON error envelope with status and request id; nothing NDJSON
// about it.
func TestQueryStreamErrorHandling(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var e ErrorResponse
	status := do(t, ts, "POST", "/query?stream=1", Request{Src: `_(x <-`}, &e)
	if status != http.StatusBadRequest || e.Code != "parse" {
		t.Fatalf("status %d code %q", status, e.Code)
	}
	if e.RequestID == "" {
		t.Fatal("error envelope missing request_id")
	}
}

// TestQueryPagination pages a 23-row result 5 rows at a time through
// both response modes, asserting exactly-once delivery (no gaps, no
// overlaps) and that pages stay pinned to the first page's snapshot even
// when the branch head moves between pages.
func TestQueryPagination(t *testing.T) {
	for _, mode := range []string{"materialized", "stream"} {
		t.Run(mode, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			seedEdges(t, ts, 23, 23)
			limit := 5
			var got [][]any
			cursor := ""
			pages := 0
			for {
				req := Request{Src: `_(x, y) <- e(x, y).`, Limit: &limit, Cursor: cursor}
				var next string
				var page [][]any
				if mode == "stream" {
					req.Stream = true
					_, lines := streamLines(t, ts, "/query", req, nil)
					rows, sum := splitStream(t, lines)
					if !sum.OK {
						t.Fatalf("page %d summary = %+v", pages, sum)
					}
					if sum.Limit != limit {
						t.Fatalf("page %d limit = %d", pages, sum.Limit)
					}
					for _, r := range rows {
						var row []any
						if err := json.Unmarshal(r, &row); err != nil {
							t.Fatal(err)
						}
						page = append(page, row)
					}
					next = sum.NextCursor
					if sum.Truncated != (next != "") {
						t.Fatalf("page %d truncated=%v next=%q", pages, sum.Truncated, next)
					}
				} else {
					var q QueryResponse
					mustOK(t, ts, "POST", "/query", req, &q)
					if q.Limit != limit || q.RowCount != len(q.Rows) {
						t.Fatalf("page %d envelope = %+v", pages, q)
					}
					page, next = q.Rows, q.NextCursor
					if q.Truncated != (next != "") {
						t.Fatalf("page %d truncated=%v next=%q", pages, q.Truncated, next)
					}
				}
				got = append(got, page...)
				pages++
				if pages == 1 {
					// Move the branch head mid-pagination: later pages must
					// not see this fact (the cursor pins the snapshot).
					mustOK(t, ts, "POST", "/exec", Request{Src: `+e(1000, 1000).`}, nil)
				}
				if next == "" {
					break
				}
				cursor = next
			}
			if pages != 5 { // ceil(23/5)
				t.Fatalf("pages = %d", pages)
			}
			if len(got) != 23 {
				t.Fatalf("total rows = %d, want 23 (exactly-once)", len(got))
			}
			seen := map[string]bool{}
			for _, row := range got {
				k := fmt.Sprint(row)
				if seen[k] {
					t.Fatalf("row %v delivered twice", row)
				}
				seen[k] = true
				if row[0] == float64(1000) {
					t.Fatal("page leaked a fact committed after the first page")
				}
			}
		})
	}
}

// TestQueryCursorErrors: malformed tokens are 400 bad_cursor; a token
// pinning an unreachable version is 410 stale_cursor.
func TestQueryCursorErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	seedEdges(t, ts, 3, 3)

	var e ErrorResponse
	if status := do(t, ts, "POST", "/query", Request{Src: `_(x, y) <- e(x, y).`, Cursor: "!!!"}, &e); status != http.StatusBadRequest || e.Code != "bad_cursor" {
		t.Fatalf("malformed cursor: status %d code %q", status, e.Code)
	}
	stale := encodePageToken(pageToken{Branch: "main", Version: 999999, Offset: 1})
	if status := do(t, ts, "POST", "/query", Request{Src: `_(x, y) <- e(x, y).`, Cursor: stale}, &e); status != http.StatusGone || e.Code != "stale_cursor" {
		t.Fatalf("stale cursor: status %d code %q", status, e.Code)
	}
	if e.RequestID == "" {
		t.Fatal("stale_cursor envelope missing request_id")
	}
}

// TestQueryDefaultLimit: without a request limit the server default caps
// the materialized response (reporting the applied limit and a cursor),
// an explicit limit <= 0 opts out, and streams are never default-capped.
func TestQueryDefaultLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultLimit: 8})
	seedEdges(t, ts, 20, 20)
	q := Request{Src: `_(x, y) <- e(x, y).`}

	var resp QueryResponse
	mustOK(t, ts, "POST", "/query", q, &resp)
	if len(resp.Rows) != 8 || resp.Limit != 8 || !resp.Truncated || resp.NextCursor == "" {
		t.Fatalf("default-capped envelope = rows:%d limit:%d truncated:%v", len(resp.Rows), resp.Limit, resp.Truncated)
	}

	zero := 0
	var uncapped QueryResponse
	mustOK(t, ts, "POST", "/query", Request{Src: q.Src, Limit: &zero}, &uncapped)
	if len(uncapped.Rows) != 20 || uncapped.Truncated || uncapped.Limit != 0 {
		t.Fatalf("limit=0 envelope = rows:%d limit:%d truncated:%v", len(uncapped.Rows), uncapped.Limit, uncapped.Truncated)
	}

	_, lines := streamLines(t, ts, "/query?stream=1", q, nil)
	rows, sum := splitStream(t, lines)
	if len(rows) != 20 || sum.Truncated || sum.Limit != 0 {
		t.Fatalf("stream hit the materialized default cap: rows:%d summary:%+v", len(rows), sum)
	}
}

// TestQueryMaxResultBytes truncates both response modes by encoded size,
// and the cursor resumes from the cut.
func TestQueryMaxResultBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	seedEdges(t, ts, 40, 40)
	req := Request{Src: `_(x, y) <- e(x, y).`, MaxResultBytes: 64}

	var resp QueryResponse
	mustOK(t, ts, "POST", "/query", req, &resp)
	if !resp.Truncated || resp.NextCursor == "" || len(resp.Rows) == 0 || len(resp.Rows) >= 40 {
		t.Fatalf("byte-capped envelope = rows:%d truncated:%v", len(resp.Rows), resp.Truncated)
	}
	total := len(resp.Rows)
	for cursor := resp.NextCursor; cursor != ""; {
		var page QueryResponse
		mustOK(t, ts, "POST", "/query", Request{Src: req.Src, MaxResultBytes: 64, Cursor: cursor}, &page)
		total += len(page.Rows)
		cursor = page.NextCursor
	}
	if total != 40 {
		t.Fatalf("resumed total = %d, want 40", total)
	}

	req.Stream = true
	_, lines := streamLines(t, ts, "/query", req, nil)
	rows, sum := splitStream(t, lines)
	if !sum.Truncated || sum.NextCursor == "" || len(rows) == 0 || len(rows) >= 40 {
		t.Fatalf("byte-capped stream = rows:%d summary:%+v", len(rows), sum)
	}
}

// TestStreamDisconnectReleasesWorker: a client vanishing mid-stream
// cancels the request context; the cursor closes (tx.query.stream.abort)
// and the worker slot frees up for the next request.
func TestStreamDisconnectReleasesWorker(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// A cross product big enough that the stream outlives the client.
	seedEdges(t, ts, 300, 300)
	q, _ := json.Marshal(Request{Src: `_(x, y, z, w) <- e(x, y), e(z, w).`, Stream: true})

	cctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(cctx, "POST", ts.URL+"/query", bytes.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatalf("reading first chunk: %v", err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.Obs().Counter("tx.query.stream.abort").Value() >= 1 && s.Inflight() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abort=%d inflight=%d after disconnect",
				s.Obs().Counter("tx.query.stream.abort").Value(), s.Inflight())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The single worker slot must be usable again.
	var small QueryResponse
	mustOK(t, ts, "POST", "/query", Request{Src: `_(x) <- e(x, 0).`}, &small)
	if !small.OK {
		t.Fatal("worker slot not released after disconnect")
	}
}

// TestV1Aliases: the /v1 surface routes to the same handlers as the
// unversioned paths.
func TestV1Aliases(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", "/v1/exec", Request{Src: `+e(1, 2).`}, nil)
	var q QueryResponse
	mustOK(t, ts, "POST", "/v1/query", Request{Src: `_(x, y) <- e(x, y).`}, &q)
	if len(q.Rows) != 1 {
		t.Fatalf("/v1/query rows = %v", q.Rows)
	}
	var hb map[string]any
	mustOK(t, ts, "GET", "/v1/healthz", nil, &hb)
	if hb["status"] != "ok" {
		t.Fatalf("/v1/healthz = %v", hb)
	}
	var vs VersionsResponse
	mustOK(t, ts, "GET", "/v1/versions", nil, &vs)
	if !vs.OK {
		t.Fatalf("/v1/versions = %+v", vs)
	}
}

// TestAppendRowJSONMatchesEncodingJSON: the direct row encoder is
// byte-identical to encoding/json over the legacy [][]any path for every
// value kind, including strings that need escaping or HTML-escaping.
func TestAppendRowJSONMatchesEncodingJSON(t *testing.T) {
	rows := []tuple.Tuple{
		tuple.Ints(0, -42, math.MaxInt64, math.MinInt64),
		{tuple.Bool(true), tuple.Bool(false), tuple.Value{}},
		{tuple.Float(1.5), tuple.Float(-0.25), tuple.Float(1e21), tuple.Float(3.141592653589793)},
		tuple.Strings("plain", "", "with \"quotes\"", "back\\slash"),
		tuple.Strings("<script>&amp;</script>", "tab\there", "new\nline", "nul\x00byte"),
		tuple.Strings("unicode \u00e9\u4e16\u754c", "\u2028line sep\u2029"),
		{tuple.Entity(3, 99), tuple.Entity(0, 0)},
	}
	for _, row := range rows {
		want, err := json.Marshal(rowsJSON([]tuple.Tuple{row})[0])
		if err != nil {
			t.Fatal(err)
		}
		got := appendRowJSON(nil, row)
		if string(got) != string(want) {
			t.Errorf("row %v:\ndirect  = %s\nstdlib = %s", row, got, want)
		}
	}
}

// BenchmarkRowEncodeLegacy and BenchmarkRowEncodeDirect compare the old
// [][]any-through-encoding/json row path with the direct appendRowJSON
// encoder (satellite: direct encoding avoids the per-value boxing).
func benchRows() []tuple.Tuple {
	rows := make([]tuple.Tuple, 1000)
	for i := range rows {
		rows[i] = tuple.Tuple{
			tuple.Int(int64(i)), tuple.String("sku-" + strconv.Itoa(i)),
			tuple.Float(float64(i) * 1.25), tuple.Bool(i%2 == 0),
		}
	}
	return rows
}

func BenchmarkRowEncodeLegacy(b *testing.B) {
	rows := benchRows()
	b.ReportAllocs()
	var n int64
	for i := 0; i < b.N; i++ {
		out, err := json.Marshal(rowsJSON(rows))
		if err != nil {
			b.Fatal(err)
		}
		n += int64(len(out))
	}
	atomic.AddInt64(&benchSink, n)
}

func BenchmarkRowEncodeDirect(b *testing.B) {
	rows := benchRows()
	b.ReportAllocs()
	var n int64
	buf := make([]byte, 0, 64<<10)
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf = append(buf, '[')
		for j, t := range rows {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = appendRowJSON(buf, t)
		}
		buf = append(buf, ']')
		n += int64(len(buf))
	}
	atomic.AddInt64(&benchSink, n)
}

var benchSink int64

// TestStreamConstantMemory is the acceptance check for the streaming
// path: over a large result, the server's peak heap while streaming
// stays well below the materialized path's (whose rows and JSON buffer
// are O(result)). STREAM_MEM_N overrides the row count (the recorded
// experiment uses 1000000); the default keeps `go test ./...` quick.
func TestStreamConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-profile test; skipped in -short")
	}
	n := 200000
	if env := os.Getenv("STREAM_MEM_N"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("STREAM_MEM_N: %v", err)
		}
		n = v
	}

	db := core.NewDatabase()
	head, err := db.Workspace(core.DefaultBranch)
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]tuple.Tuple, n)
	for i := range tuples {
		tuples[i] = tuple.Ints(int64(i), int64(i%1000), int64(i%97), int64(i%11))
	}
	loaded, err := head.Load("big", tuples)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(core.DefaultBranch, loaded); err != nil {
		t.Fatal(err)
	}
	tuples = nil
	s := New(db, Config{Timeout: 10 * time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// peakDuring runs one query while a sampler polls HeapAlloc; the
	// client discards the body with a small buffer so only server-side
	// result buffering shows up in the peak.
	peakDuring := func(stream bool) uint64 {
		runtime.GC()
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		var peak atomic.Uint64
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				for {
					old := peak.Load()
					if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
						break
					}
				}
				time.Sleep(time.Millisecond)
			}
		}()
		zero := 0
		raw, _ := json.Marshal(Request{Src: `_(a, b, c, d) <- big(a, b, c, d).`, Stream: stream, Limit: &zero})
		resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		nbytes, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || nbytes == 0 {
			t.Fatalf("query (stream=%v): status %d, %d bytes", stream, resp.StatusCode, nbytes)
		}
		close(stop)
		<-done
		p := peak.Load()
		if p < base.HeapAlloc {
			return 0
		}
		return p - base.HeapAlloc
	}

	streamPeak := peakDuring(true)
	matPeak := peakDuring(false)
	t.Logf("n=%d rows: streamed peak heap delta = %.1f MiB, materialized = %.1f MiB",
		n, float64(streamPeak)/(1<<20), float64(matPeak)/(1<<20))
	if streamPeak >= matPeak {
		t.Errorf("streaming used as much heap as materializing: %d >= %d", streamPeak, matPeak)
	}
}
