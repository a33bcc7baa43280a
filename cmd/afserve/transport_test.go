package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/proto"
	"repro/internal/proto/httpapi"
	"repro/internal/server"
	"repro/internal/weights"
)

// transportQueries exercises every op plus every error shape the
// protocol can produce: a malformed line (first, so the pipe's inline
// decode reply cannot race an in-flight op's reply), a topkrefine with
// a zero top-up, an adjacent pair, an unknown op, and a final
// stats op whose ledger must agree across transports because both saw
// the identical query sequence under the identical admission config.
const transportQueries = `not json
{"id":1,"op":"solve","s":0,"t":5,"alpha":0.3,"eps":0.1,"n":50,"realizations":4000}
{"id":2,"op":"solvemax","s":0,"t":5,"budget":2,"realizations":4000}
{"id":3,"op":"solvemax","s":0,"t":5,"budgets":[1,2,3],"realizations":4000}
{"id":4,"op":"acceptance","s":0,"t":5,"invited":[3,4,5],"trials":4000}
{"id":5,"op":"pmax","s":0,"t":5,"trials":4000}
{"id":6,"op":"pmaxest","s":0,"t":4,"eps":0.2,"n":50,"trials":100000}
{"id":7,"op":"topk","s":0,"targets":[3,4,5,6,7],"k":2,"budget":2,"realizations":2048,"maxdraws":10240}
{"id":8,"op":"topkrefine","s":0,"targets":[3,4,5,6,7],"k":2,"budget":2,"realizations":2048,"maxdraws":10240,"extradraws":4096}
{"id":9,"op":"topkrefine","s":1,"targets":[5],"k":1,"budget":2,"extradraws":0}
{"id":10,"op":"delta","add":[[6,7],[5,7]]}
{"id":11,"op":"solve","s":0,"t":5}
{"id":12,"op":"solve","s":0,"t":1}
{"id":13,"op":"bogus","s":0,"t":5}
{"id":14,"op":"stats"}
`

// repliesByID maps each reply line (trailing newline stripped) by its
// id; the malformed-line reply carries id 0.
func repliesByID(t *testing.T, out string) map[int64]string {
	t.Helper()
	m := make(map[int64]string)
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		var r struct {
			ID int64 `json:"id"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad reply line %q: %v", line, err)
		}
		if _, dup := m[r.ID]; dup {
			t.Fatalf("duplicate reply id %d", r.ID)
		}
		m[r.ID] = line
	}
	return m
}

// newQueryServer builds an HTTP query endpoint configured exactly like
// `afserve -file <diamond> -seed 7` with its default -j 1 -queue 16,
// so stats ledgers (including admission counters) agree with the pipe.
func newQueryServer(t *testing.T) *httptest.Server {
	t.Helper()
	g, err := gen.ReadEdgeList(strings.NewReader(diamond))
	if err != nil {
		t.Fatal(err)
	}
	sv := server.New(g, weights.NewDegree(g), server.Config{Seed: 7, MaxInflight: 1, MaxQueue: 16})
	ts := httptest.NewServer(httpapi.New(proto.NewDispatcher(sv)))
	t.Cleanup(ts.Close)
	return ts
}

func postLine(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestTransportEquivalence is the acceptance gate for the extraction:
// every op answered over HTTP — single-request POSTs and one NDJSON
// batch — is byte-identical to the pipe transport's reply, error
// shapes included. Separate server instances are valid because every
// answer is a pure function of (seed, graph, query sequence).
func TestTransportEquivalence(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-file", graphFile(t), "-seed", "7"},
		strings.NewReader(transportQueries), &sb); err != nil {
		t.Fatal(err)
	}
	pipe := repliesByID(t, sb.String())
	if len(pipe) != 15 {
		t.Fatalf("pipe answered %d replies, want 15", len(pipe))
	}

	// Single-request exchanges: one POST per line, in the same order the
	// pipe saw them, against a server with the same seed and admission
	// config. The body must match the pipe reply byte-for-byte and the
	// status must reflect the typed code: 400 for decode failures and
	// unknown ops, 200 for everything that dispatched — including domain
	// errors like the adjacent pair and the zero-top-up topkrefine,
	// which are answers, not transport failures.
	ts := newQueryServer(t)
	lines := strings.Split(strings.TrimSuffix(transportQueries, "\n"), "\n")
	for _, line := range lines {
		code, body := postLine(t, ts.URL, line+"\n")
		var r struct {
			ID int64 `json:"id"`
		}
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatalf("query %q: unparseable HTTP body %q: %v", line, body, err)
		}
		want, ok := pipe[r.ID]
		if !ok {
			t.Fatalf("HTTP reply id %d has no pipe counterpart", r.ID)
		}
		if got := strings.TrimSuffix(body, "\n"); got != want {
			t.Errorf("id %d: HTTP reply diverged from pipe\n got %s\nwant %s", r.ID, got, want)
		}
		wantCode := http.StatusOK
		if r.ID == 0 || r.ID == 13 {
			wantCode = http.StatusBadRequest
		}
		if code != wantCode {
			t.Errorf("id %d: HTTP status %d, want %d", r.ID, code, wantCode)
		}
	}

	// Batch exchange: the whole stream in one POST answers with NDJSON
	// at 200, one reply per line in request order, each byte-identical
	// to the pipe reply. Fresh server so the stats ledger sees the same
	// sequence exactly once.
	ts2 := newQueryServer(t)
	code, body := postLine(t, ts2.URL, transportQueries)
	if code != http.StatusOK {
		t.Fatalf("batch POST: status %d, want 200", code)
	}
	batch := repliesByID(t, body)
	if len(batch) != len(pipe) {
		t.Fatalf("batch answered %d replies, want %d", len(batch), len(pipe))
	}
	for id, want := range pipe {
		if batch[id] != want {
			t.Errorf("id %d: batch reply diverged from pipe\n got %s\nwant %s", id, batch[id], want)
		}
	}
	// Batch replies come back in request order even though ids could
	// reorder under a concurrent pipe.
	var prev int64 = -1
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		var r struct {
			ID int64 `json:"id"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		if r.ID < prev {
			t.Fatalf("batch replies out of request order: id %d after %d", r.ID, prev)
		}
		prev = r.ID
	}
}

// TestTransportOversized: a line past MaxRequestBytes is a per-request
// failure on both transports — the pipe answers the typed reply and
// keeps serving, a single-request POST maps it to 413, and a batch
// carries it in line — never a torn-down stream.
func TestTransportOversized(t *testing.T) {
	big := `{"op":"pmax","s":0,"t":5,"junk":"` + strings.Repeat("x", proto.MaxRequestBytes) + `"}`
	const follow = `{"id":1,"op":"pmax","s":0,"t":5,"trials":2000}`

	var sb strings.Builder
	if err := run([]string{"-file", graphFile(t), "-seed", "7"},
		strings.NewReader(big+"\n"+follow+"\n"), &sb); err != nil {
		t.Fatal(err)
	}
	pipe := repliesByID(t, sb.String())
	if len(pipe) != 2 {
		t.Fatalf("pipe answered %d replies, want 2 (oversized must not kill the stream)", len(pipe))
	}
	if !strings.Contains(pipe[0], "exceeds") {
		t.Errorf("oversized pipe reply: %s", pipe[0])
	}
	var ok1 struct {
		OK bool `json:"ok"`
	}
	if err := json.Unmarshal([]byte(pipe[1]), &ok1); err != nil || !ok1.OK {
		t.Errorf("query after oversized line failed: %s", pipe[1])
	}

	ts := newQueryServer(t)
	code, body := postLine(t, ts.URL, big+"\n")
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("single oversized POST: status %d, want 413", code)
	}
	if got := strings.TrimSuffix(body, "\n"); got != pipe[0] {
		t.Errorf("oversized HTTP reply diverged from pipe\n got %s\nwant %s", got, pipe[0])
	}

	code, body = postLine(t, ts.URL, big+"\n"+follow+"\n")
	if code != http.StatusOK {
		t.Errorf("batch with oversized line: status %d, want 200", code)
	}
	batch := repliesByID(t, body)
	if batch[0] != pipe[0] || batch[1] != pipe[1] {
		t.Errorf("batch replies diverged from pipe:\n%s\nwant\n%s\n%s", body, pipe[0], pipe[1])
	}
}
