package httpapi

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/proto"
	"repro/internal/server"
	"repro/internal/weights"
)

const diamond = "0 1\n0 2\n1 3\n1 4\n2 3\n2 4\n3 5\n4 5\n"

func testHandler(t *testing.T) *Handler {
	t.Helper()
	g, err := gen.ReadEdgeList(strings.NewReader(diamond))
	if err != nil {
		t.Fatal(err)
	}
	sv := server.New(g, weights.NewDegree(g), server.Config{Seed: 7})
	return New(proto.NewDispatcher(sv))
}

func TestHandlerRejectsNonPOST(t *testing.T) {
	ts := httptest.NewServer(testHandler(t))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q, want POST", allow)
	}
}

func TestHandlerEmptyBody(t *testing.T) {
	ts := httptest.NewServer(testHandler(t))
	defer ts.Close()
	for _, body := range []string{"", "\n\n"} {
		resp, err := http.Post(ts.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestHandlerDrain: Drain lets the in-flight request finish and answers
// everything afterwards with 503 — the contract that makes SIGTERM safe
// to follow with SpillAll and exit.
func TestHandlerDrain(t *testing.T) {
	h := testHandler(t)
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Start a slow query, give it time to be in flight, then drain from
	// a second goroutine; Drain must block until the query's reply lands.
	inFlight := make(chan struct{})
	var inFlightResp *http.Response
	var inFlightErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(inFlight)
		inFlightResp, inFlightErr = http.Post(ts.URL, "application/json",
			strings.NewReader(`{"id":1,"op":"pmax","s":0,"t":5,"trials":2000000}`+"\n"))
	}()
	<-inFlight
	time.Sleep(10 * time.Millisecond)
	h.Drain()
	wg.Wait()
	if inFlightErr != nil {
		t.Fatalf("in-flight request during drain: %v", inFlightErr)
	}
	defer inFlightResp.Body.Close()
	b, err := io.ReadAll(inFlightResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var r struct {
		OK bool `json:"ok"`
	}
	// The in-flight request either completed before Drain saw it (200,
	// ok) — begin() had already registered it — or arrived after the
	// drain flag flipped (503). Both are correct; a torn connection or a
	// failed reply is not.
	switch inFlightResp.StatusCode {
	case http.StatusOK:
		if err := json.Unmarshal(b, &r); err != nil || !r.OK {
			t.Errorf("in-flight reply: %s (%v)", b, err)
		}
	case http.StatusServiceUnavailable:
	default:
		t.Errorf("in-flight request: status %d", inFlightResp.StatusCode)
	}

	// After Drain every request is refused with 503 and a JSON reply.
	resp, err := http.Post(ts.URL, "application/json",
		strings.NewReader(`{"id":2,"op":"pmax","s":0,"t":5,"trials":100}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain: status %d, want 503", resp.StatusCode)
	}
	var refused struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&refused); err != nil {
		t.Fatal(err)
	}
	if refused.OK || !strings.Contains(refused.Error, "draining") {
		t.Errorf("post-drain reply: %+v", refused)
	}

	// Drain is idempotent.
	h.Drain()
}

// TestHandlerBatchReadsPastFirstReply: an NDJSON batch whose body is
// still arriving after the first reply was written must be answered in
// full. net/http stops HTTP/1.x body reads once the response has begun
// unless the handler enables full duplex, which silently truncated any
// batch larger than the body's first read.
func TestHandlerBatchReadsPastFirstReply(t *testing.T) {
	ts := httptest.NewServer(testHandler(t))
	defer ts.Close()
	pr, pw := io.Pipe()
	go func() {
		// Two lines commit the handler to the batch shape; the third is
		// held back until the first reply has been read.
		io.WriteString(pw, `{"id":1,"op":"pmax","s":0,"t":5,"trials":100}`+"\n"+`{"id":2,"op":"pmax","s":0,"t":5,"trials":200}`+"\n")
	}()
	// Without full duplex the server blocks draining the body before its
	// first reply while this client waits for that reply: bound the hang,
	// ending the body too so the client's body writer can return.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	context.AfterFunc(ctx, func() { pw.CloseWithError(ctx.Err()) })
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL, pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var ids []int64
	for {
		var r struct {
			ID int64 `json:"id"`
			OK bool  `json:"ok"`
		}
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if !r.OK {
			t.Errorf("reply %d not ok", r.ID)
		}
		ids = append(ids, r.ID)
		if len(ids) == 1 {
			io.WriteString(pw, `{"id":3,"op":"pmax","s":0,"t":5,"trials":300}`+"\n")
			pw.Close()
		}
	}
	if len(ids) != 3 {
		t.Errorf("batch of 3 answered ids %v", ids)
	}
}
