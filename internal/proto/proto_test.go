package proto

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/weights"
)

const diamond = "0 1\n0 2\n1 3\n1 4\n2 3\n2 4\n3 5\n4 5\n"

func testDispatcher(t *testing.T, cfg server.Config) *Dispatcher {
	t.Helper()
	g, err := gen.ReadEdgeList(strings.NewReader(diamond))
	if err != nil {
		t.Fatal(err)
	}
	return NewDispatcher(server.New(g, weights.NewDegree(g), cfg))
}

func TestDecodeRequest(t *testing.T) {
	// Malformed JSON is a typed bad-request reply, never an error value:
	// per-request failures are replies on every transport.
	req, errResp := DecodeRequest([]byte("not json"))
	if errResp == nil {
		t.Fatal("malformed line decoded")
	}
	if errResp.Code() != CodeBadRequest {
		t.Errorf("code = %v, want CodeBadRequest", errResp.Code())
	}
	if errResp.OK || !strings.HasPrefix(errResp.Error, "bad request: ") {
		t.Errorf("reply = %+v", errResp)
	}

	// Current and absent versions decode; a future version is refused so
	// an old server never half-understands a newer client.
	for _, line := range []string{`{"op":"pmax","s":0,"t":5}`, `{"v":1,"op":"pmax","s":0,"t":5}`} {
		req, errResp = DecodeRequest([]byte(line))
		if errResp != nil {
			t.Fatalf("%s refused: %+v", line, errResp)
		}
		if req.Op != "pmax" || req.S != 0 || req.T != 5 {
			t.Errorf("%s decoded to %+v", line, req)
		}
	}
	future := Version + 1
	_, errResp = DecodeRequest([]byte(fmt.Sprintf(`{"v":%d,"op":"pmax","s":0,"t":5}`, future)))
	if errResp == nil || errResp.Code() != CodeBadRequest ||
		!strings.Contains(errResp.Error, fmt.Sprintf("unsupported protocol version %d", future)) {
		t.Errorf("future version accepted: %+v", errResp)
	}
}

func TestResponseCodes(t *testing.T) {
	if c := Oversized().Code(); c != CodeOversized {
		t.Errorf("Oversized code = %v", c)
	}
	if got := Oversized().Error; !strings.Contains(got, "exceeds") {
		t.Errorf("Oversized error = %q", got)
	}
	if c := BadRequest(errors.New("x")).Code(); c != CodeBadRequest {
		t.Errorf("BadRequest code = %v", c)
	}
	if c := (Response{OK: true}).Code(); c != CodeOK {
		t.Errorf("zero code = %v, want CodeOK", c)
	}
}

func TestLineReader(t *testing.T) {
	// \r\n line endings, empty lines and an unterminated final line all
	// read cleanly — clients on other platforms and truncated pipes must
	// not corrupt the stream.
	lr := NewLineReader(strings.NewReader("a\r\n\nb\nc"))
	var got []string
	for {
		line, err := lr.ReadLine()
		if err != nil {
			break
		}
		got = append(got, string(line))
	}
	want := []string{"a", "", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("read %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestLineReaderOversized(t *testing.T) {
	// A line one past the cap is refused with the typed error, fully
	// consumed, and the stream stays usable for the next request. A line
	// exactly at the cap is accepted.
	exact := strings.Repeat("x", MaxRequestBytes)
	over := strings.Repeat("y", MaxRequestBytes+1)
	lr := NewLineReader(strings.NewReader(over + "\nafter\n" + exact + "\n"))
	if _, err := lr.ReadLine(); !errors.Is(err, ErrOversized) {
		t.Fatalf("oversized line: err = %v, want ErrOversized", err)
	}
	line, err := lr.ReadLine()
	if err != nil || string(line) != "after" {
		t.Fatalf("stream unusable after oversized line: %q, %v", line, err)
	}
	line, err = lr.ReadLine()
	if err != nil || len(line) != MaxRequestBytes {
		t.Fatalf("line at exactly the cap refused: %d bytes, %v", len(line), err)
	}
}

func TestDispatchUnknownOp(t *testing.T) {
	d := testDispatcher(t, server.Config{Seed: 7})
	resp := d.Dispatch(context.Background(), Request{ID: 1, Op: "bogus"})
	if resp.OK || resp.Code() != CodeUnknownOp || !strings.Contains(resp.Error, `unknown op "bogus"`) {
		t.Errorf("unknown op reply: %+v code %v", resp, resp.Code())
	}
	// An unknown op still echoes id and op so clients can correlate.
	if resp.ID != 1 || resp.Op != "bogus" {
		t.Errorf("unknown op lost correlation fields: %+v", resp)
	}
}

// TestDispatchDeltaFarEndpoint: a delta line naming a node far past the
// graph is refused with an error reply before anything is sized by it —
// the served graph keeps its node count — and the next query is still
// answered.
func TestDispatchDeltaFarEndpoint(t *testing.T) {
	d := testDispatcher(t, server.Config{Seed: 7})
	ctx := context.Background()
	resp := d.DispatchLine(ctx, []byte(`{"id":1,"op":"delta","add":[[0,2147483646]]}`))
	if resp.OK || resp.Code() != CodeError || !strings.Contains(resp.Error, "node out of range") {
		t.Fatalf("far delta reply: %+v code %v", resp, resp.Code())
	}
	if n := d.sv.Graph().NumNodes(); n != 6 {
		t.Fatalf("refused delta changed the graph to %d nodes", n)
	}
	if resp := d.DispatchLine(ctx, []byte(`{"id":2,"op":"pmax","s":0,"t":5,"trials":2000}`)); !resp.OK {
		t.Fatalf("query after a refused delta: %+v", resp)
	}
}

// TestDispatchOverloaded: when the server's admission gate rejects, the
// reply carries CodeOverloaded (HTTP 429 / pipe error reply) rather
// than the generic domain-error code. A barrier-started burst against
// MaxInflight=1, MaxQueue=0 guarantees contention: while the one
// admitted query samples, every concurrent dispatch fast-rejects.
func TestDispatchOverloaded(t *testing.T) {
	d := testDispatcher(t, server.Config{Seed: 7, MaxInflight: 1, MaxQueue: 0})
	const n = 32
	req := Request{Op: "pmax", S: 0, T: 5, Trials: 2_000_000}

	start := make(chan struct{})
	responses := make([]Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			responses[i] = d.Dispatch(context.Background(), req)
		}(i)
	}
	close(start)
	wg.Wait()

	var ok, overloaded int
	for _, r := range responses {
		switch {
		case r.OK:
			ok++
		case r.Code() == CodeOverloaded:
			overloaded++
			if !strings.Contains(r.Error, "overloaded") {
				t.Errorf("overload reply text: %q", r.Error)
			}
		default:
			t.Errorf("unexpected reply: %+v code %v", r, r.Code())
		}
	}
	if ok == 0 || overloaded == 0 || ok+overloaded != n {
		t.Errorf("burst of %d: %d ok, %d overloaded — want both nonzero and exhaustive", n, ok, overloaded)
	}
}

// FuzzDecodeRequest: request decoding must never panic and every
// failure must be a typed bad-request reply — afserve feeds it raw
// stdin and the HTTP handler feeds it raw bodies.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"id":1,"op":"solve","s":0,"t":5,"alpha":0.3,"eps":0.1,"n":50}`))
	f.Add([]byte(`{"op":"solvemax","s":0,"t":5,"budgets":[1,2,3]}`))
	f.Add([]byte(`{"op":"topk","s":0,"targets":[3,4,5],"k":2,"maxdraws":10240}`))
	f.Add([]byte(`{"op":"delta","add":[[6,7]],"remove":[[0,1]]}`))
	f.Add([]byte(`{"v":1,"op":"stats"}`))
	f.Add([]byte(`{"v":9,"op":"stats"}`))
	f.Add([]byte("not json"))
	f.Add([]byte(""))
	f.Add([]byte(`{"op":"pmax","s":-1,"t":99999999,"trials":-5}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		req, errResp := DecodeRequest(line)
		if errResp != nil {
			if errResp.OK || errResp.Code() != CodeBadRequest || !strings.HasPrefix(errResp.Error, "bad request: ") {
				t.Errorf("decode failure is not a typed bad request: %+v", errResp)
			}
			return
		}
		if req.V > Version {
			t.Errorf("accepted future version %d", req.V)
		}
	})
}
