// Package httpapi serves the query protocol (internal/proto) over
// HTTP: POST /v1/query accepts one request line or an NDJSON batch and
// answers with the exact reply bytes the stdin/stdout pipe transport
// would produce — the protocol is transport-agnostic, HTTP only adds
// status-code signalling on top.
//
// A single-request body is answered with one JSON line and a status
// mapped from the reply's typed code (400 bad request / unknown op,
// 413 oversized, 429 overloaded); a batch body (more than one line)
// streams one reply line per request at status 200, errors included in
// line — exactly the pipe's contract, where per-request failures are
// replies, not stream failures. Domain errors from queries that ran
// ("target unreachable") are 200 with ok:false on both shapes: the
// protocol answered, HTTP delivered.
//
// The handler supports graceful drain: after Drain, new requests are
// refused with 503 while every in-flight request runs to completion,
// so a SIGTERM can finish the queries it owes before the process
// flushes its spill tier and exits.
package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"

	"repro/internal/proto"
)

// Handler serves POST /v1/query over a Dispatcher.
type Handler struct {
	d *proto.Dispatcher

	mu       sync.Mutex
	wg       sync.WaitGroup
	draining bool
}

// New returns a handler answering through d.
func New(d *proto.Dispatcher) *Handler { return &Handler{d: d} }

// lineReaders pools the protocol line readers: each one owns a buffer
// sized for a maximal request line (~1 MiB), too large to allocate per
// request. Readers are Reset onto each request body and detached (Reset
// to nil) before pooling so a pooled reader never pins a request body.
var lineReaders = sync.Pool{
	New: func() any { return proto.NewLineReader(nil) },
}

// begin registers one in-flight request; false once draining.
func (h *Handler) begin() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.draining {
		return false
	}
	h.wg.Add(1)
	return true
}

// Drain stops admitting requests and blocks until every in-flight
// request has finished. Idempotent; the handler answers 503 afterwards.
func (h *Handler) Drain() {
	h.mu.Lock()
	h.draining = true
	h.mu.Unlock()
	h.wg.Wait()
}

// status maps a reply's typed code to the HTTP status of a
// single-request response.
func status(c proto.Code) int {
	switch c {
	case proto.CodeBadRequest, proto.CodeUnknownOp:
		return http.StatusBadRequest
	case proto.CodeOversized:
		return http.StatusRequestEntityTooLarge
	case proto.CodeOverloaded:
		return http.StatusTooManyRequests
	default:
		return http.StatusOK
	}
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST one request line or an NDJSON batch", http.StatusMethodNotAllowed)
		return
	}
	if !h.begin() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(proto.Response{OK: false, Error: "server draining"})
		return
	}
	defer h.wg.Done()

	// The request context cancels when the client disconnects; threading
	// it into the dispatcher lets an abandoned query stop sampling (and
	// free its admission slot to the queue).
	ctx := r.Context()
	lr := lineReaders.Get().(*proto.LineReader)
	lr.Reset(r.Body)
	defer func() { lr.Reset(nil); lineReaders.Put(lr) }()

	// Read ahead one request before committing to a response shape: one
	// line is a single-request exchange with status signalling, more is
	// an NDJSON batch streamed at 200.
	first, err := readRequest(lr)
	if err != nil {
		msg := "reading body: " + err.Error()
		if errors.Is(err, io.EOF) {
			msg = "empty body: POST one request line or an NDJSON batch"
		}
		http.Error(w, msg, http.StatusBadRequest)
		return
	}
	second, err2 := readRequest(lr)
	if err2 != nil {
		resp := first.dispatch(ctx, h.d)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status(resp.Code()))
		_ = json.NewEncoder(w).Encode(resp)
		return
	}

	// Batch: every line gets a reply line, in request order (the pipe
	// may reorder under -j; HTTP batches keep order so a client can zip
	// request and reply streams even without ids). Flush per reply so a
	// streaming client sees answers as they land. Full duplex keeps the
	// body readable past the first reply (HTTP/1.x otherwise stops body
	// reads there); HTTP/2 always is, and reports ErrNotSupported.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	emit := func(resp proto.Response) bool {
		if err := enc.Encode(resp); err != nil {
			return false
		}
		if err := bw.Flush(); err != nil {
			return false
		}
		if fl != nil {
			fl.Flush()
		}
		return true
	}
	if !emit(first.dispatch(ctx, h.d)) {
		return
	}
	for {
		if !emit(second.dispatch(ctx, h.d)) {
			return
		}
		if second, err2 = readRequest(lr); err2 != nil {
			return
		}
	}
}

// pending is one read request: either decoded, or already failed with
// the error reply to send (bad decode, oversized line) — per-request
// failures are replies, not transport errors, on HTTP exactly as on
// the pipe.
type pending struct {
	req     proto.Request
	errResp *proto.Response
}

func (p pending) dispatch(ctx context.Context, d *proto.Dispatcher) proto.Response {
	if p.errResp != nil {
		return *p.errResp
	}
	return d.Dispatch(ctx, p.req)
}

// readRequest reads and decodes the next non-empty body line. The only
// errors are terminal ones (io.EOF, a broken body read); an oversized
// line comes back as a pending carrying the oversized reply, since the
// stream stays usable past it.
func readRequest(lr *proto.LineReader) (pending, error) {
	for {
		line, err := lr.ReadLine()
		if errors.Is(err, proto.ErrOversized) {
			resp := proto.Oversized()
			return pending{errResp: &resp}, nil
		}
		if err != nil {
			return pending{}, err
		}
		if len(line) == 0 {
			continue
		}
		req, errResp := proto.DecodeRequest(line)
		return pending{req: req, errResp: errResp}, nil
	}
}
