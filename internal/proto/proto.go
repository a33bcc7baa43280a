// Package proto is the transport-agnostic query protocol of the serving
// stack: the line-delimited JSON request/response schema every afserve
// op speaks (solve, solvemax, acceptance, pmax, pmaxest, topk,
// topkrefine, delta, stats), a versioned codec with typed error codes,
// and a Dispatcher that maps decoded requests onto internal/server and
// shapes the reply.
//
// The wire format predates this package — it was extracted verbatim
// from cmd/afserve — and is frozen: a reply marshals byte-identical to
// the pre-extraction server (golden-tested in cmd/afserve), and every
// transport (the stdin/stdout pipe, internal/proto/httpapi) carries the
// same bytes for the same request. Typed error codes exist only at the
// Go level (Response.Code): transports map them to their own signalling
// (HTTP status, pipe error reply) without changing the reply body.
package proto

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/graph"
)

// Version is the protocol version this package speaks. Requests may
// carry an explicit "v"; absent (0) means the current version. A request
// from the future — v greater than Version — is rejected as a bad
// request, so a client can probe what a server speaks instead of getting
// a silently misinterpreted answer. Version 2 made "topkrefine"
// stateless: it carries its run's whole topk query, "maxdraws" included.
const Version = 2

// MaxRequestBytes bounds one encoded request line on every transport
// (the pipe's old scanner buffer, kept as the protocol-level limit).
// Longer lines are consumed and answered with an oversized error
// instead of killing the stream.
const MaxRequestBytes = 1 << 20

// Request is one decoded query. The JSON field set is the wire schema;
// which fields an op reads is documented in cmd/afserve. Ops that ride
// the same fields (solve/solvemax/pmaxest all read eps) keep the flat
// layout the protocol has always had.
type Request struct {
	// V is the protocol version (0 = current; see Version).
	V  int    `json:"v,omitempty"`
	ID int64  `json:"id,omitempty"`
	Op string `json:"op"`

	S            graph.Node   `json:"s"`
	T            graph.Node   `json:"t"`
	Alpha        float64      `json:"alpha,omitempty"`
	Eps          float64      `json:"eps,omitempty"`
	N            float64      `json:"n,omitempty"`
	Budget       int          `json:"budget,omitempty"`
	Budgets      []int        `json:"budgets,omitempty"`
	Realizations int64        `json:"realizations,omitempty"`
	Trials       int64        `json:"trials,omitempty"`
	Invited      []graph.Node `json:"invited,omitempty"`
	// Targets / K / MaxDraws parameterize the "topk" op. "topkrefine"
	// reads the same fields plus ExtraDraws, its additional draw budget:
	// it answers the topk at MaxDraws+ExtraDraws (MaxDraws 0 stays
	// exhaustive).
	Targets    []graph.Node `json:"targets,omitempty"`
	K          int          `json:"k,omitempty"`
	MaxDraws   int64        `json:"maxdraws,omitempty"`
	ExtraDraws int64        `json:"extradraws,omitempty"`
	// Add / Remove are the "delta" op's edge lists, each edge a [u, v]
	// pair.
	Add    [][2]graph.Node `json:"add,omitempty"`
	Remove [][2]graph.Node `json:"remove,omitempty"`
}

// Code classifies a Response for transports: it never appears on the
// wire (the reply body is the same on every transport); it tells a
// transport which of its own signals to raise — httpapi maps codes to
// HTTP status, the pipe ignores them.
type Code int

const (
	// CodeOK is a successful reply.
	CodeOK Code = iota
	// CodeBadRequest is an undecodable or version-skewed request.
	CodeBadRequest
	// CodeUnknownOp is a well-formed request for an op this server does
	// not speak.
	CodeUnknownOp
	// CodeOversized is a request line exceeding MaxRequestBytes.
	CodeOversized
	// CodeOverloaded is an admission fast-reject (server.ErrOverloaded):
	// the query did not run and a retry with backoff is sound.
	CodeOverloaded
	// CodeError is a domain error from a query that did run (unreachable
	// target, invalid pair, cancelled context, ...).
	CodeError
)

// Response is one reply line. Field set and order are the frozen wire
// format; code stays off the wire.
type Response struct {
	ID     int64  `json:"id,omitempty"`
	Op     string `json:"op"`
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`
	Result any    `json:"result,omitempty"`

	code Code
}

// Code classifies the response for transport-level signalling.
func (r Response) Code() Code { return r.code }

// BadRequest shapes the reply for an undecodable line — the exact
// error string the pipe transport has always produced.
func BadRequest(err error) Response {
	return Response{OK: false, Error: fmt.Sprintf("bad request: %v", err), code: CodeBadRequest}
}

// ErrOversized reports a request line longer than MaxRequestBytes; see
// LineReader.
var ErrOversized = errors.New("proto: request exceeds " + fmt.Sprint(MaxRequestBytes) + " bytes")

// Oversized shapes the reply for a request line past MaxRequestBytes.
func Oversized() Response {
	return Response{OK: false, Error: fmt.Sprintf("bad request: request exceeds %d bytes", MaxRequestBytes), code: CodeOversized}
}

// DecodeRequest decodes one request line. On failure the returned
// *Response is the error reply to send (non-nil exactly when decoding
// failed); the request is unusable then.
func DecodeRequest(line []byte) (Request, *Response) {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		r := BadRequest(err)
		return req, &r
	}
	if req.V > Version {
		r := Response{ID: req.ID, Op: req.Op, OK: false,
			Error: fmt.Sprintf("bad request: unsupported protocol version %d (this server speaks <= %d)", req.V, Version),
			code:  CodeBadRequest}
		return req, &r
	}
	return req, nil
}

// LineReader yields newline-delimited request lines with the protocol's
// size bound enforced: a line longer than MaxRequestBytes is consumed
// to its newline and reported as ErrOversized, leaving the stream
// usable for the next request — unlike bufio.Scanner, whose ErrTooLong
// is terminal. Both transports read through it so the bound and the
// failure mode are identical everywhere.
type LineReader struct {
	br  *bufio.Reader
	eof bool
}

// NewLineReader wraps r. The internal buffer admits exactly
// MaxRequestBytes-long lines (plus the newline) — a ~1 MiB allocation,
// so per-request readers (HTTP) should be pooled and Reset rather than
// reallocated.
func NewLineReader(r io.Reader) *LineReader {
	return &LineReader{br: bufio.NewReaderSize(r, MaxRequestBytes+1)}
}

// Reset rewires the reader onto a new stream, keeping its buffer.
func (lr *LineReader) Reset(r io.Reader) {
	lr.br.Reset(r)
	lr.eof = false
}

// ReadLine returns the next line with its terminator (and a trailing
// \r) stripped. The slice aliases the internal buffer and is valid only
// until the next call. Returns ErrOversized for a too-long line (after
// consuming it), io.EOF at end of stream; a final unterminated line is
// returned normally and the next call reports io.EOF.
func (lr *LineReader) ReadLine() ([]byte, error) {
	if lr.eof {
		return nil, io.EOF
	}
	line, err := lr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Consume the remainder of the oversized line so the stream
		// resynchronizes at the next newline.
		for err == bufio.ErrBufferFull {
			_, err = lr.br.ReadSlice('\n')
		}
		if err != nil {
			lr.eof = true
		}
		return nil, ErrOversized
	}
	if err == io.EOF {
		lr.eof = true
		if len(line) == 0 {
			return nil, io.EOF
		}
	} else if err != nil {
		return nil, err
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}
