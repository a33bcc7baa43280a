package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"regexp"

	af "repro"
)

// The only reply fields allowed to differ between a warm server and a
// cold one: provenance counters that record how much work this server
// happened to do, not what it answered.
var provenance = map[opKind][]*regexp.Regexp{
	opTopK:    {regexp.MustCompile(`("DrawsSpent":)-?[0-9]+`)},
	opPmaxEst: {regexp.MustCompile(`("reused":)-?[0-9]+`), regexp.MustCompile(`("sampled":)-?[0-9]+`)},
}

// maskProvenance replaces the values of op kind k's provenance fields
// with "_", leaving every other byte of the reply as it was.
func maskProvenance(k opKind, reply []byte) []byte {
	for _, re := range provenance[k] {
		reply = re.ReplaceAll(reply, []byte("${1}_"))
	}
	return reply
}

// checked is one reply the gate compares: the request line, its op kind
// and what the measured server answered.
type checked struct {
	kind  opKind
	line  []byte
	reply []byte
}

// oracle is a cold in-process server on the same graph and seed, reached
// through the same public Handler, so its reply bytes are the wire bytes
// any transport carries.
type oracle struct{ sv *af.Server }

func newOracle(g *af.Graph) *oracle {
	return &oracle{sv: af.NewServer(g, af.ServerConfig{Seed: graphSeed})}
}

func (o *oracle) answer(line []byte) []byte {
	rr := httptest.NewRecorder()
	o.sv.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(line)))
	return bytes.TrimRight(rr.Body.Bytes(), "\n")
}

// replay applies deltas to the oracle in send order, bringing it to the
// measured server's final epoch.
func (o *oracle) replay(ctx context.Context, deltas []edge) error {
	for i, d := range deltas {
		var gd af.Delta
		e := af.Edge{U: d.u, V: d.v}
		if d.add {
			gd.Add = []af.Edge{e}
		} else {
			gd.Remove = []af.Edge{e}
		}
		if _, err := o.sv.ApplyDelta(ctx, &gd); err != nil {
			return fmt.Errorf("oracle replaying delta %d: %w", i, err)
		}
	}
	return nil
}

// gate byte-compares each reply with the oracle's, provenance masked,
// and returns one description per mismatch.
func (o *oracle) gate(items []checked) []string {
	var bad []string
	for _, it := range items {
		want := maskProvenance(it.kind, o.answer(it.line))
		got := maskProvenance(it.kind, it.reply)
		if !bytes.Equal(got, want) {
			bad = append(bad, fmt.Sprintf("request %s\n  served %s\n  oracle %s", it.line, got, want))
		}
	}
	return bad
}
