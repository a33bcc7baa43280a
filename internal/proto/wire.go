package proto

import (
	"repro/internal/obs"
	"repro/internal/server"
)

// Reply results are the answer types internal/server declares
// (Solution, MaxSolution, TopKResult, DeltaSummary, ServerStats, ...),
// marshaled as they are: the wire format is their JSON encoding, and the
// public facade re-exports the same Go types as aliases, so a facade
// user and a wire client see one shape by construction
// (TestWireMirrorsFacade in the root package checks it per op).

// StatsWithMetrics is the "stats" payload when the server runs with
// metrics: the ledger, flat as before (embedding keeps the field layout
// identical for clients that unmarshal the ledger only), plus the
// registry snapshot.
type StatsWithMetrics struct {
	server.ServerStats
	Metrics []obs.Sample `json:"metrics"`
}
