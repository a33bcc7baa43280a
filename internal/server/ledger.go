package server

import (
	"fmt"
	"io"
)

// counter indexes Server.ledger, the server's lifetime counters.
// Increment sites add to sv.ledger[c] directly; only Stats, the metrics
// scrape and /statusz read the ledger table below.
type counter uint8

const (
	ctrSessionsCreated counter = iota
	ctrSessionsEvicted
	ctrSpills
	ctrSpillBytes
	ctrSpillLoads
	ctrSpillLoadBytes
	ctrSpillDrawsSaved
	ctrSpillLoadErrChecksum
	ctrSpillLoadErrVersion
	ctrSpillLoadErrStream
	ctrSpillLoadErrInstance
	ctrSpillLoadErrOther
	ctrSpillWriteErrors
	ctrSpillFilesExpired
	ctrDeltasApplied
	ctrPairsDropped
	ctrPoolsRepaired
	ctrRepairChunksResampled
	ctrRepairDrawsResampled
	ctrRepairDrawsSaved
	ctrPmaxDrawsReused
	ctrCoalesced
	ctrAdmitted
	ctrRejected
	numCounters
)

// ledgerRow declares one lifetime counter: the ServerStats field it
// fills, its /metrics series (name, labels, help) and its /statusz
// "group: key=value" entry. Metric names, labels and ServerStats fields
// are a frozen API, pinned by the repo-root stats and metrics goldens.
type ledgerRow struct {
	stat       func(*ServerStats) *int64
	metric     string
	labels     []string // alternating key, value
	help       string
	group, key string
}

const spillLoadErrHelp = "spill files rejected or unreadable, by cause"

// ledger is the one declaration of every lifetime counter.
var ledger = [numCounters]ledgerRow{
	ctrSessionsCreated: {func(s *ServerStats) *int64 { return &s.SessionsCreated },
		"af_sessions_created_total", nil, "pair sessions created (recreation after eviction included)", "sessions", "created"},
	ctrSessionsEvicted: {func(s *ServerStats) *int64 { return &s.SessionsEvicted },
		"af_sessions_evicted_total", nil, "pair sessions evicted", "sessions", "evicted"},
	ctrSpills: {func(s *ServerStats) *int64 { return &s.Spills },
		"af_spills_total", nil, "evictions and flushes that wrote a spill file", "spill", "spills"},
	ctrSpillBytes: {func(s *ServerStats) *int64 { return &s.SpillBytes },
		"af_spill_bytes_total", nil, "bytes written to spill files", "spill", "bytes"},
	ctrSpillLoads: {func(s *ServerStats) *int64 { return &s.SpillLoads },
		"af_spill_loads_total", nil, "pair admissions restored from a spill file", "spill", "loads"},
	ctrSpillLoadBytes: {func(s *ServerStats) *int64 { return &s.SpillLoadBytes },
		"af_spill_load_bytes_total", nil, "bytes read from spill files", "spill", "load_bytes"},
	ctrSpillDrawsSaved: {func(s *ServerStats) *int64 { return &s.SpillDrawsSaved },
		"af_spill_draws_saved_total", nil, "pool draws spill restores avoided", "spill", "draws_saved"},
	ctrSpillLoadErrChecksum: {func(s *ServerStats) *int64 { return &s.SpillLoadErrChecksum },
		"af_spill_load_errors_total", []string{"cause", "checksum"}, spillLoadErrHelp, "spill", "load_err_checksum"},
	ctrSpillLoadErrVersion: {func(s *ServerStats) *int64 { return &s.SpillLoadErrVersion },
		"af_spill_load_errors_total", []string{"cause", "version"}, spillLoadErrHelp, "spill", "load_err_version"},
	ctrSpillLoadErrStream: {func(s *ServerStats) *int64 { return &s.SpillLoadErrStream },
		"af_spill_load_errors_total", []string{"cause", "stream"}, spillLoadErrHelp, "spill", "load_err_stream"},
	ctrSpillLoadErrInstance: {func(s *ServerStats) *int64 { return &s.SpillLoadErrInstance },
		"af_spill_load_errors_total", []string{"cause", "instance"}, spillLoadErrHelp, "spill", "load_err_instance"},
	ctrSpillLoadErrOther: {func(s *ServerStats) *int64 { return &s.SpillLoadErrOther },
		"af_spill_load_errors_total", []string{"cause", "other"}, spillLoadErrHelp, "spill", "load_err_other"},
	ctrSpillWriteErrors: {func(s *ServerStats) *int64 { return &s.SpillWriteErrors },
		"af_spill_write_errors_total", nil, "failed spill snapshot writes", "spill", "write_errors"},
	ctrSpillFilesExpired: {func(s *ServerStats) *int64 { return &s.SpillFilesExpired },
		"af_spill_files_expired_total", nil, "spill files removed by TTL GC", "spill", "expired"},
	ctrDeltasApplied: {func(s *ServerStats) *int64 { return &s.DeltasApplied },
		"af_deltas_applied_total", nil, "graph deltas that changed the graph or weights", "deltas", "applied"},
	ctrPairsDropped: {func(s *ServerStats) *int64 { return &s.PairsDropped },
		"af_pairs_dropped_total", nil, "pairs dissolved by a delta", "deltas", "pairs_dropped"},
	ctrPoolsRepaired: {func(s *ServerStats) *int64 { return &s.PoolsRepaired },
		"af_pools_repaired_total", nil, "pair migrations and spill loads that repaired pools across epochs", "deltas", "pools_repaired"},
	ctrRepairChunksResampled: {func(s *ServerStats) *int64 { return &s.RepairChunksResampled },
		"af_repair_chunks_resampled_total", nil, "pool chunks re-drawn by delta repair", "deltas", "chunks_resampled"},
	ctrRepairDrawsResampled: {func(s *ServerStats) *int64 { return &s.RepairDrawsResampled },
		"af_repair_draws_resampled_total", nil, "pool draws re-drawn by delta repair", "deltas", "draws_resampled"},
	ctrRepairDrawsSaved: {func(s *ServerStats) *int64 { return &s.RepairDrawsSaved },
		"af_repair_draws_saved_total", nil, "pool draws adopted verbatim by delta repair", "deltas", "draws_saved"},
	ctrPmaxDrawsReused: {func(s *ServerStats) *int64 { return &s.PmaxDrawsReused },
		"af_pmax_draws_reused_total", nil, "stopping-rule draws answered from retained estimator ledgers", "reuse", "pmax_draws_reused"},
	ctrCoalesced: {func(s *ServerStats) *int64 { return &s.Coalesced },
		"af_coalesced_total", nil, "queries that joined an identical in-flight query", "reuse", "coalesced"},
	ctrAdmitted: {func(s *ServerStats) *int64 { return &s.Admitted },
		"af_admitted_total", nil, "queries admitted past the in-flight gate", "admission", "admitted"},
	ctrRejected: {func(s *ServerStats) *int64 { return &s.Rejected },
		"af_rejected_total", nil, "queries fast-rejected by admission control", "admission", "rejected"},
}

// kindRows names each query kind in the hit/miss ledger and the metric
// labels, and points at its ServerStats tally (nil: not on the wire).
var kindRows = [numKinds]struct {
	name string
	stat func(*ServerStats) *ServerKindStats
}{
	KindSolve:     {"solve", func(s *ServerStats) *ServerKindStats { return &s.Solve }},
	KindSolveMax:  {"solvemax", func(s *ServerStats) *ServerKindStats { return &s.SolveMax }},
	KindEstimateF: {"estimatef", func(s *ServerStats) *ServerKindStats { return &s.AcceptanceProbability }},
	KindPmax:      {"pmax", func(s *ServerStats) *ServerKindStats { return &s.Pmax }},
	KindPmaxEst:   {"pmaxest", func(s *ServerStats) *ServerKindStats { return &s.EstimatePmax }},
	KindAcquire:   {"acquire", nil},
	KindTopK:      {"topk", func(s *ServerStats) *ServerKindStats { return &s.TopK }},
}

// String returns the ledger label of the kind.
func (k Kind) String() string {
	if k < numKinds {
		return kindRows[k].name
	}
	return "unknown"
}

// KindStats returns the hit/miss tally of one query kind, including
// kinds the wire stats do not carry (KindAcquire).
func (sv *Server) KindStats(k Kind) ServerKindStats {
	return ServerKindStats{Hits: sv.kinds[k].hits.Load(), Misses: sv.kinds[k].misses.Load()}
}

// sessionsLive counts the cached pair sessions across all shards.
func (sv *Server) sessionsLive() int {
	n := 0
	for i := range sv.shards {
		sh := &sv.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

func (sv *Server) bytesHeld() int64 {
	sv.lruMu.Lock()
	defer sv.lruMu.Unlock()
	return sv.bytes
}

// admissionLoad returns the admission gate's occupancy (zero with the
// gate disabled).
func (sv *Server) admissionLoad() (inflight, queued int64) {
	if a := sv.adm; a != nil {
		return a.inflight.Load(), a.queued.Load()
	}
	return 0, 0
}

// Stats returns a snapshot of the server's ledger.
func (sv *Server) Stats() ServerStats {
	var st ServerStats
	for c := range ledger {
		*ledger[c].stat(&st) = sv.ledger[c].Load()
	}
	// Derived, not counted: a separate total bumped beside its cause could
	// be seen disagreeing with the causes by a concurrent snapshot.
	st.SpillLoadErrors = st.SpillLoadErrChecksum + st.SpillLoadErrVersion +
		st.SpillLoadErrStream + st.SpillLoadErrInstance + st.SpillLoadErrOther
	for k, row := range kindRows {
		if row.stat != nil {
			*row.stat(&st) = sv.KindStats(Kind(k))
		}
	}
	inflight, queued := sv.admissionLoad()
	st.Inflight, st.Queued = int(inflight), int(queued)
	st.SessionsLive = sv.sessionsLive()
	st.BytesHeld = sv.bytesHeld()
	return st
}

// writeLedgerStatusz renders the ledger part of /statusz: the gauges,
// then one line per ledger group.
func (sv *Server) writeLedgerStatusz(w io.Writer) {
	inflight, queued := sv.admissionLoad()
	fmt.Fprintf(w, "gauges: sessions_live=%d bytes_held=%d inflight=%d queued=%d epochs=%d\n",
		sv.sessionsLive(), sv.bytesHeld(), inflight, queued, sv.Epochs())
	for c := 0; c < len(ledger); {
		group := ledger[c].group
		fmt.Fprintf(w, "%s:", group)
		for ; c < len(ledger) && ledger[c].group == group; c++ {
			fmt.Fprintf(w, " %s=%d", ledger[c].key, sv.ledger[c].Load())
		}
		fmt.Fprintln(w)
	}
}
