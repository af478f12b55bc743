package core

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Metrics holds a client's operation counters. All fields are updated
// atomically; read them through snapshot.
type Metrics struct {
	reads             atomic.Int64
	writes            atomic.Int64
	phases            atomic.Int64
	msgsSent          atomic.Int64
	writeBacks        atomic.Int64
	writeBacksSkipped atomic.Int64
	orderViolations   atomic.Int64
	stragglers        atomic.Int64
	badMsgs           atomic.Int64
	retransmits       atomic.Int64
	maskRetries       atomic.Int64
	byzConfirms       atomic.Int64
	byzRejects        atomic.Int64
	coalescedReads    atomic.Int64
	absorbedWrites    atomic.Int64
	fastPathReads     atomic.Int64
	readRounds        atomic.Int64
	readFails         atomic.Int64
	writeFails        atomic.Int64
}

// MetricsSnapshot is a point-in-time copy of a client's counters.
type MetricsSnapshot struct {
	// Reads and Writes count completed operations.
	Reads, Writes int64
	// Phases counts broadcast-and-collect rounds; the paper's round
	// complexity claims (T2) are checked against Phases/ops ratios.
	Phases int64
	// MsgsSent counts request messages sent by this client (T1 counts
	// replies too, via the network's stats).
	MsgsSent int64
	// WriteBacks and WriteBacksSkipped split reads by whether the second
	// phase ran (F5's ablation of the unanimous-read optimization).
	WriteBacks, WriteBacksSkipped int64
	// OrderViolations counts bounded-label comparisons that fell outside
	// the sound window (T4).
	OrderViolations int64
	// Stragglers counts replies that arrived after their operation
	// finished — the protocol's designed-for case, not an error.
	Stragglers int64
	// BadMsgs counts undecodable or unexpected payloads.
	BadMsgs int64
	// Retransmits counts re-sent requests (WithRetransmit on a lossy
	// substrate).
	Retransmits int64
	// MaskRetries counts WithByzantine query phases repeated because no
	// pair had f+1 support.
	MaskRetries int64
	// ByzConfirms counts WithByzantine confirm rounds: a query saw an
	// unsupported pair ahead of everything f+1-vouched and re-queried once
	// to tell an honest in-flight write from a fabricated tag. ByzRejects
	// counts the confirm rounds that ended in suspicion — the pair stayed
	// unsupported and was discarded. ByzRejects is the suspected-liar
	// counter the health layer exports (abd_health_byz_*): nonzero whenever
	// a fabricating or equivocating replica is being masked. It is not
	// proof of a lie: under asynchrony an honest write can still be in
	// flight at f or fewer replicas after the confirm round, and is counted
	// here as well, so an honest run under write contention can show a
	// small nonzero count (ROADMAP item 1(a)).
	ByzConfirms, ByzRejects int64
	// CoalescedReads counts reads served by adopting a concurrent read's
	// shared quorum round; AbsorbedWrites counts multi-writer writes acked
	// by riding a concurrent write's round (see coalesce.go). Both count
	// the followers only — each shared round's leader shows up in the
	// ordinary Phases/MsgsSent numbers.
	CoalescedReads, AbsorbedWrites int64
	// FastPathReads counts reads completed in one round because the newest
	// observed tag was at or below the quorum's confirmed watermark (the
	// ReadMode.FastRead path; DESIGN.md §10). ReadRounds sums the quorum
	// rounds every completed read paid (query, masking/confirm retries,
	// write-back) — ReadRounds/Reads is the mean round trips per read, the
	// number the fast path exists to push toward 1.
	FastPathReads, ReadRounds int64
	// ReadFails and WriteFails count operations that returned an error (no
	// quorum, timeout, closed client). Together with Reads/Writes they give
	// the SLO layer its total and errored op counts.
	ReadFails, WriteFails int64
}

// Merge returns the field-wise sum of two snapshots, for aggregating
// counters across clients — the shard store's per-group clients, a
// cluster's client fleet, or the nemesis harness's workload clients.
func (s MetricsSnapshot) Merge(o MetricsSnapshot) MetricsSnapshot {
	return MetricsSnapshot{
		Reads:             s.Reads + o.Reads,
		Writes:            s.Writes + o.Writes,
		Phases:            s.Phases + o.Phases,
		MsgsSent:          s.MsgsSent + o.MsgsSent,
		WriteBacks:        s.WriteBacks + o.WriteBacks,
		WriteBacksSkipped: s.WriteBacksSkipped + o.WriteBacksSkipped,
		OrderViolations:   s.OrderViolations + o.OrderViolations,
		Stragglers:        s.Stragglers + o.Stragglers,
		BadMsgs:           s.BadMsgs + o.BadMsgs,
		Retransmits:       s.Retransmits + o.Retransmits,
		MaskRetries:       s.MaskRetries + o.MaskRetries,
		ByzConfirms:       s.ByzConfirms + o.ByzConfirms,
		ByzRejects:        s.ByzRejects + o.ByzRejects,
		CoalescedReads:    s.CoalescedReads + o.CoalescedReads,
		AbsorbedWrites:    s.AbsorbedWrites + o.AbsorbedWrites,
		FastPathReads:     s.FastPathReads + o.FastPathReads,
		ReadRounds:        s.ReadRounds + o.ReadRounds,
		ReadFails:         s.ReadFails + o.ReadFails,
		WriteFails:        s.WriteFails + o.WriteFails,
	}
}

func (m *Metrics) snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Reads:             m.reads.Load(),
		Writes:            m.writes.Load(),
		Phases:            m.phases.Load(),
		MsgsSent:          m.msgsSent.Load(),
		WriteBacks:        m.writeBacks.Load(),
		WriteBacksSkipped: m.writeBacksSkipped.Load(),
		OrderViolations:   m.orderViolations.Load(),
		Stragglers:        m.stragglers.Load(),
		BadMsgs:           m.badMsgs.Load(),
		Retransmits:       m.retransmits.Load(),
		MaskRetries:       m.maskRetries.Load(),
		ByzConfirms:       m.byzConfirms.Load(),
		ByzRejects:        m.byzRejects.Load(),
		CoalescedReads:    m.coalescedReads.Load(),
		AbsorbedWrites:    m.absorbedWrites.Load(),
		FastPathReads:     m.fastPathReads.Load(),
		ReadRounds:        m.readRounds.Load(),
		ReadFails:         m.readFails.Load(),
		WriteFails:        m.writeFails.Load(),
	}
}

// latencySet holds a client's always-on latency histograms. Recording is
// a few atomic adds per operation, cheap enough to never gate behind an
// option; spans (WithTracer) carry the expensive per-phase detail instead.
type latencySet struct {
	read        obs.Histogram // whole Read operations (both phases)
	write       obs.Histogram // whole Write operations (incl. query phase)
	phaseQuery  obs.Histogram // individual query phases
	phaseUpdate obs.Histogram // individual update / write-back phases
	readRounds  obs.Histogram // quorum rounds per read (a count, not ns)
}

// LatencySnapshot is a point-in-time copy of a client's latency
// histograms. Only completed (error-free) operations and phases are
// recorded; failures are visible in the counters instead.
type LatencySnapshot struct {
	Read        obs.HistSnapshot
	Write       obs.HistSnapshot
	PhaseQuery  obs.HistSnapshot
	PhaseUpdate obs.HistSnapshot
	// ReadRounds is the distribution of quorum round trips per completed
	// read. The histogram machinery is time-based, so counts are recorded
	// as if they were nanosecond durations (like Replica.BatchSizes): a
	// bucket labelled "1ns" holds the fast-path one-round reads.
	ReadRounds obs.HistSnapshot
}

// Merge folds another client's snapshot into this one, histogram by
// histogram, for fleet-wide quantiles.
func (s LatencySnapshot) Merge(o LatencySnapshot) LatencySnapshot {
	return LatencySnapshot{
		Read:        s.Read.Merge(o.Read),
		Write:       s.Write.Merge(o.Write),
		PhaseQuery:  s.PhaseQuery.Merge(o.PhaseQuery),
		PhaseUpdate: s.PhaseUpdate.Merge(o.PhaseUpdate),
		ReadRounds:  s.ReadRounds.Merge(o.ReadRounds),
	}
}

func (l *latencySet) snapshot() LatencySnapshot {
	return LatencySnapshot{
		Read:        l.read.Snapshot(),
		Write:       l.write.Snapshot(),
		PhaseQuery:  l.phaseQuery.Snapshot(),
		PhaseUpdate: l.phaseUpdate.Snapshot(),
		ReadRounds:  l.readRounds.Snapshot(),
	}
}
