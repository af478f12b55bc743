package core

import (
	"time"

	"repro/internal/obs"
	"repro/internal/quorum"
)

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithQuorum replaces the default majority system with any quorum system
// sized for the replica group. This is the published generalization of the
// paper's majorities. For multi-writer use, the system's write quorums must
// pairwise intersect (see quorum.VerifyWriteIntersection).
func WithQuorum(qs quorum.System) ClientOption {
	return func(c *Client) { c.qs = qs }
}

// WithSingleWriter declares that this client is the only writer of every
// register it writes. Writes then skip the query phase and use a local
// sequence counter — the paper's SWMR protocol, one round trip per write.
// Reads are unaffected. Violating the declaration (two single-writer
// clients writing the same register with the same node id, or mixing with
// multi-writer writers that observed nothing) forfeits atomicity.
func WithSingleWriter() ClientOption {
	return func(c *Client) { c.singleWriter = true }
}

// ReadMode is the client's consolidated read/consistency option set: every
// knob that decides how a Read turns its quorum round(s) into a result.
// NewClient cross-validates the combination — see WithReadMode for the
// rules. The zero value is NOT the default; use DefaultReadMode.
type ReadMode struct {
	// FastRead completes a read in one round when the newest observed tag
	// is at or below a confirmed watermark (known quorum-durable), skipping
	// the write-back it proves redundant. Atomicity is preserved — DESIGN.md
	// §10 has the invariant. On by default; inapplicable (and silently off)
	// in bounded-label mode, whose cyclic order admits no watermark.
	FastRead bool
	// SkipUnanimous skips the write-back when a read quorum was unanimous
	// (the seeded F5 optimization — quiescent reads only; the watermark
	// fast path subsumes it under contention). Off by default.
	SkipUnanimous bool
	// Coalesce lets concurrent reads of one register share a quorum round
	// (see coalesce.go). On by default.
	Coalesce bool
	// WriteBack false disables the read's second phase unconditionally,
	// forfeiting atomicity for regularity — WithUnsafeNoWriteBack's
	// demonstration mode. On (true) by default; combining false with an
	// explicit FastRead or SkipUnanimous is rejected at NewClient.
	WriteBack bool
}

// DefaultReadMode is the mode a plain NewClient runs: watermark fast path
// and read coalescing on, unanimity skip off, write-back on.
func DefaultReadMode() ReadMode {
	return ReadMode{FastRead: true, Coalesce: true, WriteBack: true}
}

// WithReadMode installs a complete read mode in one option, replacing the
// defaults wholesale (every field counts as explicitly set). Invalid
// combinations are rejected by NewClient rather than silently adjusted:
// FastRead or SkipUnanimous together with WriteBack false, and FastRead
// with bounded labels. The single-knob options below are the incremental
// spelling of the same set.
func WithReadMode(m ReadMode) ClientOption {
	return func(c *Client) {
		c.readMode = m
		c.readModeSet = true
	}
}

// WithoutFastRead disables the confirmed-watermark fast path: every read
// pays the write-back unless another skip applies. The seeded two-phase
// protocol, used by ablations and the message-complexity experiments.
func WithoutFastRead() ClientOption {
	return func(c *Client) { c.readMode.FastRead = false }
}

// WithSkipUnanimousWriteBack enables the safe read optimization: when every
// member of the read quorum returned the same timestamp, the pair is
// already stored at a full read quorum, so the write-back phase is skipped.
// Contended reads still pay both phases. (Experiment F5's ablation.)
func WithSkipUnanimousWriteBack() ClientOption {
	return func(c *Client) { c.readMode.SkipUnanimous = true }
}

// WithUnsafeNoWriteBack disables the read's write-back phase entirely. The
// result is a regular register, not an atomic one: concurrent reads can
// observe a new value and then an older one ("new/old inversion").
// This mode exists solely so experiment T3 can demonstrate why the paper's
// write-back is necessary. Never use it for real workloads. It also turns
// the (default) fast path off: rejecting redundant write-backs needs no
// watermark when every write-back is rejected wholesale.
func WithUnsafeNoWriteBack() ClientOption {
	return func(c *Client) { c.readMode.WriteBack = false }
}

// WithReadFanout limits how many replicas a read-side query phase contacts
// (0 or >= group size means all, the paper's choice). Targets rotate
// round-robin across phases. Contacting fewer replicas than the group saves
// messages but couples the operation's liveness to the targeted replicas:
// if one of them is crashed or slow, the phase stalls even though a quorum
// of other replicas is healthy. k must still be able to satisfy the read
// quorum predicate (e.g. k=1 only works with ReadOneWriteAll).
func WithReadFanout(k int) ClientOption {
	return func(c *Client) { c.readFanout = k }
}

// WithWriteFanout is WithReadFanout for write/update phases (including read
// write-backs).
func WithWriteFanout(k int) ClientOption {
	return func(c *Client) { c.writeFanout = k }
}

// Retransmission. The paper's model assumes reliable channels; on lossy
// substrates (chaos drops on netsim, or TCP across connection resets and
// partitions) phase retransmission is the standard engineering step that
// restores the reliable-channel abstraction. All protocol messages are
// idempotent — queries are read-only and updates are adopt-if-newer — so
// retransmission never affects safety, only liveness and message count.
// There is one policy: an interval adapted from observed phase latencies
// and clamped to [floor, ceiling] (see Client.retransmitInterval).
//
// The default bounds: the floor keeps a cold or fast client from spamming
// duplicates; the ceiling bounds how long a lost message can stall an
// operation once latencies have been inflated by faults.
const (
	DefaultRetransmitFloor   = 100 * time.Millisecond
	DefaultRetransmitCeiling = 2 * time.Second

	// adaptiveMinSamples is how many completed phases the latency
	// histogram needs before its p99 is trusted over the floor.
	adaptiveMinSamples = 8
)

// WithRetransmit makes a phase rebroadcast its request to replicas that
// have not yet answered, every interval, until the quorum is assembled or
// the context expires. An interval <= 0 disables retransmission entirely,
// recovering the paper's pure reliable-channel model (useful for ablations
// and message-count experiments). Without this option the client defaults
// to adaptive retransmission — see WithAdaptiveRetransmit.
func WithRetransmit(interval time.Duration) ClientOption {
	if interval < 0 {
		interval = 0
	}
	return func(c *Client) { c.rtFloor, c.rtCeil = interval, interval }
}

// WithAdaptiveRetransmit selects the adaptive retransmission policy with
// explicit bounds (the policy itself is already the default, with
// DefaultRetransmitFloor/DefaultRetransmitCeiling). The rebroadcast
// interval for each phase is 3x the p99 of that phase kind's completed
// latencies — per-client, per-phase-kind, from the always-on histograms —
// clamped to [floor, ceiling]. A fast network earns a short interval and
// quick loss recovery; a slow or congested one backs the interval off
// automatically instead of amplifying the congestion. Non-positive floor
// or ceiling values keep their defaults; a ceiling below the floor is
// raised to it.
func WithAdaptiveRetransmit(floor, ceiling time.Duration) ClientOption {
	if floor <= 0 {
		floor = DefaultRetransmitFloor
	}
	if ceiling <= 0 {
		ceiling = DefaultRetransmitCeiling
	}
	if ceiling < floor {
		ceiling = floor
	}
	return func(c *Client) { c.rtFloor, c.rtCeil = floor, ceiling }
}

// WithoutReadCoalescing disables the shared-round read path: every Read
// runs its own quorum round even when another read of the same register is
// in flight on this client. Coalescing is on by default because it is
// invisible when operations do not overlap and strictly reduces load when
// they do; this switch exists for baselines and ablations (the throughput
// experiment's "unbatched" pass) and for callers that want per-read fault
// isolation — a coalesced read shares its leader's fate and retries on its
// own round only afterwards.
func WithoutReadCoalescing() ClientOption {
	return func(c *Client) { c.readMode.Coalesce = false }
}

// WithoutWriteAbsorption disables multi-writer write absorption: every
// Write runs its own query and update phases. See WithoutReadCoalescing
// for why absorption is otherwise on by default; single-writer and bounded
// clients never absorb regardless (their fast paths are already one round
// trip, and bounded label domination is per-write).
func WithoutWriteAbsorption() ClientOption {
	return func(c *Client) { c.absorbWrites = false }
}

// WithByzantine makes Byzantine tolerance a first-class protocol mode:
// the client survives up to f replicas that lie — fabricating tags,
// serving stale state, equivocating per client, or staying silent — not
// just f that crash. It is the one-option spelling of the masking-quorum
// construction: the client switches to quorum.NewMasking(n, f) sizes
// (overriding any WithQuorum), so read and write phases wait for enough
// acks that any two quorums intersect in >= 2f+1 replicas, and it adopts a
// (timestamp, value) pair only when >= f+1 replicas reported the identical
// pair — an echo f liars can never forge. The read's write-back then
// repairs honest laggards with the validated pair only (fabricated tags
// never propagate).
//
// A query phase in which no pair reaches f+1 support (write concurrency
// split the vote) is simply repeated, counted in MaskRetries: the
// construction is obstruction-free rather than wait-free, the standard
// trade-off for this Byzantine extension.
//
// When a query observes a pair newer than anything f+1-supported, the
// client cannot tell an honest in-flight write from a fabricated max-tag;
// it re-queries once (the confirm round, counted in
// MetricsSnapshot.ByzConfirms). A fabrication never gains support and is
// discarded, counted in ByzConfirms' companion ByzRejects — the
// suspected-liar counter the health layer exports. An honest write's pair
// usually gains support in the fresh round, but asynchrony does not
// promise it: a write still in flight at f or fewer replicas is discarded
// the same way and trips ByzRejects too (ROADMAP item 1(a)). The counter
// is a suspicion, not proof of a lie.
//
// Requires n >= 4f+1 replicas (quorum.Masking.Validate; n > 3f is the
// information-theoretic lower bound, but this one-round validation needs
// the stronger bound — see DESIGN.md). f = 0 is the plain crash-fault
// client unchanged: majority quorums, no validation, no cost.
func WithByzantine(f int) ClientOption {
	return func(c *Client) { c.byzF = f }
}

// WithTracer attaches a span tracer to the client. Every Read and Write
// emits an operation span, and every broadcast-and-collect phase emits a
// child span carrying the quorum-assembly detail (targets contacted,
// quorum size, first/last reply offsets, per-replica reply RTTs). The
// default is no tracer: spans cost nothing unless one is attached. Latency
// histograms (Latency) are always on regardless.
//
// Sinks in internal/obs: NewRing for tests and tools, NewJSONL for offline
// analysis, Multi to fan out. A nil t keeps tracing disabled.
func WithTracer(t obs.Tracer) ClientOption {
	return func(c *Client) { c.tracer = t }
}

// WithRuntimeTrace opts the client into Go execution-trace integration:
// while a runtime/trace session is active (runtime/trace.Start, or a
// /debug/pprof/trace scrape), every Read/Write opens a trace task
// ("abd.read"/"abd.write") and every quorum phase a region
// ("abd.phase.query", "abd.phase.write-back", ...) inside it, with the
// operation's causal trace id logged under the "abd.trace" category — so a
// `go tool trace` flamegraph lines up with the obs span tree for the same
// operation. When no trace session is active the instrumentation is a
// single boolean check per op; the default (option absent) costs nothing.
func WithRuntimeTrace() ClientOption {
	return func(c *Client) { c.runtimeTrace = true }
}

// WithBoundedLabels switches the client to the bounded cyclic label mode
// with liveness window l, implying single-writer mode (the paper's bounded
// construction is for the SWMR register). Every replica in the group must
// be configured with the same window via WithReplicaBoundedWindow.
//
// The mode is sound under the bounded-staleness assumption discussed in
// DESIGN.md: no live label lags more than l issues behind the newest.
// Comparisons that fall outside the window are detected and surfaced as
// order violations rather than mis-ordered.
func WithBoundedLabels(l int64) ClientOption {
	return func(c *Client) {
		ord, err := newBoundedOrder(l)
		if err != nil {
			return
		}
		c.bounded = true
		c.singleWriter = true
		c.boundedDom = ord.dom
		c.ord = ord
	}
}
