package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/timestamp"
	"repro/internal/transport"
	"repro/internal/types"
)

// Client is one processor's invocation side of the emulation. It issues the
// paper's two-phase operations against a fixed replica group:
//
//	Write(v):  [multi-writer: query a read quorum for the max timestamp]
//	           send (ts, v) to all, await a write quorum of acks.
//	Read():    query all, await a read quorum, pick the max-timestamp pair,
//	           write it back to a write quorum, return the value.
//
// A Client is safe for concurrent use; overlapping operations are
// multiplexed over one endpoint by operation identifiers.
type Client struct {
	id       types.NodeID
	ep       transport.Endpoint
	replicas []types.NodeID
	index    map[types.NodeID]int
	qs       quorum.System
	ord      order

	// Mode flags; see options.go. readMode is the cross-validated read
	// option set; readModeSet records that WithReadMode supplied it, so
	// NewClient can tell an explicitly requested fast path (rejected where
	// it cannot hold) from the default one (silently withdrawn).
	singleWriter bool
	readMode     ReadMode
	readModeSet  bool
	bounded      bool
	boundedDom   timestamp.Cyclic
	readFanout   int
	writeFanout  int
	rrNext       atomic.Uint64 // round-robin cursor for partial fanout
	byzF         int           // WithByzantine's f (0 = the paper's crash-fault client)

	// Retransmission interval bounds; see retransmitInterval. The default
	// is adaptive: the interval tracks the client's own observed phase
	// latencies between the two. Equal bounds fix the interval, and 0
	// turns retransmission off.
	rtFloor time.Duration
	rtCeil  time.Duration

	// Single-writer state: the last sequence number (unbounded) or label
	// (bounded) issued, per register.
	swMu    sync.Mutex
	swSeq   map[string]int64
	swLabel map[string]int64
	swWrote map[string]bool // whether swLabel holds a real label yet

	// Confirmed-watermark state (ReadMode.FastRead; DESIGN.md §10): per
	// register, the highest tag this client knows to be stored at a full
	// write quorum — advanced by its own quorum-acked updates and by
	// watermarks gossiped back on query replies, piggybacked on every
	// outgoing query and write.
	confMu    sync.Mutex
	confirmed map[string]Tag

	// Coalescing state (see coalesce.go): per-register shared rounds for
	// concurrent reads and multi-writer writes issued through this client.
	absorbWrites bool
	coMu         sync.Mutex
	rdRounds     map[string]*opRound
	wrRounds     map[string]*opRound

	opSeq   atomic.Uint64
	pendMu  sync.Mutex
	pending map[uint64]*opInbox

	started atomic.Bool
	done    chan struct{}

	metrics Metrics
	lat     latencySet
	hot     *health.TopK // per-register op counts (always on, like lat)
	tracer  obs.Tracer   // nil = tracing disabled (the default)

	// runtimeTrace arms the runtime/trace task/region bracketing
	// (WithRuntimeTrace, runtimetrace.go); active only while a trace
	// session runs.
	runtimeTrace bool
}

// NewClient creates a client for the given replica group. The client takes
// ownership of the endpoint: Close closes it. The replica slice's order
// defines quorum set indexes and must match the order used to size the
// quorum system.
func NewClient(id types.NodeID, ep transport.Endpoint, replicas []types.NodeID, opts ...ClientOption) (*Client, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("core: empty replica group")
	}
	if len(replicas) > quorum.MaxNodes {
		return nil, fmt.Errorf("core: replica group of %d exceeds max %d", len(replicas), quorum.MaxNodes)
	}
	c := &Client{
		id:       id,
		ep:       ep,
		replicas: append([]types.NodeID(nil), replicas...),
		index:    make(map[types.NodeID]int, len(replicas)),
		qs:       quorum.NewMajority(len(replicas)),
		ord:      unboundedOrder{},
		swSeq:    make(map[string]int64),
		swLabel:  make(map[string]int64),
		swWrote:  make(map[string]bool),
		pending:  make(map[uint64]*opInbox),
		done:     make(chan struct{}),
		hot:      health.NewTopK(0),

		confirmed: make(map[string]Tag),

		readMode:     DefaultReadMode(),
		absorbWrites: true,
		rdRounds:     make(map[string]*opRound),
		wrRounds:     make(map[string]*opRound),

		rtFloor: DefaultRetransmitFloor,
		rtCeil:  DefaultRetransmitCeiling,
	}
	for i, rid := range c.replicas {
		if _, dup := c.index[rid]; dup {
			return nil, fmt.Errorf("core: duplicate replica %v", rid)
		}
		c.index[rid] = i
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.byzF < 0 {
		return nil, fmt.Errorf("core: WithByzantine(%d): f must be >= 0", c.byzF)
	}
	if c.byzF > 0 {
		if !c.readMode.WriteBack {
			return nil, fmt.Errorf("core: WithByzantine cannot combine with WithUnsafeNoWriteBack: the write-back is what repairs honest laggards")
		}
		m := quorum.NewMasking(len(c.replicas), c.byzF)
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("core: WithByzantine(%d): %w", c.byzF, err)
		}
		c.qs = m
	}
	if c.qs.Size() != len(c.replicas) {
		return nil, fmt.Errorf("core: quorum system sized for %d replicas, group has %d",
			c.qs.Size(), len(c.replicas))
	}
	if c.bounded && !c.singleWriter {
		return nil, fmt.Errorf("core: bounded labels require the single-writer mode")
	}
	// Cross-validate the read-mode option set (see ReadMode). An explicitly
	// requested skip is rejected when it cannot mean anything; the default
	// fast path is silently withdrawn instead. SkipUnanimous is off by
	// default, so when it is on the caller asked for it.
	explicitFast := c.readModeSet && c.readMode.FastRead
	if !c.readMode.WriteBack {
		if explicitFast {
			return nil, fmt.Errorf("core: ReadMode.FastRead cannot combine with WriteBack off: the fast path skips the write-back only when the watermark proves it redundant, the unsafe mode skips it unconditionally")
		}
		if c.readMode.SkipUnanimous {
			return nil, fmt.Errorf("core: WithSkipUnanimousWriteBack cannot combine with WithUnsafeNoWriteBack: there is no write-back left to skip")
		}
		c.readMode.FastRead = false
	}
	if c.bounded {
		if explicitFast {
			return nil, fmt.Errorf("core: ReadMode.FastRead cannot combine with bounded labels: cyclic labels admit no sound watermark order")
		}
		c.readMode.FastRead = false
	}
	c.start()
	return c, nil
}

// ID returns the client's node identifier.
func (c *Client) ID() types.NodeID { return c.id }

// Metrics returns a snapshot of the client's operation counters.
func (c *Client) Metrics() MetricsSnapshot { return c.metrics.snapshot() }

// Latency returns a snapshot of the client's operation and phase latency
// histograms. Histograms are always on; only completed operations record.
func (c *Client) Latency() LatencySnapshot { return c.lat.snapshot() }

// HotKeys returns the client's hottest registers by attempted operation
// count (reads and writes, including failed ones), from an always-on
// space-saving sketch. k <= 0 returns every tracked key.
func (c *Client) HotKeys(k int) []health.HotKey { return c.hot.Top(k) }

// HotKeyTotal returns how many operations the hot-key sketch has seen.
func (c *Client) HotKeyTotal() int64 { return c.hot.Total() }

// ByzantineF returns the number of lying replicas the client's read
// validation tolerates (WithByzantine), 0 when validation is off.
func (c *Client) ByzantineF() int { return c.byzF }

// ReadMode reports the client's effective read mode after NewClient's
// cross-validation — e.g. FastRead reads false on a bounded-label client
// even though the default is on.
func (c *Client) ReadMode() ReadMode { return c.readMode }

// confirmedTag returns the client's own confirmed watermark for reg (zero
// until something has been confirmed).
func (c *Client) confirmedTag(reg string) Tag {
	c.confMu.Lock()
	defer c.confMu.Unlock()
	return c.confirmed[reg]
}

// noteConfirmed records that tag is stored at a full write quorum —
// witnessed directly (this client collected a write quorum of acks for it)
// or vouched by the gossip rules in watermark. No-op with the fast path
// off: the map is then never consulted.
func (c *Client) noteConfirmed(reg string, tag Tag) {
	if !c.readMode.FastRead || !tag.Valid {
		return
	}
	c.confMu.Lock()
	if cmp, err := c.ord.compare(tag, c.confirmed[reg]); err == nil && cmp > 0 {
		c.confirmed[reg] = tag
	}
	c.confMu.Unlock()
}

// gossip returns the watermark to piggyback on an outgoing query or write:
// the client's own confirmed tag, or zero (encoding in the pre-watermark
// wire format) when the fast path is off.
func (c *Client) gossip(reg string) Tag {
	if !c.readMode.FastRead {
		return Tag{}
	}
	return c.confirmedTag(reg)
}

// watermark folds the query replies' confirmed-watermark claims into the
// client's own watermark for reg and returns the result. In crash mode
// every replica is honest, so the maximum claim is trusted. Under
// WithByzantine(f) up to f repliers lie, so only the (f+1)-th largest claim
// is trusted: at least one of the f+1 replicas claiming that much is honest, and an honest claim is true. A
// lying replica can therefore suppress fast-path hits but never mint a
// watermark above what some honest replica confirmed.
func (c *Client) watermark(reg string, replies []message) Tag {
	var wm Tag
	if c.byzF == 0 {
		for _, m := range replies {
			adoptConf(c.ord, &wm, m.Conf)
		}
	} else {
		confs := make([]Tag, 0, len(replies))
		for _, m := range replies {
			if m.Conf.Valid {
				confs = append(confs, m.Conf)
			}
		}
		if len(confs) > c.byzF {
			sort.Slice(confs, func(i, j int) bool {
				cmp, err := c.ord.compare(confs[i], confs[j])
				return err == nil && cmp > 0
			})
			wm = confs[c.byzF]
		}
	}
	c.noteConfirmed(reg, wm)
	return c.confirmedTag(reg)
}

func (c *Client) start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	go c.demux()
}

// Close shuts the client down, failing any in-flight operations.
func (c *Client) Close() {
	if c.started.CompareAndSwap(false, true) {
		close(c.done)
		_ = c.ep.Close()
		return
	}
	_ = c.ep.Close()
	<-c.done
}

// demux routes replies to the in-flight operation that is waiting for them.
func (c *Client) demux() {
	defer close(c.done)
	for raw := range c.ep.Recv() {
		m, err := decodeMessage(raw.Payload)
		if err != nil {
			c.metrics.badMsgs.Add(1)
			continue
		}
		if m.Kind != KindReadReply && m.Kind != KindWriteAck {
			c.metrics.badMsgs.Add(1)
			continue
		}
		c.pendMu.Lock()
		inbox, ok := c.pending[m.Op]
		c.pendMu.Unlock()
		if !ok {
			// A straggler reply for a finished operation; the protocol
			// discards these by design.
			c.metrics.stragglers.Add(1)
			continue
		}
		m.fromReplica = raw.From
		inbox.put(m)
	}
}

// opInbox buffers one in-flight operation's replies without bounds, so
// duplicated or bursty replies can never crowd out a reply from a distinct
// replica (the substrate may deliver at-least-once).
type opInbox struct {
	mu     sync.Mutex
	buf    []message
	notify chan struct{} // capacity 1: "buf may be non-empty"
}

func newOpInbox() *opInbox {
	return &opInbox{notify: make(chan struct{}, 1)}
}

func (in *opInbox) put(m message) {
	in.mu.Lock()
	in.buf = append(in.buf, m)
	in.mu.Unlock()
	select {
	case in.notify <- struct{}{}:
	default:
	}
}

// drain removes and returns all buffered replies.
func (in *opInbox) drain() []message {
	in.mu.Lock()
	out := in.buf
	in.buf = nil
	in.mu.Unlock()
	return out
}

// opTrace is one client operation's trace context: trace is the id shared
// by every span and message the operation causes (0 = untraced), span the
// operation's root span id that phase spans parent to.
type opTrace struct {
	trace uint64
	span  uint64
}

// phase broadcasts one request to every replica and collects replies until
// the responder set satisfies pred. It returns the replies that formed the
// quorum (one per replica, duplicates discarded).
//
// ot and label feed the observability layer: completed phases record into
// the phase latency histograms, and — when a tracer is attached — emit a
// child span under the operation's root span, carrying the quorum size, the
// first/quorum-completing reply offsets, and every counted replica's reply
// RTT. When the operation is traced, the outgoing request is stamped with
// (ot.trace, phase span id) so replica and transport spans on the far side
// join the same trace.
func (c *Client) phase(ctx context.Context, req message, pred func(quorum.Set) bool, ot opTrace, label string) ([]message, error) {
	defer c.phaseRegion(ctx, label)()
	op := c.opSeq.Add(1)
	req.Op = op
	var spanID uint64
	if c.tracer != nil {
		spanID = obs.NextID()
	}
	if ot.trace != 0 {
		req.Trace, req.Span = ot.trace, spanID
	}
	inbox := newOpInbox()

	c.pendMu.Lock()
	c.pending[op] = inbox
	c.pendMu.Unlock()
	defer func() {
		c.pendMu.Lock()
		delete(c.pending, op)
		c.pendMu.Unlock()
	}()

	start := time.Now()
	var (
		firstReply time.Duration
		lastReply  time.Duration
		rtts       map[int64]time.Duration
	)
	if c.tracer != nil {
		rtts = make(map[int64]time.Duration, len(c.replicas))
	}

	payload := req.encode()
	targets := c.targets(req.Kind)
	for _, rid := range targets {
		if err := c.ep.Send(rid, payload); err != nil {
			return nil, fmt.Errorf("send to %v: %w", rid, err)
		}
		c.metrics.msgsSent.Add(1)
	}
	c.metrics.phases.Add(1)

	var retransmitCh <-chan time.Time
	if interval := c.retransmitInterval(req.Kind); interval > 0 {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		retransmitCh = ticker.C
	}

	var (
		set     quorum.Set
		seen    = make([]bool, len(c.replicas))
		replies = make([]message, 0, len(c.replicas))
	)
	fail := func(err error) ([]message, error) {
		c.emitPhase(ot, spanID, label, req.Reg, start, err,
			len(targets), set.Count(), firstReply, lastReply, rtts)
		return nil, err
	}
	for {
		select {
		case <-inbox.notify:
			for _, m := range inbox.drain() {
				i, ok := c.index[m.fromReplica]
				if !ok || seen[i] {
					c.metrics.stragglers.Add(1)
					continue
				}
				seen[i] = true
				set = set.Add(i)
				replies = append(replies, m)
				lastReply = time.Since(start)
				if len(replies) == 1 {
					firstReply = lastReply
				}
				if rtts != nil {
					rtts[int64(m.fromReplica)] = lastReply
				}
			}
			if pred(set) {
				c.recordPhase(req.Kind, time.Since(start))
				c.emitPhase(ot, spanID, label, req.Reg, start, nil,
					len(targets), set.Count(), firstReply, lastReply, rtts)
				return replies, nil
			}
		case <-retransmitCh:
			// Re-send to the replicas that have not answered. Safe because
			// every protocol message is idempotent.
			for _, rid := range targets {
				if i, ok := c.index[rid]; ok && seen[i] {
					continue
				}
				if err := c.ep.Send(rid, payload); err != nil {
					continue
				}
				c.metrics.msgsSent.Add(1)
				c.metrics.retransmits.Add(1)
			}
		case <-ctx.Done():
			return fail(fmt.Errorf("%w: %s phase got %d/%d replies: %v",
				types.ErrNoQuorum, req.Kind, set.Count(), len(c.replicas), ctx.Err()))
		case <-c.done:
			// The client was closed under us: no more replies can arrive.
			return fail(fmt.Errorf("%s phase: %w", req.Kind, types.ErrClosed))
		}
	}
}

// retransmitInterval returns the rebroadcast period for a phase, or 0 for
// no retransmission. The interval is derived from the client's own
// completed-phase latency histogram — 3x the observed p99, clamped to
// [floor, ceiling] — so it sits safely above the healthy round-trip time
// yet reacts within a fraction of a second when a message is lost. Until
// enough phases have completed to trust the histogram, the floor is used:
// a spurious retransmission is harmless (all protocol messages are
// idempotent), a late one costs liveness. A fixed interval d is the clamp
// with floor = ceiling = d, and retransmission off is d = 0.
func (c *Client) retransmitInterval(kind Kind) time.Duration {
	if c.rtFloor == c.rtCeil {
		return c.rtFloor // the clamp's answer; skip the histogram copy
	}
	var snap obs.HistSnapshot
	if kind == KindReadQuery {
		snap = c.lat.phaseQuery.Snapshot()
	} else {
		snap = c.lat.phaseUpdate.Snapshot()
	}
	if snap.Count < adaptiveMinSamples {
		return c.rtFloor
	}
	d := 3 * snap.Quantile(0.99)
	if d < c.rtFloor {
		d = c.rtFloor
	}
	if d > c.rtCeil {
		d = c.rtCeil
	}
	return d
}

// recordPhase files a completed phase's latency under its kind's histogram.
func (c *Client) recordPhase(kind Kind, d time.Duration) {
	if kind == KindReadQuery {
		c.lat.phaseQuery.Record(d)
	} else {
		c.lat.phaseUpdate.Record(d)
	}
}

// emitPhase sends a phase child span to the tracer, if one is attached.
func (c *Client) emitPhase(ot opTrace, id uint64, label, reg string, start time.Time, err error,
	targets, quorumSize int, first, last time.Duration, rtts map[int64]time.Duration) {
	if c.tracer == nil {
		return
	}
	sp := obs.Span{
		Trace: ot.trace, ID: id, Parent: ot.span,
		Kind: "phase", Phase: label, Reg: reg, Node: int64(c.id),
		Start: start, Dur: time.Since(start),
		Targets: targets, Quorum: quorumSize,
		FirstReply: first, LastReply: last, ReplicaRTT: rtts,
	}
	if err != nil {
		sp.Err = err.Error()
	}
	c.tracer.Emit(sp)
}

// beginOp allocates an operation's trace context, or the zero opTrace when
// tracing is off.
func (c *Client) beginOp() opTrace {
	if c.tracer == nil {
		return opTrace{}
	}
	return opTrace{trace: obs.NewTraceID(), span: obs.NextID()}
}

// endOp emits the operation's root span.
func (c *Client) endOp(ot opTrace, kind, reg string, start time.Time, err error) {
	if c.tracer == nil {
		return
	}
	sp := obs.Span{
		Trace: ot.trace, ID: ot.span, Kind: kind, Reg: reg, Node: int64(c.id),
		Start: start, Dur: time.Since(start),
	}
	if err != nil {
		sp.Err = err.Error()
	}
	c.tracer.Emit(sp)
}

// targets returns the replicas a phase contacts: everyone by default, or a
// round-robin window of the configured fanout.
func (c *Client) targets(kind Kind) []types.NodeID {
	fanout := c.writeFanout
	if kind == KindReadQuery {
		fanout = c.readFanout
	}
	n := len(c.replicas)
	if fanout <= 0 || fanout >= n {
		return c.replicas
	}
	start := int(c.rrNext.Add(1)-1) % n
	out := make([]types.NodeID, 0, fanout)
	for i := 0; i < fanout; i++ {
		out = append(out, c.replicas[(start+i)%n])
	}
	return out
}

// newest returns the max-tag pair among replies under the client's order.
func (c *Client) newest(replies []message) (Tag, types.Value, error) {
	best := Tag{}
	var val types.Value
	for _, m := range replies {
		cmp, err := c.ord.compare(m.Tag, best)
		if err != nil {
			c.metrics.orderViolations.Add(1)
			return Tag{}, nil, fmt.Errorf("core: cannot order replica tags: %w", err)
		}
		if cmp > 0 {
			best = m.Tag
			val = m.Val
		}
	}
	return best, val, nil
}

// vouch partitions replies by (tag, value) pair: accepted holds one
// representative per pair reported identically by at least byzF+1 distinct
// replicas, unsupported one per pair below that bar. At most byzF replicas
// are Byzantine, so every accepted pair was reported by a correct replica
// and is a genuine protocol value; an unsupported pair may be an honest
// in-flight write seen at few replicas — or a lie.
func (c *Client) vouch(replies []message) (accepted, unsupported []message) {
	type groupEntry struct {
		count int
		rep   message
	}
	groups := make(map[string]*groupEntry, len(replies))
	for _, m := range replies {
		key := fmt.Sprintf("%v|%d|%d|%v|%d|%s",
			m.Tag.Valid, m.Tag.TS.Seq, m.Tag.TS.Writer, m.Tag.Bounded, m.Tag.Label, m.Val)
		if g, exists := groups[key]; exists {
			g.count++
		} else {
			groups[key] = &groupEntry{count: 1, rep: m}
		}
	}
	for _, g := range groups {
		if g.count >= c.byzF+1 {
			accepted = append(accepted, g.rep)
		} else {
			unsupported = append(unsupported, g.rep)
		}
	}
	return accepted, unsupported
}

// aheadOf reports whether any of replies carries a tag strictly newer than
// tag. Unorderable tags (bounded-label windows) count as not newer: they
// already increment orderViolations elsewhere and must not drive
// Byzantine suspicion.
func (c *Client) aheadOf(replies []message, tag Tag) bool {
	for _, m := range replies {
		if cmp, err := c.ord.compare(m.Tag, tag); err == nil && cmp > 0 {
			return true
		}
	}
	return false
}

// queryValidated runs the query phase that starts reads and multi-writer
// writes and returns the (tag, value) pair the operation should adopt,
// plus the replies of the phase round that produced it (for the fast-path
// watermark check and the unanimous write-back optimization) and how many
// quorum rounds it paid (1 plus any masking retries and confirm rounds —
// the read path's ReadRounds accounting).
//
// The crash-fault client (byzF == 0) runs the paper's rule: one phase,
// newest pair wins. WithByzantine(f>0) only trusts pairs reported
// identically by >= f+1 replicas and re-queries while write concurrency
// splits the vote below that bar. It adds the echo/confirm step: when some
// replica reports a pair NEWER than every vouched-for pair but without f+1
// support, the client cannot tell an honest in-flight write from a
// fabricated max-tag, so it re-queries once more (the confirm round,
// metric byzConfirms). Usually an honest write's pair gains f+1 support in
// the fresh round — its update phase reached more correct replicas
// meanwhile — or is superseded by an even newer vouched pair. A
// fabrication can never gain honest support: if the confirm round still
// shows an unsupported tag ahead of everything vouched, the client
// discards it as a suspected lie (metric byzRejects) and adopts the newest
// vouched pair. Exactly one confirm round runs per operation — an
// equivocator fabricating fresh tags every round cannot livelock the read
// — and fabricated tags never reach the write-back phase (DESIGN.md
// invariant V2).
//
// The rule is a heuristic, not a proof of lying: asynchrony grants no
// bound on how long an honest update stays at fewer than f+1 replicas,
// so an honest in-flight write can also still be unsupported after the
// confirm round and be counted in byzRejects (ROADMAP item 1(a)).
func (c *Client) queryValidated(ctx context.Context, reg string, ot opTrace) (Tag, types.Value, []message, int, error) {
	confirming := false
	for rounds := 1; ; rounds++ {
		label := "query"
		if confirming {
			label = "confirm"
		}
		replies, err := c.phase(ctx, message{Kind: KindReadQuery, Reg: reg, Conf: c.gossip(reg)}, c.qs.ContainsReadQuorum, ot, label)
		if err != nil {
			return Tag{}, nil, nil, rounds, err
		}
		if c.byzF == 0 {
			best, val, err := c.newest(replies)
			if err != nil {
				return Tag{}, nil, nil, rounds, err
			}
			return best, val, replies, rounds, nil
		}
		accepted, unsupported := c.vouch(replies)
		if len(accepted) == 0 {
			// No pair had f+1 support (write concurrency split the vote);
			// query again.
			c.metrics.maskRetries.Add(1)
			continue
		}
		best, val, err := c.newest(accepted)
		if err != nil {
			return Tag{}, nil, nil, rounds, err
		}
		switch {
		case !c.aheadOf(unsupported, best):
			// The quiet case: nothing claims to be ahead of the validated
			// state.
		case !confirming:
			confirming = true
			c.metrics.byzConfirms.Add(1)
			continue
		default:
			// Still ahead of everything f+1-supported after a fresh round:
			// suspected lie. An honest write still short of f+1 replicas
			// lands here too; asynchrony bounds no delay (ROADMAP 1(a)).
			c.metrics.byzRejects.Add(1)
		}
		return best, val, replies, rounds, nil
	}
}

// Read performs the atomic read: query a read quorum, pick the newest pair,
// write it back to a write quorum, return the value. A register that was
// never written reads as nil.
func (c *Client) Read(ctx context.Context, reg string) (types.Value, error) {
	start := time.Now()
	c.hot.Offer(reg)
	ot := c.beginOp()
	ctx, endTask := c.beginRuntimeTask(ctx, "abd.read", ot)
	defer endTask()
	var val types.Value
	var err error
	if c.readMode.Coalesce {
		val, err = c.readCoalesced(ctx, reg, ot)
	} else {
		val, err = c.read(ctx, reg, ot)
	}
	if err == nil {
		c.lat.read.Record(time.Since(start))
	} else {
		c.metrics.readFails.Add(1)
	}
	c.endOp(ot, "read", reg, start, err)
	return val, err
}

func (c *Client) read(ctx context.Context, reg string, ot opTrace) (types.Value, error) {
	best, val, replies, rounds, err := c.queryValidated(ctx, reg, ot)
	if err != nil {
		return nil, fmt.Errorf("read %q: %w", reg, err)
	}
	c.metrics.reads.Add(1)
	// recordRounds files the completed read's round-trip count; like the
	// latency histograms it records only on success.
	recordRounds := func() {
		c.metrics.readRounds.Add(int64(rounds))
		c.lat.readRounds.Record(time.Duration(rounds))
	}
	if !best.Valid {
		// Initial state everywhere: nothing to propagate.
		recordRounds()
		return nil, nil
	}

	if !c.readMode.WriteBack {
		c.metrics.writeBacksSkipped.Add(1)
		recordRounds()
		return val, nil
	}
	if c.readMode.FastRead {
		// Fast path (DESIGN.md §10): when the newest observed tag is at or
		// below a confirmed watermark, the pair is already stored at a full
		// write quorum, so the write-back would be a no-op — the read
		// completes in the one round already paid. This runs only after
		// queryValidated, so in Byzantine mode best is the f+1-vouched pair
		// and the watermark itself is held to the f+1-claim bar: a lying
		// replica can cost hits, never skip validation.
		if wm := c.watermark(reg, replies); wm.Valid {
			if cmp, err := c.ord.compare(best, wm); err == nil && cmp <= 0 {
				c.metrics.fastPathReads.Add(1)
				c.metrics.writeBacksSkipped.Add(1)
				recordRounds()
				return val, nil
			}
		}
	}
	if c.readMode.SkipUnanimous && unanimous(replies, best) {
		// Every member of a full read quorum already stores the pair, so
		// any later read quorum intersects it and will see a tag >= best:
		// the write-back would be a no-op. (Safe optimization.)
		c.metrics.writeBacksSkipped.Add(1)
		recordRounds()
		return val, nil
	}

	wb := message{Kind: KindWrite, Reg: reg, Tag: best, Val: val, Conf: c.gossip(reg)}
	if _, err := c.phase(ctx, wb, c.qs.ContainsWriteQuorum, ot, "write-back"); err != nil {
		return nil, fmt.Errorf("read %q write-back: %w", reg, err)
	}
	// The write-back collected a write quorum of acks for best: it is now
	// confirmed, and the next query's piggyback will tell the replicas.
	c.noteConfirmed(reg, best)
	c.metrics.writeBacks.Add(1)
	rounds++
	recordRounds()
	return val, nil
}

func unanimous(replies []message, tag Tag) bool {
	for _, m := range replies {
		if m.Tag != tag {
			return false
		}
	}
	return true
}

// Write performs the atomic write. In multi-writer mode (the default) it
// first queries a read quorum to find the newest timestamp and then
// broadcasts its successor; in single-writer mode it uses its local
// sequence counter and needs no query phase.
func (c *Client) Write(ctx context.Context, reg string, val types.Value) error {
	start := time.Now()
	c.hot.Offer(reg)
	ot := c.beginOp()
	ctx, endTask := c.beginRuntimeTask(ctx, "abd.write", ot)
	defer endTask()
	var err error
	if c.absorbWrites && !c.singleWriter {
		err = c.writeAbsorbed(ctx, reg, val, ot)
	} else {
		err = c.write(ctx, reg, val, ot)
	}
	if err == nil {
		c.lat.write.Record(time.Since(start))
	} else {
		c.metrics.writeFails.Add(1)
	}
	c.endOp(ot, "write", reg, start, err)
	return err
}

func (c *Client) write(ctx context.Context, reg string, val types.Value, ot opTrace) error {
	tag, err := c.nextTag(ctx, reg, ot)
	if err != nil {
		return fmt.Errorf("write %q: %w", reg, err)
	}
	req := message{Kind: KindWrite, Reg: reg, Tag: tag, Val: val, Conf: c.gossip(reg)}
	if _, err := c.phase(ctx, req, c.qs.ContainsWriteQuorum, ot, "update"); err != nil {
		return fmt.Errorf("write %q: %w", reg, err)
	}
	c.noteConfirmed(reg, tag)
	c.metrics.writes.Add(1)
	return nil
}

// nextTag chooses the tag for a new write.
func (c *Client) nextTag(ctx context.Context, reg string, ot opTrace) (Tag, error) {
	switch {
	case c.bounded:
		return c.nextBoundedTag(ctx, reg, ot)
	case c.singleWriter:
		// The local counter is the whole point of the single-writer fast
		// path: no query phase, one round trip per write. A sequence number
		// is consumed even if the write later fails — timestamps need only
		// be monotone, not dense.
		c.swMu.Lock()
		c.swSeq[reg]++
		seq := c.swSeq[reg]
		c.swMu.Unlock()
		return Tag{Valid: true, TS: timestamp.TS{Seq: seq, Writer: c.id}}, nil
	default:
		// Multi-writer: learn the newest timestamp from a read quorum, then
		// exceed it. Write quorums must pairwise intersect for this to
		// observe every completed write (quorum.VerifyWriteIntersection).
		// The validated query also keeps a fabricated max-tag out of the
		// successor computation: a liar must not get to exhaust the
		// timestamp space or steer honest writers' ordering.
		best, _, _, _, err := c.queryValidated(ctx, reg, ot)
		if err != nil {
			return Tag{}, err
		}
		return Tag{Valid: true, TS: best.TS.Next(c.id)}, nil
	}
}

// nextBoundedTag implements the bounded-label write: collect the labels
// live at a read quorum (plus the writer's own last label) and pick a
// dominating label from the cyclic domain.
func (c *Client) nextBoundedTag(ctx context.Context, reg string, ot opTrace) (Tag, error) {
	replies, err := c.phase(ctx, message{Kind: KindReadQuery, Reg: reg}, c.qs.ContainsReadQuorum, ot, "query")
	if err != nil {
		return Tag{}, err
	}
	live := make([]int64, 0, len(replies)+1)
	for _, m := range replies {
		if m.Tag.Valid && m.Tag.Bounded {
			live = append(live, m.Tag.Label)
		}
	}
	c.swMu.Lock()
	if c.swWrote[reg] {
		live = append(live, c.swLabel[reg])
	}
	c.swMu.Unlock()

	label, err := c.boundedDom.Dominating(live)
	if err != nil {
		c.metrics.orderViolations.Add(1)
		return Tag{}, err
	}
	// Record the label immediately: even if the broadcast fails part-way,
	// some replicas may have adopted it, so it is live and the next write
	// must dominate it.
	c.swMu.Lock()
	c.swLabel[reg] = label
	c.swWrote[reg] = true
	c.swMu.Unlock()
	return Tag{Valid: true, Bounded: true, Label: label}, nil
}

// QueryMax runs a single query phase: it returns the newest (tag, value)
// pair found at a read quorum, without the read's write-back. It is the
// building block internal/reconfig uses to read across configurations; a
// bare QueryMax is only a regular read, not an atomic one.
func (c *Client) QueryMax(ctx context.Context, reg string) (Tag, types.Value, error) {
	tag, val, _, _, err := c.queryValidated(ctx, reg, opTrace{})
	if err != nil {
		return Tag{}, nil, fmt.Errorf("query %q: %w", reg, err)
	}
	return tag, val, nil
}

// Propagate installs (tag, value) at a write quorum, exactly like a read's
// write-back phase: replicas adopt the pair iff it is newer than what they
// store. Used for cross-configuration state transfer and repair tools.
func (c *Client) Propagate(ctx context.Context, reg string, tag Tag, val types.Value) error {
	req := message{Kind: KindWrite, Reg: reg, Tag: tag, Val: val, Conf: c.gossip(reg)}
	if _, err := c.phase(ctx, req, c.qs.ContainsWriteQuorum, opTrace{}, "update"); err != nil {
		return fmt.Errorf("propagate %q: %w", reg, err)
	}
	c.noteConfirmed(reg, tag)
	return nil
}

// NextTagAfter returns the tag a write by this client should carry to
// supersede observed: the successor sequence number tagged with this
// client's id. Used by internal/reconfig to order writes that observed
// state across several configurations.
func (c *Client) NextTagAfter(observed Tag) Tag {
	return Tag{Valid: true, TS: observed.TS.Next(c.id)}
}

// Register returns a handle binding this client to one named register.
// The result's dynamic type is *core.Register (Name reports the binding);
// the interface return is what lets Client, reconfig.Client, and
// shard.Store share the types.RW contract.
func (c *Client) Register(name string) types.Register {
	return &Register{c: c, name: name}
}

var _ types.RW = (*Client)(nil)

// Register is a convenience handle for a single named register.
type Register struct {
	c    *Client
	name string
}

// Name returns the register's name.
func (r *Register) Name() string { return r.name }

// Read reads the register.
func (r *Register) Read(ctx context.Context) (types.Value, error) {
	return r.c.Read(ctx, r.name)
}

// Write writes the register.
func (r *Register) Write(ctx context.Context, val types.Value) error {
	return r.c.Write(ctx, r.name, val)
}
