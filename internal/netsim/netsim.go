// Package netsim simulates the paper's channel: n processors joined by
// point-to-point channels that are reliable but deliver with arbitrary
// (here: seeded-random, configurable) delay. It adds the instrumentation
// the evaluation needs — exact message counts per protocol kind, bytes,
// and realized delays.
//
// Every departure from that model comes from internal/chaos: a Net owns one
// chaos.Net, seeded from Config.Seed, embeds it (so Crash, Partition,
// BlockLink, SetDefaultFaults, SetInterceptor, ... are methods of Net), and
// wraps every endpoint Node and Reattach hand out. The simulator itself
// only delivers; the one loss it decides is a message still in flight to a
// receiver that crashed before delivery.
//
// Delivery ordering is not FIFO unless delays are constant; the ABD protocol
// does not require FIFO channels, and the tests exercise reordering.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Config controls the simulated network. The zero value is valid: zero
// delays, no faults.
type Config struct {
	// Seed makes delay decisions and the embedded chaos controller's fault
	// draws reproducible. Zero means seed 1.
	Seed int64
	// MinDelay and MaxDelay bound the uniformly random one-way message
	// delay. MaxDelay < MinDelay is treated as MaxDelay == MinDelay.
	MinDelay time.Duration
	MaxDelay time.Duration
	// Tracer, when non-nil, receives a "net-send" span for every message
	// carrying a trace context that reaches the channel: its Dur is the
	// realized send-to-delivery transit (the simulated delay plus
	// scheduling slop), with Err set on messages lost to a receiver crash
	// while in flight. Untraced messages emit nothing.
	Tracer obs.Tracer
}

// Stats is a snapshot of the channel's counters. They meter what reaches
// the channel: a message the embedded chaos controller discards first
// (crash, partition, block, drop) is counted in its chaos.Stats.Dropped
// instead, and a chaos duplicate reaches the channel twice. Every loss is
// counted in exactly one of the two places, so the messages nodes sent are
// Sent plus the controller's Dropped. The controller's counters run from
// its creation; ResetStats does not touch them.
//
// Counters are scoped to a stats epoch: ResetStats starts a new epoch, and
// a message is accounted to the epoch in which it was *sent*. A message in
// flight across a reset is still delivered, but lands in neither the old
// snapshot (already taken) nor the new epoch's counters — so benches that
// reset between phases never see a phase's counters perturbed by the
// previous phase's stragglers.
type Stats struct {
	Sent      int64
	Delivered int64
	Dropped   int64 // in flight to a receiver that crashed before delivery
	// ByKind counts sent messages by the first payload byte, which the
	// protocol layer uses as its message-kind tag. This is how the message
	// complexity experiments (T1) count round trips exactly.
	ByKind map[byte]int64
	// BytesByKind sums payload bytes of sent messages per kind byte, for
	// bandwidth accounting alongside ByKind's message counts.
	BytesByKind map[byte]int64
	// Delay is the distribution of realized send-to-delivery latencies
	// (sampled delay plus scheduling slop) of this epoch's delivered
	// messages.
	Delay obs.HistSnapshot
}

// Net is a simulated network. All methods are safe for concurrent use.
// The embedded chaos controller is the network's fault injector: its
// methods (Crash, Crashed, Partition, BlockLink, SetDefaultFaults,
// SetInterceptor, ...) act on every endpoint the network hands out, and
// n.Net.Stats() returns its fault counters.
type Net struct {
	*chaos.Net
	cfg Config

	mu         sync.Mutex
	rng        *rand.Rand
	nodes      map[types.NodeID]*endpoint
	delayScale float64 // multiplies the sampled delay; 1 by default

	epoch       uint64 // advanced by ResetStats; messages carry their send epoch
	sent        int64
	delivered   int64
	dropped     int64
	byKind      map[byte]int64
	bytesByKind map[byte]int64
	delay       *obs.Histogram // per-epoch; swapped out by ResetStats

	closed bool
	wg     sync.WaitGroup
}

// New creates a simulated network.
func New(cfg Config) *Net {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.MaxDelay < cfg.MinDelay {
		cfg.MaxDelay = cfg.MinDelay
	}
	return &Net{
		Net:         chaos.New(seed),
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(seed)),
		nodes:       make(map[types.NodeID]*endpoint),
		delayScale:  1,
		byKind:      make(map[byte]int64),
		bytesByKind: make(map[byte]int64),
		delay:       new(obs.Histogram),
	}
}

// Node attaches (or returns the existing) endpoint for id, wrapped by the
// network's chaos controller.
func (n *Net) Node(id types.NodeID) transport.Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.nodes[id]; ok {
		return ep.wrapped
	}
	return n.attachLocked(id).wrapped
}

// attachLocked installs a fresh endpoint for id; caller holds n.mu.
func (n *Net) attachLocked(id types.NodeID) *endpoint {
	ep := &endpoint{id: id, net: n, mbox: transport.NewMailbox()}
	ep.wrapped = n.Wrap(ep)
	n.nodes[id] = ep
	return ep
}

// Reattach replaces a node's endpoint with a fresh one, closing any old
// endpoint. Used by crash-recovery scenarios: a restarted process gets a
// new attachment under the same identity (messages in flight to the old
// endpoint are lost, as a real restart would lose socket buffers).
func (n *Net) Reattach(id types.NodeID) transport.Endpoint {
	n.mu.Lock()
	old := n.nodes[id]
	ep := n.attachLocked(id)
	n.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	return ep.wrapped
}

// SetDelayScale multiplies every delay by s (s >= 0): the channel's sampled
// delay and any delay the chaos controller injects, so a delay-spike action
// means the same on the simulator as on a real network.
func (n *Net) SetDelayScale(s float64) {
	n.Net.SetDelayScale(s)
	n.mu.Lock()
	defer n.mu.Unlock()
	if s < 0 {
		s = 0
	}
	n.delayScale = s
}

// Stats returns a snapshot of the current epoch's counters.
func (n *Net) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	byKind := make(map[byte]int64, len(n.byKind))
	for k, v := range n.byKind {
		byKind[k] = v
	}
	bytesByKind := make(map[byte]int64, len(n.bytesByKind))
	for k, v := range n.bytesByKind {
		bytesByKind[k] = v
	}
	return Stats{
		Sent: n.sent, Delivered: n.delivered, Dropped: n.dropped,
		ByKind: byKind, BytesByKind: bytesByKind, Delay: n.delay.Snapshot(),
	}
}

// ResetStats zeroes the counters by starting a new stats epoch (used
// between benchmark phases). The reset is atomic with respect to in-flight
// deliveries: a message is accounted to the epoch it was sent in, so
// deliveries racing the reset update the *old* epoch's (now discarded)
// counters and histogram, never the new epoch's. See Stats for the full
// contract.
func (n *Net) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epoch++
	n.sent, n.delivered, n.dropped = 0, 0, 0
	n.byKind = make(map[byte]int64)
	n.bytesByKind = make(map[byte]int64)
	n.delay = new(obs.Histogram)
}

// Drain blocks until every in-flight delivery has completed or been
// discarded, without closing anything. New sends may still be issued while
// (and after) Drain runs; it only flushes what was in the air when each
// delivery timer fires. Teardown paths call it between stopping the senders
// and closing the receivers, so no delayed delivery races an endpoint's
// close (the "send on closed endpoint" noise under -race). A message the
// chaos controller holds back (delay or reorder faults) joins the channel
// only when its timer fires; one that fires after Close is discarded.
func (n *Net) Drain() { n.wg.Wait() }

// Close shuts down the network and all endpoints, waiting for in-flight
// deliveries to finish or be discarded.
func (n *Net) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*endpoint, 0, len(n.nodes))
	for _, ep := range n.nodes {
		eps = append(eps, ep)
	}
	n.mu.Unlock()

	n.wg.Wait()
	for _, ep := range eps {
		ep.Close()
	}
}

// send implements the one-way channel: meter the message, sample a delay,
// then deliver unless the receiver has crashed by then. The endpoint's
// chaos wrapper has already decided every injected fault.
func (n *Net) send(from, to types.NodeID, payload []byte) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return types.ErrClosed
	}
	dst, ok := n.nodes[to]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %v", types.ErrUnknownNode, to)
	}

	// A payload may be a wire batch frame carrying several protocol
	// envelopes (the TCP transport coalesces under load; the sim mirrors
	// its delivery semantics). Members are accounted and delivered as
	// individual messages but share one fate and one sampled delay: the
	// batch travels as a unit, exactly like a TCP frame.
	members := [][]byte{payload}
	if wire.IsBatch(payload) {
		if m, err := wire.SplitBatch(payload); err == nil {
			members = m
		}
		// A structurally invalid batch stays a single opaque payload: the
		// receiver rejects it, matching a corrupt frame on the real wire.
	}
	n.sent += int64(len(members))
	for _, m := range members {
		if len(m) > 0 {
			// The high bit of the kind byte is the envelope's trace flag;
			// mask it so the per-kind message counts (experiment T1) are
			// identical whether or not tracing is on.
			kind := m[0] &^ wire.TraceFlag
			n.byKind[kind]++
			n.bytesByKind[kind] += int64(len(m))
		}
	}

	delay := n.sampleDelayLocked()
	// Pin the message to this epoch's accounting: deliveries racing a
	// ResetStats record into this (old) histogram and are not counted in
	// the new epoch's counters.
	epoch, delayHist := n.epoch, n.delay
	n.wg.Add(len(members))
	n.mu.Unlock()

	sentAt := time.Now()
	msgs := make([]transport.Message, len(members))
	emits := make([]func(string), len(members))
	for i, m := range members {
		msgs[i] = transport.Message{From: from, To: to, Payload: m}
		emits[i] = func(string) {}
		if n.cfg.Tracer != nil {
			if trace, parentSpan, ok := wire.PeekTrace(m); ok {
				emits[i] = func(errStr string) {
					n.cfg.Tracer.Emit(obs.Span{
						Trace: trace, ID: obs.NextID(), Parent: parentSpan,
						Kind: "net-send", Node: int64(from), Peer: int64(to),
						Start: sentAt, Dur: time.Since(sentAt), Err: errStr,
					})
				}
			}
		}
	}
	deliverAll := func() {
		for i := range msgs {
			n.deliver(dst, to, msgs[i], epoch, delayHist, sentAt, emits[i])
		}
	}
	if delay <= 0 {
		deliverAll()
	} else {
		time.AfterFunc(delay, deliverAll)
	}
	return nil
}

func (n *Net) deliver(dst *endpoint, to types.NodeID, msg transport.Message, epoch uint64, delayHist *obs.Histogram, sentAt time.Time, emit func(string)) {
	defer n.wg.Done()
	crashed := n.Crashed(to)
	n.mu.Lock()
	if n.closed || crashed {
		if epoch == n.epoch {
			n.dropped++
		}
		n.mu.Unlock()
		emit("dropped at delivery")
		return
	}
	if epoch == n.epoch {
		n.delivered++
	}
	n.mu.Unlock()
	delayHist.Record(time.Since(sentAt))
	dst.mbox.Put(msg)
	emit("")
}

func (n *Net) sampleDelayLocked() time.Duration {
	min, max := n.cfg.MinDelay, n.cfg.MaxDelay
	d := min
	if max > min {
		d = min + time.Duration(n.rng.Int63n(int64(max-min)+1))
	}
	return time.Duration(float64(d) * n.delayScale)
}

// endpoint is a node's attachment to the simulated network; wrapped is
// the chaos-wrapped view of it that nodes send through.
type endpoint struct {
	id      types.NodeID
	net     *Net
	mbox    *transport.Mailbox
	wrapped *chaos.Endpoint

	mu     sync.Mutex
	closed bool
}

var _ transport.Endpoint = (*endpoint)(nil)

func (e *endpoint) ID() types.NodeID { return e.id }

func (e *endpoint) Send(to types.NodeID, payload []byte) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return types.ErrClosed
	}
	return e.net.send(e.id, to, payload)
}

func (e *endpoint) Recv() <-chan transport.Message { return e.mbox.Out() }

func (e *endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.mbox.Close()
	return nil
}
