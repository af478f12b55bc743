// Package chaos is the repository's one fault injector. A Net controller
// holds every departure from the paper's model — crashes, partitions,
// per-link blocks, and per-link fault mixes (drop, duplicate, delay,
// reorder, payload corruption, connection reset) — plus the semantic-fault
// hook a Byzantine adversary installs (SetInterceptor); Wrap decorates any
// transport.Endpoint so its outbound sends pass through the injector. The
// wrapper sits above the substrate, so the same faults apply to the
// simulated network (internal/netsim wraps every endpoint it hands out)
// and to real TCP sockets (internal/tcpnet under the nemesis harness,
// internal/nemesis).
//
// Faults are drawn from per-link PRNG streams seeded from the controller
// seed and the link's endpoints, so a fixed seed and a fixed per-link send
// sequence yield the same fault trace on every run (asserted by test).
// Connection resets need a substrate that exposes PeerResetter (tcpnet);
// on a connectionless substrate such as netsim a reset has nothing to tear
// down and is a no-op.
//
// The controller implements failure.Fabric, so one fault schedule script
// (internal/failure) drives either substrate with the same meaning.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

// Faults is one link's (or the default) fault configuration. Probabilities
// are per send, independently drawn; zero values inject nothing.
type Faults struct {
	// Drop is the probability a message is silently discarded.
	Drop float64
	// Dup is the probability a message is delivered twice.
	Dup float64
	// Reorder is the probability a message is held long enough for later
	// sends on the link to overtake it.
	Reorder float64
	// Corrupt is the probability one payload byte is flipped in transit.
	Corrupt float64
	// Reset is the probability the link's underlying connection is torn
	// down (PeerResetter substrates only); the message is lost with it.
	Reset float64
	// DelayMin/DelayMax bound a uniform extra latency added to every
	// message on the link (0,0 = none).
	DelayMin, DelayMax time.Duration
}

// Active reports whether the configuration injects anything.
func (f Faults) Active() bool {
	return f.Drop > 0 || f.Dup > 0 || f.Reorder > 0 || f.Corrupt > 0 ||
		f.Reset > 0 || f.DelayMax > 0
}

// String renders the configuration in the script syntax ParseFaults reads:
// "drop=0.3,dup=0.1,delay=1ms..5ms". The zero value renders as "none".
func (f Faults) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("drop", f.Drop)
	add("dup", f.Dup)
	add("reorder", f.Reorder)
	add("corrupt", f.Corrupt)
	add("reset", f.Reset)
	if f.DelayMax > 0 || f.DelayMin > 0 {
		parts = append(parts, fmt.Sprintf("delay=%s..%s", f.DelayMin, f.DelayMax))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseFaults reads the comma-separated key=value syntax String renders:
// keys drop, dup, reorder, corrupt, reset (probabilities in [0,1]) and
// delay=<min>..<max> or delay=<fixed> (durations). "none" (or the empty
// string) is the zero configuration.
func ParseFaults(s string) (Faults, error) {
	var f Faults
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return f, nil
	}
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Faults{}, fmt.Errorf("chaos: fault %q: want key=value", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "drop", "dup", "reorder", "corrupt", "reset":
			var p float64
			if _, err := fmt.Sscanf(val, "%g", &p); err != nil {
				return Faults{}, fmt.Errorf("chaos: fault %s=%q: %w", key, val, err)
			}
			if p < 0 || p > 1 {
				return Faults{}, fmt.Errorf("chaos: fault %s=%g outside [0,1]", key, p)
			}
			switch key {
			case "drop":
				f.Drop = p
			case "dup":
				f.Dup = p
			case "reorder":
				f.Reorder = p
			case "corrupt":
				f.Corrupt = p
			case "reset":
				f.Reset = p
			}
		case "delay":
			minS, maxS, ranged := strings.Cut(val, "..")
			min, err := time.ParseDuration(minS)
			if err != nil {
				return Faults{}, fmt.Errorf("chaos: fault delay=%q: %w", val, err)
			}
			max := min
			if ranged {
				if max, err = time.ParseDuration(maxS); err != nil {
					return Faults{}, fmt.Errorf("chaos: fault delay=%q: %w", val, err)
				}
			}
			if min < 0 || max < min {
				return Faults{}, fmt.Errorf("chaos: fault delay=%q: want 0 <= min <= max", val)
			}
			f.DelayMin, f.DelayMax = min, max
		default:
			return Faults{}, fmt.Errorf("chaos: unknown fault key %q", key)
		}
	}
	return f, nil
}

// PeerResetter is implemented by substrates whose connections can be torn
// down out from under the protocol (tcpnet.Endpoint). ResetPeer reports
// whether there was a live connection to kill.
type PeerResetter interface {
	ResetPeer(types.NodeID) bool
}

// Interceptor is a semantic fault: it sees every outbound payload of the
// node it is installed on BEFORE the byte-level fault plan, and may pass it
// through, replace it with a rewritten payload (re-encoded, so checksums
// hold — the lie is well-formed protocol), or suppress the send entirely
// (ok=false). This is how the nemesis harness turns an honest replica into
// a Byzantine one: core.Liar's Intercept rewrites its replies with
// fabricated tags, stale state, or per-client equivocation. The function
// must be safe for concurrent calls and must not retain payload.
type Interceptor func(to types.NodeID, payload []byte) (out []byte, ok bool)

type link struct{ from, to types.NodeID }

// Stats counts injected faults across all links since the controller was
// created.
type Stats struct {
	Sent, Dropped, Duplicated, Delayed, Reordered, Corrupted, Resets int64
}

// Net is the fault controller shared by every wrapped endpoint of one
// cluster. It implements failure.Fabric, so failure.Schedule scripts drive
// it directly. The zero value is not usable; call New.
type Net struct {
	seed int64

	mu      sync.Mutex
	def     Faults
	links   map[link]Faults
	blocked map[link]bool
	crashed map[types.NodeID]bool
	part    map[types.NodeID]int
	scale   float64
	rngs    map[link]*rand.Rand
	seq     map[link]uint64
	eps     map[types.NodeID]*Endpoint
	icepts  map[types.NodeID]Interceptor
	traceOn bool
	trace   []string
	stats   Stats
}

// New creates a controller. All per-link fault decisions derive from seed.
func New(seed int64) *Net {
	return &Net{
		seed:    seed,
		links:   make(map[link]Faults),
		blocked: make(map[link]bool),
		crashed: make(map[types.NodeID]bool),
		part:    make(map[types.NodeID]int),
		scale:   1,
		rngs:    make(map[link]*rand.Rand),
		seq:     make(map[link]uint64),
		eps:     make(map[types.NodeID]*Endpoint),
		icepts:  make(map[types.NodeID]Interceptor),
	}
}

// Wrap decorates ep with fault injection on its outbound path. Close on the
// wrapper closes the inner endpoint.
func (n *Net) Wrap(ep transport.Endpoint) *Endpoint {
	w := &Endpoint{inner: ep, net: n}
	n.mu.Lock()
	n.eps[ep.ID()] = w
	n.mu.Unlock()
	return w
}

// SetInterceptor installs (or, with nil, removes) a semantic-fault
// interceptor on node id's outbound path. The interceptor is keyed by node,
// not by endpoint, so it survives the node's crash/restart cycles — the
// nemesis harness keeps a replica lying across a process restart.
func (n *Net) SetInterceptor(id types.NodeID, fn Interceptor) {
	n.mu.Lock()
	if fn == nil {
		delete(n.icepts, id)
	} else {
		n.icepts[id] = fn
	}
	n.mu.Unlock()
}

// interceptor returns node id's installed interceptor, if any.
func (n *Net) interceptor(id types.NodeID) Interceptor {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.icepts[id]
}

// SetDefaultFaults applies f to every link without an explicit per-link
// configuration.
func (n *Net) SetDefaultFaults(f Faults) {
	n.mu.Lock()
	n.def = f
	n.mu.Unlock()
}

// SetLinkFaults applies f to the directed link from>to, overriding the
// default configuration.
func (n *Net) SetLinkFaults(from, to types.NodeID, f Faults) {
	n.mu.Lock()
	n.links[link{from, to}] = f
	n.mu.Unlock()
}

// ClearFaults removes every fault configuration (default and per-link).
// Blocks, crashes, and partitions are separate state; see Heal and Recover.
func (n *Net) ClearFaults() {
	n.mu.Lock()
	n.def = Faults{}
	n.links = make(map[link]Faults)
	n.mu.Unlock()
}

// ResetLink tears down the live connection under the directed link, if the
// sender's substrate supports it (PeerResetter). One-shot, immediate.
func (n *Net) ResetLink(from, to types.NodeID) {
	n.mu.Lock()
	w := n.eps[from]
	n.mu.Unlock()
	if w == nil {
		return
	}
	if pr, ok := w.inner.(PeerResetter); ok && pr.ResetPeer(to) {
		n.mu.Lock()
		n.stats.Resets++
		n.mu.Unlock()
	}
}

// ResetAll tears down every live connection of every wrapped resettable
// endpoint: a cluster-wide connection storm.
func (n *Net) ResetAll() {
	n.mu.Lock()
	ids := make([]types.NodeID, 0, len(n.eps))
	for id := range n.eps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	n.mu.Unlock()
	for _, from := range ids {
		for _, to := range ids {
			if from != to {
				n.ResetLink(from, to)
			}
		}
	}
}

// Crash isolates a node at the message level: everything to or from it is
// dropped. On the simulator this is the paper's fail-stop crash; on a real
// cluster it models a network-dead (not process-dead) node, and
// internal/nemesis overrides it with true process crash+restart.
func (n *Net) Crash(id types.NodeID) {
	n.mu.Lock()
	n.crashed[id] = true
	n.mu.Unlock()
}

// Crashed reports whether a node is crashed (Crash without a later
// Recover).
func (n *Net) Crashed(id types.NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[id]
}

// Recover undoes Crash.
func (n *Net) Recover(id types.NodeID) {
	n.mu.Lock()
	delete(n.crashed, id)
	n.mu.Unlock()
}

// Partition splits the nodes into groups; a message is delivered only if
// both endpoints are in the same group. Nodes named in no group form one
// more implicit group: they still reach each other, but not any listed
// node — so a script that partitions the replicas cuts off every client it
// does not list. Partition() with no groups is no partition. Call Heal to
// undo.
func (n *Net) Partition(groups ...[]types.NodeID) {
	n.mu.Lock()
	n.part = make(map[types.NodeID]int)
	for g, members := range groups {
		for _, id := range members {
			n.part[id] = g + 1
		}
	}
	n.mu.Unlock()
}

// Heal removes any partition.
func (n *Net) Heal() {
	n.mu.Lock()
	n.part = make(map[types.NodeID]int)
	n.mu.Unlock()
}

// BlockLink drops all messages on the directed link from>to.
func (n *Net) BlockLink(from, to types.NodeID) {
	n.mu.Lock()
	n.blocked[link{from, to}] = true
	n.mu.Unlock()
}

// UnblockLink re-enables a blocked link.
func (n *Net) UnblockLink(from, to types.NodeID) {
	n.mu.Lock()
	delete(n.blocked, link{from, to})
	n.mu.Unlock()
}

// SetDelayScale multiplies every injected delay by s (s >= 0).
func (n *Net) SetDelayScale(s float64) {
	n.mu.Lock()
	if s < 0 {
		s = 0
	}
	n.scale = s
	n.mu.Unlock()
}

// EnableTrace starts recording one line per send decision, for determinism
// tests and debugging. Unbounded; enable only for bounded runs.
func (n *Net) EnableTrace() {
	n.mu.Lock()
	n.traceOn = true
	n.mu.Unlock()
}

// Trace returns a copy of the recorded decision lines.
func (n *Net) Trace() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.trace))
	copy(out, n.trace)
	return out
}

// Stats returns a snapshot of the injection counters.
func (n *Net) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// decision is the planned fate of one send.
type decision struct {
	blocked   bool
	drop      bool
	dup       bool
	reset     bool
	corruptAt int // -1 = no corruption
	delay     time.Duration
}

// rngFor returns the link's PRNG, creating it deterministically from the
// controller seed and the link endpoints on first use.
func (n *Net) rngFor(l link) *rand.Rand {
	if r, ok := n.rngs[l]; ok {
		return r
	}
	// Mix the endpoints into the seed with distinct odd multipliers so
	// links get decorrelated streams (0>1 differs from 1>0).
	s := n.seed ^ (int64(l.from)+1)*0x1E3779B97F4A7C15 ^ (int64(l.to)+1)*0x42B2AE3D27D4EB4F
	r := rand.New(rand.NewSource(s))
	n.rngs[l] = r
	return r
}

// plan decides one send's fate, consuming the link's PRNG stream. The
// stream is consumed in a fixed order per decision, so for a fixed per-link
// send sequence the trace is a pure function of the seed.
func (n *Net) plan(from, to types.NodeID, payloadLen int) decision {
	n.mu.Lock()
	defer n.mu.Unlock()

	l := link{from, to}
	n.seq[l]++
	n.stats.Sent++
	d := decision{corruptAt: -1}

	switch {
	case n.crashed[from] || n.crashed[to]:
		d.blocked = true
	case n.blocked[l]:
		d.blocked = true
	case n.part[from] != n.part[to]:
		d.blocked = true
	}
	if d.blocked {
		n.stats.Dropped++
		n.record(l, "blocked")
		return d
	}

	f, ok := n.links[l]
	if !ok {
		f = n.def
	}
	if !f.Active() {
		n.record(l, "pass")
		return d
	}

	rng := n.rngFor(l)
	var verdicts []string
	if f.Reset > 0 && rng.Float64() < f.Reset {
		d.reset, d.drop = true, true // the reset kills the in-flight frame
		n.stats.Resets++
		n.stats.Dropped++
		n.record(l, "reset")
		return d
	}
	if f.Drop > 0 && rng.Float64() < f.Drop {
		d.drop = true
		n.stats.Dropped++
		n.record(l, "drop")
		return d
	}
	if f.Dup > 0 && rng.Float64() < f.Dup {
		d.dup = true
		n.stats.Duplicated++
		verdicts = append(verdicts, "dup")
	}
	if f.Corrupt > 0 && rng.Float64() < f.Corrupt && payloadLen > 0 {
		d.corruptAt = rng.Intn(payloadLen)
		n.stats.Corrupted++
		verdicts = append(verdicts, "corrupt")
	}
	if f.DelayMax > 0 {
		span := f.DelayMax - f.DelayMin
		d.delay = f.DelayMin
		if span > 0 {
			d.delay += time.Duration(rng.Int63n(int64(span) + 1))
		}
	}
	if f.Reorder > 0 && rng.Float64() < f.Reorder {
		// Hold the message long enough that subsequent sends on the link
		// overtake it: at least one full delay window past the maximum.
		hold := f.DelayMax
		if hold <= 0 {
			hold = time.Millisecond
		}
		d.delay += hold + time.Duration(rng.Int63n(int64(hold)+1))
		n.stats.Reordered++
		verdicts = append(verdicts, "reorder")
	}
	if d.delay > 0 {
		d.delay = time.Duration(float64(d.delay) * n.scale)
		if d.delay > 0 {
			n.stats.Delayed++
			verdicts = append(verdicts, fmt.Sprintf("delay=%s", d.delay))
		}
	}
	if len(verdicts) == 0 {
		verdicts = append(verdicts, "pass")
	}
	n.record(l, strings.Join(verdicts, "+"))
	return d
}

// record appends a trace line; caller holds n.mu.
func (n *Net) record(l link, verdict string) {
	if !n.traceOn {
		return
	}
	n.trace = append(n.trace, fmt.Sprintf("#%d %d>%d %s", n.seq[l], l.from, l.to, verdict))
}

// Endpoint is a fault-injecting transport.Endpoint wrapper; see Net.Wrap.
type Endpoint struct {
	inner transport.Endpoint
	net   *Net
}

var _ transport.Endpoint = (*Endpoint)(nil)

// ID returns the wrapped endpoint's node identifier.
func (e *Endpoint) ID() types.NodeID { return e.inner.ID() }

// Recv returns the wrapped endpoint's incoming message channel. Inbound
// messages are untouched: every link is injected exactly once, on the
// sender's side.
func (e *Endpoint) Recv() <-chan transport.Message { return e.inner.Recv() }

// Close closes the wrapped endpoint. Messages still held for delayed
// delivery are sent anyway and surface as loss at the closed endpoint.
func (e *Endpoint) Close() error { return e.inner.Close() }

// Inner returns the wrapped endpoint, for callers that need substrate
// specifics (e.g. tcpnet stats).
func (e *Endpoint) Inner() transport.Endpoint { return e.inner }

// Send passes the message through the node's interceptor (if one is
// installed), then through the fault plan for its link, and hands the
// surviving copies to the inner endpoint, possibly delayed. The
// interceptor runs first on purpose: a Byzantine rewrite produces a
// well-formed payload that the byte-level faults (corrupt, drop, delay)
// then treat like any honest message.
func (e *Endpoint) Send(to types.NodeID, payload []byte) error {
	if fn := e.net.interceptor(e.inner.ID()); fn != nil {
		out, ok := fn(to, payload)
		if !ok {
			return nil
		}
		payload = out
	}
	d := e.net.plan(e.inner.ID(), to, len(payload))
	if d.reset {
		if pr, ok := e.inner.(PeerResetter); ok {
			pr.ResetPeer(to)
		}
	}
	if d.blocked || d.drop {
		return nil
	}
	if d.corruptAt >= 0 {
		// Copy before flipping: the caller's buffer may be broadcast to
		// other replicas and must stay intact.
		corrupted := make([]byte, len(payload))
		copy(corrupted, payload)
		corrupted[d.corruptAt] ^= 0xFF
		payload = corrupted
	}
	copies := 1
	if d.dup {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		if d.delay > 0 {
			p := payload
			time.AfterFunc(d.delay, func() { _ = e.inner.Send(to, p) })
			continue
		}
		if err := e.inner.Send(to, payload); err != nil {
			return err
		}
	}
	return nil
}
