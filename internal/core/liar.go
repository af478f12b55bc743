package core

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/timestamp"
	"repro/internal/types"
)

// ByzMode selects a Liar's lying strategy; 0 is honest.
type ByzMode int

// Lying strategies for Liar.
const (
	// ByzFabricate answers every query with a fabricated value carrying an
	// enormous timestamp — the strongest attack on a max-timestamp read.
	ByzFabricate ByzMode = iota + 1
	// ByzStale answers every query with the initial (never written) state.
	ByzStale
	// ByzSilent never answers anything: indistinguishable from a crash.
	ByzSilent
	// ByzEquivocate fabricates a *different* value per reply, so no two
	// clients (or phases) see the same lie.
	ByzEquivocate
)

// Liar turns an honest replica's outbound traffic into a Byzantine
// replica's, from the network's point of view. It is the protocol-level
// analogue of chaos byte corruption: instead of flipping bits (which the
// CRC trailer catches), it decodes each reply the replica sends, rewrites
// it according to the active ByzMode — fabricated max-tags, stale state,
// per-destination equivocation, or selective silence — and re-encodes it,
// CRC and trace context intact. The lie is well-formed protocol and sails
// straight through every integrity check; only read-path validation
// (WithByzantine) can reject it.
//
// Install the Intercept method as a chaos.Interceptor on the lying node's
// outbound path (SetInterceptor on the chaos controller that wraps its
// endpoint — netsim's own, or the nemesis cluster's over tcpnet) and run an
// ordinary Replica on that endpoint. It is the one Byzantine adversary: the
// core tests, experiments T6 and BY, abd-sim -byz and the nemesis harness
// all build it this way. The replica
// underneath stays honest — it keeps storing writes and appending its
// WAL — so clearing the mode instantly restores a correct, caught-up
// replica: the faulty thing is the node's reporting, not its state, and
// the nemesis Byzantine schedules can let a replica lie for a window and
// then rejoin.
//
// Liar is safe for concurrent use (transports may send from several
// goroutines) and survives replica crash/restart cycles: it keys off the
// node, not the process.
type Liar struct {
	id   types.NodeID
	mode atomic.Int32

	mu  sync.Mutex
	rng *rand.Rand

	lies  atomic.Int64 // replies rewritten
	muted atomic.Int64 // replies suppressed (ByzSilent)
}

// NewLiar creates a liar for node id, initially honest (mode 0). seed
// drives the equivocation randomness.
func NewLiar(id types.NodeID, seed int64) *Liar {
	return &Liar{id: id, rng: rand.New(rand.NewSource(seed))}
}

// SetMode switches the lying strategy; 0 (no ByzMode) restores honesty.
func (l *Liar) SetMode(m ByzMode) { l.mode.Store(int32(m)) }

// Mode returns the active strategy (0 = honest).
func (l *Liar) Mode() ByzMode { return ByzMode(l.mode.Load()) }

// Stats returns how many replies were rewritten and suppressed.
func (l *Liar) Stats() (lies, muted int64) {
	return l.lies.Load(), l.muted.Load()
}

// Intercept rewrites one outbound payload. It matches the
// chaos.Interceptor contract: the returned payload replaces the original,
// and ok=false suppresses the send entirely. Non-protocol payloads and
// request kinds pass through untouched — a liar replica still *asks*
// honestly, it just answers with lies.
func (l *Liar) Intercept(to types.NodeID, payload []byte) ([]byte, bool) {
	mode := ByzMode(l.mode.Load())
	if mode == 0 {
		return payload, true
	}
	m, err := decodeMessage(payload)
	if err != nil {
		return payload, true
	}
	switch m.Kind {
	case KindReadReply:
		switch mode {
		case ByzSilent:
			l.muted.Add(1)
			return nil, false
		case ByzFabricate:
			m.Tag = Tag{Valid: true, TS: timestamp.TS{Seq: 1 << 40, Writer: l.id}}
			m.Val = []byte("byzantine-fabrication")
			// Also claim the fabricated tag is quorum-confirmed: a lying
			// watermark must not let the fabrication ride the fast path (the
			// client only trusts watermarks claimed by >= f+1 replicas).
			m.Conf = m.Tag
		case ByzEquivocate:
			l.mu.Lock()
			seq := (1 << 40) + l.rng.Int63n(1<<20)
			a, b := byte(l.rng.Intn(256)), byte(l.rng.Intn(256))
			l.mu.Unlock()
			m.Tag = Tag{Valid: true, TS: timestamp.TS{Seq: seq, Writer: l.id}}
			m.Val = []byte{a, b}
			m.Conf = m.Tag
		case ByzStale:
			// Pretend nothing was ever written (or confirmed).
			m.Tag = Tag{}
			m.Val = nil
			m.Conf = Tag{}
		}
		l.lies.Add(1)
		return m.encode(), true
	case KindWriteAck:
		if mode == ByzSilent {
			l.muted.Add(1)
			return nil, false
		}
		// The other modes keep acking; the honest replica underneath really
		// did store the write, the node merely lies about reads.
		return payload, true
	default:
		return payload, true
	}
}

// Liars is one Liar per replica, each installed as its node's chaos
// interceptor and honest until switched. It implements
// failure.ByzController, so byz:<node>:<mode> schedule actions mean the
// same on every substrate: the nemesis TCP cluster and abd-sim's
// simulated cluster both build their Byzantine mode on it.
type Liars map[types.NodeID]*Liar

// InstallLiars creates an honest Liar for every id and installs it on cn.
// Node id's equivocation randomness is seeded with seed^(1000+id).
func InstallLiars(cn *chaos.Net, ids []types.NodeID, seed int64) Liars {
	ls := make(Liars, len(ids))
	for _, id := range ids {
		l := NewLiar(id, seed^int64(1000+id))
		ls[id] = l
		cn.SetInterceptor(id, l.Intercept)
	}
	return ls
}

// SetByzantine switches node's liar to mode (a ByzMode value; 0 restores
// honesty). A no-op for a node without a liar, so schedules degrade
// gracefully.
func (ls Liars) SetByzantine(node types.NodeID, mode int) {
	if l := ls[node]; l != nil {
		l.SetMode(ByzMode(mode))
	}
}

// Stats sums the liars' tallies: replies rewritten and replies suppressed.
func (ls Liars) Stats() (lies, muted int64) {
	for _, l := range ls {
		a, b := l.Stats()
		lies += a
		muted += b
	}
	return lies, muted
}
