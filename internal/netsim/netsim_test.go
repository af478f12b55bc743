package netsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/types"
	"repro/internal/wire"
)

func waitMsg(t *testing.T, n *Net, id types.NodeID, timeout time.Duration) (types.NodeID, []byte, bool) {
	t.Helper()
	select {
	case m := <-n.Node(id).Recv():
		return m.From, m.Payload, true
	case <-time.After(timeout):
		return 0, nil, false
	}
}

func TestDelivery(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, b := n.Node(1), n.Node(2)

	if err := a.Send(2, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	from, payload, ok := waitMsg(t, n, 2, time.Second)
	if !ok {
		t.Fatal("no delivery")
	}
	if from != 1 || string(payload) != "hi" {
		t.Fatalf("got from=%v payload=%q", from, payload)
	}
	_ = b
}

func TestSendToUnknownNode(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	if err := a.Send(99, []byte("x")); !errors.Is(err, types.ErrUnknownNode) {
		t.Fatalf("want ErrUnknownNode, got %v", err)
	}
}

func TestCrashDropsBothDirections(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	c := n.Node(3)
	n.Crash(3)

	if err := a.Send(3, []byte("to crashed")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(1, []byte("from crashed")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 3, 50*time.Millisecond); ok {
		t.Fatal("crashed node received a message")
	}
	if _, _, ok := waitMsg(t, n, 1, 50*time.Millisecond); ok {
		t.Fatal("message from crashed node delivered")
	}
	// Both losses are the chaos controller's, counted there and only there.
	if st := n.Net.Stats(); st.Dropped != 2 {
		t.Fatalf("chaos dropped=%d, want 2", st.Dropped)
	}
	if st := n.Stats(); st.Sent != 0 || st.Dropped != 0 {
		t.Fatalf("channel saw crashed traffic: sent=%d dropped=%d", st.Sent, st.Dropped)
	}
	if !n.Crashed(3) {
		t.Fatal("Crashed(3) = false")
	}
}

func TestRecover(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)
	n.Crash(2)
	n.Recover(2)
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
		t.Fatal("no delivery after recover")
	}
}

func TestStatsByKind(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)

	for i := 0; i < 3; i++ {
		if err := a.Send(2, []byte{7, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Send(2, []byte{9}); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.ByKind[7] != 3 || st.ByKind[9] != 1 {
		t.Fatalf("ByKind=%v", st.ByKind)
	}

	n.ResetStats()
	st = n.Stats()
	if st.Sent != 0 || len(st.ByKind) != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

func TestDelayedDeliveryArrives(t *testing.T) {
	n := New(Config{Seed: 7, MinDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)

	start := time.Now()
	if err := a.Send(2, []byte("delayed")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
		t.Fatal("no delivery")
	}
	if elapsed := time.Since(start); elapsed < time.Millisecond {
		t.Fatalf("delivered too fast: %v", elapsed)
	}
}

func TestDelayScaleZeroMakesInstant(t *testing.T) {
	n := New(Config{Seed: 7, MinDelay: 50 * time.Millisecond, MaxDelay: 60 * time.Millisecond})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)
	n.SetDelayScale(0)

	start := time.Now()
	if err := a.Send(2, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
		t.Fatal("no delivery")
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("delay scale 0 still slow: %v", elapsed)
	}
}

func TestSendAfterEndpointClose(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("x")); !errors.Is(err, types.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestNetCloseIdempotentAndStopsSends(t *testing.T) {
	n := New(Config{})
	a := n.Node(1)
	n.Node(2)
	n.Close()
	n.Close()
	if err := a.Send(2, []byte("x")); !errors.Is(err, types.ErrClosed) {
		t.Fatalf("want ErrClosed after net close, got %v", err)
	}
}

func TestReattachReplacesEndpoint(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	old := n.Node(2)
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := n.Reattach(2)
	if fresh == old {
		t.Fatal("Reattach returned the old endpoint")
	}
	if err := a.Send(2, []byte("to the new attachment")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
		t.Fatal("fresh endpoint got nothing")
	}
}

func TestDupProbDeliversTwice(t *testing.T) {
	n := New(Config{Seed: 5})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)
	n.SetDefaultFaults(chaos.Faults{Dup: 1})

	if err := a.Send(2, []byte("dup")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
			t.Fatalf("delivery %d missing", i)
		}
	}
	if st := n.Net.Stats(); st.Duplicated != 1 {
		t.Fatalf("chaos stats %+v", st)
	}
	if st := n.Stats(); st.Sent != 2 || st.Delivered != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBytesByKind(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)

	if err := a.Send(2, []byte{7, 1, 2, 3}); err != nil { // 4 bytes of kind 7
		t.Fatal(err)
	}
	if err := a.Send(2, []byte{7}); err != nil { // 1 byte of kind 7
		t.Fatal(err)
	}
	if err := a.Send(2, []byte{9, 0}); err != nil { // 2 bytes of kind 9
		t.Fatal(err)
	}
	st := n.Stats()
	if st.BytesByKind[7] != 5 || st.BytesByKind[9] != 2 {
		t.Fatalf("BytesByKind=%v", st.BytesByKind)
	}
}

func TestDelayHistogramCountsDeliveries(t *testing.T) {
	n := New(Config{Seed: 5, MinDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)

	const msgs = 10
	for i := 0; i < msgs; i++ {
		if err := a.Send(2, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
			t.Fatalf("delivery %d missing", i)
		}
	}
	st := n.Stats()
	if st.Delay.Count != msgs {
		t.Fatalf("delay histogram count=%d, want %d", st.Delay.Count, msgs)
	}
	// Realized delay = sampled delay + scheduling slop, so it can only be
	// at or above the configured minimum.
	if p0 := st.Delay.Quantile(0); p0 < time.Millisecond {
		t.Fatalf("min realized delay %v below configured MinDelay", p0)
	}
}

// TestResetStatsEpoch: a message in flight across ResetStats must not leak
// into the new epoch's counters or delay histogram — the reset's contract.
func TestResetStatsEpoch(t *testing.T) {
	n := New(Config{Seed: 3, MinDelay: 20 * time.Millisecond, MaxDelay: 30 * time.Millisecond})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)

	if err := a.Send(2, []byte{1}); err != nil {
		t.Fatal(err)
	}
	n.ResetStats() // message from the old epoch still in flight

	if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
		t.Fatal("in-flight message must still be delivered after reset")
	}
	st := n.Stats()
	if st.Sent != 0 || st.Delivered != 0 || st.Delay.Count != 0 {
		t.Fatalf("old-epoch delivery leaked into new epoch: %+v", st)
	}

	// The new epoch accounts its own traffic normally.
	if err := a.Send(2, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
		t.Fatal("new-epoch message not delivered")
	}
	st = n.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Delay.Count != 1 {
		t.Fatalf("new epoch counters wrong: sent=%d delivered=%d delay.count=%d",
			st.Sent, st.Delivered, st.Delay.Count)
	}
}

// TestBatchFrameDeliversMembers: a wire batch frame is split at the send
// boundary — each member envelope arrives as its own message, and the
// per-kind counters see the members, not the container, so message
// accounting is identical whether or not a transport coalesced.
func TestBatchFrameDeliversMembers(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)

	m1 := wire.Seal([]byte{0x01, 'a'}, 0, 0)
	m2 := wire.Seal([]byte{0x02, 'b'}, 0, 0)
	frame := wire.AppendBatch(nil, [][]byte{m1, m2})
	if err := a.Send(2, frame); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for i := 0; i < 2; i++ {
		_, payload, ok := waitMsg(t, n, 2, time.Second)
		if !ok {
			t.Fatalf("member %d not delivered", i)
		}
		body, _, _, err := wire.Open(payload)
		if err != nil {
			t.Fatalf("member %d failed Open: %v", i, err)
		}
		got = append(got, body[0])
	}
	st := n.Stats()
	if st.Sent != 2 || st.Delivered != 2 {
		t.Errorf("sent/delivered = %d/%d, want 2/2", st.Sent, st.Delivered)
	}
	if st.ByKind[0x01] != 1 || st.ByKind[0x02] != 1 {
		t.Errorf("per-kind counts missed batch members: %v", st.ByKind)
	}
	if (got[0] != 0x01 || got[1] != 0x02) && (got[0] != 0x02 || got[1] != 0x01) {
		t.Errorf("member kinds delivered: %x", got)
	}
}

// TestBatchFrameSharesFate: a receiver crash while a batch is in flight
// drops the whole batch at delivery, counted per member — the one loss the
// channel itself decides.
func TestBatchFrameSharesFate(t *testing.T) {
	n := New(Config{MinDelay: 20 * time.Millisecond, MaxDelay: 20 * time.Millisecond})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)

	frame := wire.AppendBatch(nil, [][]byte{
		wire.Seal([]byte{0x01, 'a'}, 0, 0),
		wire.Seal([]byte{0x02, 'b'}, 0, 0),
		wire.Seal([]byte{0x03, 'c'}, 0, 0),
	})
	if err := a.Send(2, frame); err != nil {
		t.Fatal(err)
	}
	n.Crash(2) // after the send: the frame is in flight
	n.Drain()
	if _, _, ok := waitMsg(t, n, 2, 20*time.Millisecond); ok {
		t.Fatal("member delivered to a receiver that crashed in flight")
	}
	if st := n.Stats(); st.Dropped != 3 || st.Sent != 3 {
		t.Errorf("sent/dropped = %d/%d, want 3/3", st.Sent, st.Dropped)
	}
}

// TestDelayScaleScalesInjectedDelay: SetDelayScale reaches the chaos
// controller's injected delay too, so a delay spike (or its removal) means
// the same on the simulator as on a real network.
func TestDelayScaleScalesInjectedDelay(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Node(1)
	n.Node(2)
	n.SetDefaultFaults(chaos.Faults{DelayMin: 50 * time.Millisecond, DelayMax: 60 * time.Millisecond})
	n.SetDelayScale(0)

	start := time.Now()
	if err := a.Send(2, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := waitMsg(t, n, 2, time.Second); !ok {
		t.Fatal("no delivery")
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("delay scale 0 left the injected delay in place: %v", elapsed)
	}
}
