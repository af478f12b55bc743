package chaos

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

// fakeEndpoint records sends so tests can observe what survived injection.
type fakeEndpoint struct {
	id types.NodeID

	mu    sync.Mutex
	sends []fakeSend
	reset []types.NodeID
}

type fakeSend struct {
	to      types.NodeID
	payload []byte
}

func (f *fakeEndpoint) ID() types.NodeID               { return f.id }
func (f *fakeEndpoint) Recv() <-chan transport.Message { return nil }
func (f *fakeEndpoint) Close() error                   { return nil }
func (f *fakeEndpoint) Send(to types.NodeID, p []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	cp := make([]byte, len(p))
	copy(cp, p)
	f.sends = append(f.sends, fakeSend{to: to, payload: cp})
	return nil
}

func (f *fakeEndpoint) ResetPeer(to types.NodeID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reset = append(f.reset, to)
	return true
}

func (f *fakeEndpoint) sent() []fakeSend {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]fakeSend, len(f.sends))
	copy(out, f.sends)
	return out
}

// runTrace pushes a fixed send sequence through a freshly seeded controller
// and returns the decision trace.
func runTrace(seed int64, faults Faults) []string {
	n := New(seed)
	n.EnableTrace()
	n.SetDefaultFaults(faults)
	inner := &fakeEndpoint{id: 0}
	ep := n.Wrap(inner)
	payload := []byte("0123456789abcdef")
	for i := 0; i < 200; i++ {
		// Interleave two links to exercise independent per-link streams.
		_ = ep.Send(types.NodeID(1+i%2), payload)
	}
	return n.Trace()
}

// TestDeterministicFaultTrace is the acceptance check: same seed, same send
// sequence, same fault trace — and a different seed diverges.
func TestDeterministicFaultTrace(t *testing.T) {
	faults := Faults{Drop: 0.3, Dup: 0.2, Corrupt: 0.1, Reset: 0.05,
		Reorder: 0.1, DelayMin: time.Microsecond, DelayMax: 50 * time.Microsecond}
	a := runTrace(42, faults)
	b := runTrace(42, faults)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault traces")
	}
	c := runTrace(43, faults)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical 200-send fault traces")
	}
	if len(a) != 400 { // 200 sends x 2... no: 200 sends total, one line each
		t.Logf("trace length %d", len(a))
	}
}

func TestDropAndPassThrough(t *testing.T) {
	n := New(7)
	inner := &fakeEndpoint{id: 0}
	ep := n.Wrap(inner)

	// No faults configured: everything passes, untouched.
	payload := []byte("hello")
	for i := 0; i < 10; i++ {
		if err := ep.Send(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(inner.sent()); got != 10 {
		t.Fatalf("faultless pass-through delivered %d/10", got)
	}

	// Full drop: nothing more arrives.
	n.SetDefaultFaults(Faults{Drop: 1})
	for i := 0; i < 10; i++ {
		_ = ep.Send(1, payload)
	}
	if got := len(inner.sent()); got != 10 {
		t.Fatalf("drop=1 leaked sends: %d", got)
	}
	st := n.Stats()
	if st.Dropped != 10 || st.Sent != 20 {
		t.Errorf("stats %+v", st)
	}
}

func TestDuplicateAndCorrupt(t *testing.T) {
	n := New(3)
	inner := &fakeEndpoint{id: 0}
	ep := n.Wrap(inner)

	n.SetDefaultFaults(Faults{Dup: 1})
	orig := []byte("payload")
	if err := ep.Send(1, orig); err != nil {
		t.Fatal(err)
	}
	if got := len(inner.sent()); got != 2 {
		t.Fatalf("dup=1 delivered %d copies, want 2", got)
	}

	n.SetDefaultFaults(Faults{Corrupt: 1})
	if err := ep.Send(1, orig); err != nil {
		t.Fatal(err)
	}
	sends := inner.sent()
	last := sends[len(sends)-1]
	if string(last.payload) == string(orig) {
		t.Error("corrupt=1 delivered an intact payload")
	}
	if string(orig) != "payload" {
		t.Error("corruption mutated the caller's buffer")
	}
}

func TestResetInvokesPeerResetter(t *testing.T) {
	n := New(5)
	inner := &fakeEndpoint{id: 0}
	ep := n.Wrap(inner)
	n.SetDefaultFaults(Faults{Reset: 1})
	if err := ep.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if len(inner.reset) != 1 || inner.reset[0] != 1 {
		t.Fatalf("resets: %v", inner.reset)
	}
	// The frame that triggered the reset is lost with the connection.
	if got := len(inner.sent()); got != 0 {
		t.Fatalf("reset leaked the in-flight frame: %d sends", got)
	}

	// ResetLink works without any faults configured.
	n.SetDefaultFaults(Faults{})
	n.ResetLink(0, 2)
	if len(inner.reset) != 2 || inner.reset[1] != 2 {
		t.Fatalf("ResetLink not forwarded: %v", inner.reset)
	}
}

func TestDelayDefersDelivery(t *testing.T) {
	n := New(11)
	inner := &fakeEndpoint{id: 0}
	ep := n.Wrap(inner)
	n.SetDefaultFaults(Faults{DelayMin: 20 * time.Millisecond, DelayMax: 30 * time.Millisecond})
	if err := ep.Send(1, []byte("later")); err != nil {
		t.Fatal(err)
	}
	if got := len(inner.sent()); got != 0 {
		t.Fatalf("delayed send delivered immediately (%d sends)", got)
	}
	deadline := time.After(2 * time.Second)
	for len(inner.sent()) == 0 {
		select {
		case <-deadline:
			t.Fatal("delayed send never delivered")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestCrashBlockPartitionIsolate(t *testing.T) {
	n := New(13)
	inner := &fakeEndpoint{id: 0}
	ep := n.Wrap(inner)

	n.Crash(1)
	_ = ep.Send(1, []byte("x"))
	if got := len(inner.sent()); got != 0 {
		t.Fatal("send to crashed node delivered")
	}
	if !n.Crashed(1) || n.Crashed(0) {
		t.Fatalf("Crashed(1)=%v Crashed(0)=%v, want true false", n.Crashed(1), n.Crashed(0))
	}
	n.Recover(1)
	if n.Crashed(1) {
		t.Fatal("Crashed(1) after Recover")
	}
	_ = ep.Send(1, []byte("x"))
	if got := len(inner.sent()); got != 1 {
		t.Fatal("send after recover not delivered")
	}

	n.BlockLink(0, 1)
	_ = ep.Send(1, []byte("x"))
	if got := len(inner.sent()); got != 1 {
		t.Fatal("send over blocked link delivered")
	}
	n.UnblockLink(0, 1)

	n.Partition([]types.NodeID{0}, []types.NodeID{1})
	_ = ep.Send(1, []byte("x"))
	if got := len(inner.sent()); got != 1 {
		t.Fatal("send across partition delivered")
	}
	// A node in no group (e.g. an unlisted client) cannot reach a listed
	// node or be reached by one; unlisted nodes still reach each other.
	_ = ep.Send(9, []byte("x"))
	if got := len(inner.sent()); got != 1 {
		t.Fatal("send from a listed node to an unlisted one delivered")
	}
	other := &fakeEndpoint{id: 8}
	oep := n.Wrap(other)
	_ = oep.Send(0, []byte("x"))
	_ = oep.Send(9, []byte("x"))
	if got := other.sent(); len(got) != 1 || got[0].to != 9 {
		t.Fatalf("unlisted node 8 sends delivered: %+v, want only the one to 9", got)
	}
	n.Heal()
	_ = ep.Send(1, []byte("x"))
	if got := len(inner.sent()); got != 2 {
		t.Fatal("send after heal not delivered")
	}
}

func TestParseFaultsRoundTrip(t *testing.T) {
	cases := []Faults{
		{},
		{Drop: 0.3},
		{Drop: 0.25, Dup: 0.1, Reorder: 0.05, Corrupt: 0.01, Reset: 0.02,
			DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond},
		{DelayMin: 2 * time.Millisecond, DelayMax: 2 * time.Millisecond},
	}
	for _, f := range cases {
		got, err := ParseFaults(f.String())
		if err != nil {
			t.Errorf("ParseFaults(%q): %v", f.String(), err)
			continue
		}
		if got != f {
			t.Errorf("round trip %q: got %+v want %+v", f.String(), got, f)
		}
	}
	for _, bad := range []string{"drop", "drop=2", "drop=-0.1", "warp=1", "delay=zoom", "delay=5ms..1ms"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted", bad)
		}
	}
}
