package failure

import (
	"context"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/types"
)

func TestParseRoundTrip(t *testing.T) {
	script := "crash:2@100ms; partition:0,1|2,3,4@200ms; heal@400ms; delay:3@1s; block:0>2@1.5s; unblock:0>2@2s; recover:2@3s; faults:*:drop=0.3,dup=0.1@4s; faults:0>1:corrupt=0.05,delay=1ms..5ms@5s; reset:0>2@6s; reset:*@7s; faults:*:none@8s"
	sched, err := Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 12 {
		t.Fatalf("parsed %d events", len(sched))
	}
	// Round trip through String and Parse again.
	again, err := Parse(sched.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", sched.String(), err)
	}
	if len(again) != len(sched) {
		t.Fatalf("round trip lost events: %d vs %d", len(again), len(sched))
	}
	for i := range sched {
		if again[i].At != sched[i].At || again[i].Action.String() != sched[i].Action.String() {
			t.Fatalf("event %d: %v@%v vs %v@%v", i,
				again[i].Action, again[i].At, sched[i].Action, sched[i].At)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"crash:2",                    // missing offset
		"crash:x@1s",                 // bad node
		"crash:-1@1s",                // negative node id
		"crash:2@-5s",                // negative offset
		"warp:1@1s",                  // unknown action
		"block:1-2@1s",               // bad link syntax
		"block:a>b@1s",               // non-numeric link endpoints
		"block:1>@1s",                // missing link target
		"partition:a|b@1s",           // bad node ids
		"delay:fast@1s",              // bad factor
		"faults:drop=0.3@1s",         // missing link target
		"faults:*:drop=1.5@1s",       // probability out of range
		"faults:*:warp=0.1@1s",       // unknown fault key
		"faults:*:delay=5ms..1ms@1s", // inverted delay range
		"faults:0>1:drop@1s",         // missing value
		"reset:1@1s",                 // reset needs a link or *
	}
	for _, script := range bad {
		if _, err := Parse(script); err == nil {
			t.Errorf("Parse(%q) accepted", script)
		}
	}
}

// TestParseDuplicateOffsets pins the documented semantics: events sharing
// an offset are all kept and fire in script order (stable sort in Run).
func TestParseDuplicateOffsets(t *testing.T) {
	sched, err := Parse("crash:0@100ms; crash:1@100ms; heal@100ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 3 {
		t.Fatalf("parsed %d events, want 3", len(sched))
	}
	for i, want := range []string{"crash:0", "crash:1", "heal"} {
		if got := sched[i].Action.String(); got != want {
			t.Errorf("event %d = %s, want %s", i, got, want)
		}
	}
}

func TestValidateRejectsOutOfRangeNodes(t *testing.T) {
	sched, err := Parse("crash:7@1ms; heal@2ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(5); err == nil {
		t.Error("Validate(5) accepted a schedule referencing node 7")
	}
	if err := sched.Validate(8); err != nil {
		t.Errorf("Validate(8) rejected an in-range schedule: %v", err)
	}
	ok, err := Parse("partition:0,1|2,3,4@1ms; block:0>4@2ms; faults:0>4:drop=0.5@3ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Validate(5); err != nil {
		t.Errorf("Validate(5) rejected a valid schedule: %v", err)
	}
	if err := ok.Validate(4); err == nil {
		t.Error("Validate(4) accepted a schedule referencing node 4")
	}
}

// TestChaosActionsApplyToChaosFabric drives the link-fault and reset
// actions against a bare chaos.Net and against the simulator: the fault
// mix must take effect on both, and a reset on the connectionless
// simulator must be a harmless no-op.
func TestChaosActionsApplyToChaosFabric(t *testing.T) {
	sched, err := Parse("faults:*:drop=1@0ms; reset:*@0ms")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()

	cn := chaos.New(1)
	if err := sched.Run(ctx, cn); err != nil {
		t.Fatal(err)
	}
	// All-links drop=1 is now the default config: a send through a wrapped
	// endpoint must be dropped.
	carrier := netsim.New(netsim.Config{})
	defer carrier.Close()
	wrapped := cn.Wrap(carrier.Node(0))
	carrier.Node(1)
	if err := wrapped.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := cn.Stats(); st.Dropped == 0 {
		t.Errorf("chaos fabric did not apply faults action: %+v", st)
	}

	net := netsim.New(netsim.Config{})
	defer net.Close()
	a := net.Node(0)
	net.Node(1)
	if err := sched.Run(ctx, net); err != nil {
		t.Fatalf("chaos actions on netsim errored: %v", err)
	}
	if err := a.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-net.Node(1).Recv():
		t.Fatal("netsim delivered under an applied faults:*:drop=1 action")
	case <-time.After(50 * time.Millisecond):
	}
	if st := net.Net.Stats(); st.Dropped != 1 {
		t.Errorf("netsim chaos dropped=%d, want 1", st.Dropped)
	}
}

func TestParseEmptyAndWhitespace(t *testing.T) {
	sched, err := Parse("  ;  ; ")
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 0 {
		t.Fatalf("want empty schedule, got %d", len(sched))
	}
}

func TestRunAppliesInOrder(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	net.Node(0)
	net.Node(1)

	sched := Schedule{
		{At: 30 * time.Millisecond, Action: Heal{}},
		{At: 10 * time.Millisecond, Action: Crash{Node: 0}}, // out of order on purpose
		{At: 20 * time.Millisecond, Action: Crash{Node: 1}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	if err := sched.Run(ctx, net); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("schedule finished too fast: %v", elapsed)
	}
	if !net.Crashed(0) || !net.Crashed(1) {
		t.Fatal("crashes not applied")
	}
}

func TestRunCancelled(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	net.Node(0)

	sched := Schedule{{At: 10 * time.Second, Action: Crash{Node: 0}}}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := sched.Run(ctx, net); err == nil {
		t.Fatal("cancelled run returned nil")
	}
	if net.Crashed(0) {
		t.Fatal("event applied after cancellation")
	}
}

func TestPartitionActionApplies(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	a := net.Node(1)
	net.Node(2)

	Partition{Groups: [][]types.NodeID{{1}, {2}}}.Apply(net)
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-net.Node(2).Recv():
		t.Fatal("message crossed applied partition")
	case <-time.After(50 * time.Millisecond):
	}

	Heal{}.Apply(net)
	if err := a.Send(2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-net.Node(2).Recv():
	case <-time.After(time.Second):
		t.Fatal("message not delivered after heal")
	}
}
