package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/quorum"
	"repro/internal/types"
)

func TestWriteThenRead(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 1})
	cli := c.client()
	ctx := shortCtx(t)

	mustWrite(t, ctx, cli, "x", "hello")
	if got := mustRead(t, ctx, cli, "x"); got != "hello" {
		t.Fatalf("read %q, want hello", got)
	}
}

func TestInitialReadIsNil(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 1})
	cli := c.client()
	v, err := cli.Read(shortCtx(t), "never-written")
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("initial read = %v, want nil", v)
	}
}

func TestOverwrite(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 2})
	cli := c.client()
	ctx := shortCtx(t)

	for i := 0; i < 10; i++ {
		mustWrite(t, ctx, cli, "k", fmt.Sprintf("v%d", i))
	}
	if got := mustRead(t, ctx, cli, "k"); got != "v9" {
		t.Fatalf("read %q, want v9", got)
	}
}

func TestRegistersAreIndependent(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 3})
	cli := c.client()
	ctx := shortCtx(t)

	mustWrite(t, ctx, cli, "a", "A")
	mustWrite(t, ctx, cli, "b", "B")
	if got := mustRead(t, ctx, cli, "a"); got != "A" {
		t.Fatalf("a=%q", got)
	}
	if got := mustRead(t, ctx, cli, "b"); got != "B" {
		t.Fatalf("b=%q", got)
	}
}

func TestReadSeesOtherClientsWrite(t *testing.T) {
	// P2: after Write(v) returns, every later read (from anyone) sees v or
	// newer.
	c := newTestCluster(t, 5, netsim.Config{Seed: 4, MinDelay: 100 * time.Microsecond, MaxDelay: 2 * time.Millisecond})
	w := c.client()
	r := c.client()
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "shared", "from-w")
	if got := mustRead(t, ctx, r, "shared"); got != "from-w" {
		t.Fatalf("read %q, want from-w", got)
	}
}

func TestEmptyValueDistinctFromInitial(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 5})
	cli := c.client()
	ctx := shortCtx(t)

	if err := cli.Write(ctx, "e", []byte{}); err != nil {
		t.Fatal(err)
	}
	v, err := cli.Read(ctx, "e")
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || len(v) != 0 {
		t.Fatalf("read %v, want empty non-nil", v)
	}
}

func TestMinorityCrashDoesNotBlock(t *testing.T) {
	// F2's core claim: with f < n/2 crashes, reads and writes terminate.
	c := newTestCluster(t, 5, netsim.Config{Seed: 6})
	cli := c.client()
	ctx := shortCtx(t)

	mustWrite(t, ctx, cli, "x", "before")
	c.net.Crash(0)
	c.net.Crash(1)

	mustWrite(t, ctx, cli, "x", "after")
	if got := mustRead(t, ctx, cli, "x"); got != "after" {
		t.Fatalf("read %q, want after", got)
	}
}

func TestMajorityCrashBlocks(t *testing.T) {
	// The impossibility side (F4): with a majority unreachable, operations
	// cannot terminate; they fail with ErrNoQuorum when the context expires.
	c := newTestCluster(t, 5, netsim.Config{Seed: 7})
	cli := c.client()

	c.net.Crash(0)
	c.net.Crash(1)
	c.net.Crash(2)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err := cli.Write(ctx, "x", []byte("doomed"))
	if !errors.Is(err, types.ErrNoQuorum) {
		t.Fatalf("want ErrNoQuorum, got %v", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel2()
	if _, err := cli.Read(ctx2, "x"); !errors.Is(err, types.ErrNoQuorum) {
		t.Fatalf("read: want ErrNoQuorum, got %v", err)
	}
}

func TestPartitionBlocksMinoritySide(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 8})
	cli := c.client() // client id 1000

	// Put the client with a minority of replicas.
	c.net.Partition(
		[]types.NodeID{0, 1, cli.ID()},
		[]types.NodeID{2, 3, 4},
	)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := cli.Write(ctx, "x", []byte("v")); !errors.Is(err, types.ErrNoQuorum) {
		t.Fatalf("want ErrNoQuorum, got %v", err)
	}

	// Healing restores liveness.
	c.net.Heal()
	mustWrite(t, shortCtx(t), cli, "x", "healed")
}

func TestReplicaMonotonicity(t *testing.T) {
	// P1: a replica's stored timestamp never decreases — older updates are
	// acked but not adopted.
	c := newTestCluster(t, 3, netsim.Config{Seed: 9})
	w1 := c.client() // multi-writer clients
	w2 := c.client()
	ctx := shortCtx(t)

	mustWrite(t, ctx, w1, "x", "first")
	mustWrite(t, ctx, w2, "x", "second")

	// Hand-deliver a stale update (seq 1) directly to replica 0.
	tag0, _ := c.replicas[0].State("x")
	stale := message{Kind: KindWrite, Op: 999, Reg: "x",
		Tag: Tag{Valid: true, TS: tag0.TS}, Val: []byte("stale")}
	stale.Tag.TS.Seq = 1
	stale.Tag.TS.Writer = 0
	if err := c.net.Node(types.NodeID(2000)).Send(0, stale.encode()); err != nil {
		t.Fatal(err)
	}

	// The replica must still serve the newer pair.
	deadline := time.Now().Add(2 * time.Second)
	for {
		tag, val := c.replicas[0].State("x")
		if tag.TS.Seq >= tag0.TS.Seq && string(val) == "second" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica adopted stale update: tag=%v val=%q", tag, val)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReadWriteBackPropagates(t *testing.T) {
	// P3: after a read returns v with tag t, a write quorum stores >= t.
	// Scenario: writer reaches only replicas {0,1} (links to 2 blocked was
	// not possible since write needs a majority; instead block replica 2
	// from the writer so the write quorum is {0,1} of 3).
	c := newTestCluster(t, 3, netsim.Config{Seed: 10})
	w := c.client()
	r := c.client()
	ctx := shortCtx(t)

	c.net.BlockLink(w.ID(), 2) // writer's updates never reach replica 2
	mustWrite(t, ctx, w, "x", "v1")

	t2, _ := c.replicas[2].State("x")
	if t2.Valid {
		t.Fatal("setup: replica 2 should not have the value yet")
	}

	// A read through a quorum containing replica 2 must write back, after
	// which replica 2 stores the pair even though the writer never reached it.
	if got := mustRead(t, ctx, r, "x"); got != "v1" {
		t.Fatalf("read %q", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		tag, val := c.replicas[2].State("x")
		if tag.Valid && string(val) == "v1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write-back never reached replica 2")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSingleWriterUsesOnePhasePerWrite(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 11})
	sw := c.client(WithSingleWriter())
	ctx := shortCtx(t)

	for i := 0; i < 10; i++ {
		mustWrite(t, ctx, sw, "x", "v")
	}
	m := sw.Metrics()
	if m.Writes != 10 || m.Phases != 10 {
		t.Fatalf("single-writer: %d writes took %d phases, want 10", m.Writes, m.Phases)
	}
}

func TestMultiWriterUsesTwoPhasesPerWrite(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 12})
	mw := c.client()
	ctx := shortCtx(t)

	for i := 0; i < 10; i++ {
		mustWrite(t, ctx, mw, "x", "v")
	}
	m := mw.Metrics()
	if m.Writes != 10 || m.Phases != 20 {
		t.Fatalf("multi-writer: %d writes took %d phases, want 20", m.Writes, m.Phases)
	}
}

func TestMultiWriterTimestampsAdvanceAcrossClients(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 13})
	w1 := c.client()
	w2 := c.client()
	ctx := shortCtx(t)

	mustWrite(t, ctx, w1, "x", "a")
	mustWrite(t, ctx, w2, "x", "b") // w2 must observe w1's timestamp and exceed it
	mustWrite(t, ctx, w1, "x", "c")

	if got := mustRead(t, ctx, w2, "x"); got != "c" {
		t.Fatalf("read %q, want c (latest write wins)", got)
	}
}

func TestSkipUnanimousWriteBack(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 14})
	w := c.client()
	r := c.client(WithSkipUnanimousWriteBack())
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "x", "v")
	// Quiescent state: replicas are unanimous, so reads skip phase 2.
	for i := 0; i < 5; i++ {
		if got := mustRead(t, ctx, r, "x"); got != "v" {
			t.Fatalf("read %q", got)
		}
	}
	m := r.Metrics()
	if m.WriteBacksSkipped == 0 {
		t.Fatal("no write-backs skipped in quiescent state")
	}
	if m.WriteBacks+m.WriteBacksSkipped != m.Reads {
		t.Fatalf("write-back accounting: %+v", m)
	}
}

func TestSkipUnanimousStillWritesBackWhenDivergent(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 15})
	w := c.client()
	r := c.client(WithSkipUnanimousWriteBack())
	ctx := shortCtx(t)

	c.net.BlockLink(w.ID(), 2)
	mustWrite(t, ctx, w, "x", "v1") // replica 2 left behind

	if got := mustRead(t, ctx, r, "x"); got != "v1" {
		t.Fatalf("read %q", got)
	}
	// Replica 2 may or may not be in the read quorum; run a few reads so at
	// least one quorum includes the stale replica and forces a write-back.
	for i := 0; i < 10; i++ {
		_ = mustRead(t, ctx, r, "x")
	}
	m := r.Metrics()
	if m.WriteBacks == 0 {
		t.Skip("all read quorums happened to be unanimous; nothing to assert")
	}
}

func TestConcurrentClientsStress(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 16, MinDelay: 50 * time.Microsecond, MaxDelay: 500 * time.Microsecond})
	ctx := shortCtx(t)

	const clients, opsPer = 8, 30
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		cli := c.client()
		wg.Add(1)
		go func(cli *Client, i int) {
			defer wg.Done()
			for j := 0; j < opsPer; j++ {
				if j%3 == 0 {
					if err := cli.Write(ctx, "k", []byte(fmt.Sprintf("c%d-%d", i, j))); err != nil {
						errCh <- err
						return
					}
				} else if _, err := cli.Read(ctx, "k"); err != nil {
					errCh <- err
					return
				}
			}
		}(cli, i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestClientValidation(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()

	if _, err := NewClient(1, net.Node(1), nil); err == nil {
		t.Fatal("empty replica group accepted")
	}
	if _, err := NewClient(1, net.Node(1), []types.NodeID{5, 5}); err == nil {
		t.Fatal("duplicate replicas accepted")
	}
	if _, err := NewClient(1, net.Node(1), []types.NodeID{5, 6},
		WithQuorum(quorum.NewMajority(7))); err == nil {
		t.Fatal("mis-sized quorum system accepted")
	}
}

func TestGridQuorumEndToEnd(t *testing.T) {
	// The generalization: run the protocol over a 2x3 grid quorum system.
	c := newTestCluster(t, 6, netsim.Config{Seed: 17})
	g := quorum.NewGrid(2, 3)
	w := c.client(WithQuorum(g))
	r := c.client(WithQuorum(g))
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "x", "grid-value")
	if got := mustRead(t, ctx, r, "x"); got != "grid-value" {
		t.Fatalf("read %q", got)
	}
}

func TestStragglersAreCounted(t *testing.T) {
	// With delays, some replies arrive after the quorum is reached and the
	// op deregistered; they must be dropped and counted, not break anything.
	c := newTestCluster(t, 5, netsim.Config{Seed: 18, MinDelay: 0, MaxDelay: 3 * time.Millisecond})
	cli := c.client()
	ctx := shortCtx(t)

	for i := 0; i < 20; i++ {
		mustWrite(t, ctx, cli, "x", "v")
	}
	// Give stragglers time to arrive.
	time.Sleep(20 * time.Millisecond)
	if m := cli.Metrics(); m.Stragglers == 0 {
		t.Log("no stragglers observed (tight timing); counters still consistent")
	}
}

func TestClientCloseFailsInFlightOps(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 19})
	cli := c.client()

	c.net.Crash(0)
	c.net.Crash(1) // majority gone: the op will hang until ctx expires

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	errs := make(chan error, 1)
	go func() { errs <- cli.Write(ctx, "x", []byte("v")) }()

	time.Sleep(30 * time.Millisecond)
	cancel()
	if err := <-errs; err == nil {
		t.Fatal("in-flight op succeeded without a quorum")
	}
}

func TestCloseFailsInFlightPhasePromptly(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 24})
	cli := c.client()

	// Make the op hang: crash a majority so no quorum can form.
	c.net.Crash(0)
	c.net.Crash(1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := make(chan error, 1)
	go func() { errs <- cli.Write(ctx, "x", []byte("v")) }()

	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	cli.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, types.ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
		if time.Since(start) > 2*time.Second {
			t.Fatal("in-flight op not failed promptly on Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight op hung past Close")
	}
}

func TestProtocolIdempotentUnderDuplication(t *testing.T) {
	// At-least-once delivery: every message may arrive twice. Queries are
	// read-only and updates adopt-if-newer, so duplication must change
	// nothing observable.
	c := newTestCluster(t, 3, netsim.Config{Seed: 25})
	c.net.SetDefaultFaults(chaos.Faults{Dup: 0.5})
	w := c.client(WithSingleWriter())
	r := c.client()
	ctx := shortCtx(t)

	for i := 0; i < 20; i++ {
		mustWrite(t, ctx, w, "x", fmt.Sprintf("v%d", i))
		if got := mustRead(t, ctx, r, "x"); got != fmt.Sprintf("v%d", i) {
			t.Fatalf("iteration %d: read %q", i, got)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if st := c.net.Net.Stats(); st.Duplicated == 0 {
		t.Fatal("no duplication occurred at 50% probability")
	}
	// Replica state is exactly what the 20 writes produced.
	for i := range c.replicas {
		tag, _ := c.replicas[i].State("x")
		if tag.TS.Seq > 20 {
			t.Fatalf("replica %d: seq %d exceeds writes issued", i, tag.TS.Seq)
		}
	}
}

// TestClientReplicaPhaseReconciliation cross-checks the client-side and
// replica-side counter sets: on a loss-free instant network with full
// fanout, every client phase reaches every replica as exactly one request,
// so per replica Queries+Updates == client Phases, and summed over the
// group == client MsgsSent. The update split must also account for every
// update: Adoptions + StaleRejects + OrderViolations == Updates.
func TestClientReplicaPhaseReconciliation(t *testing.T) {
	const n = 3
	c := newTestCluster(t, n, netsim.Config{Seed: 11})
	cli := c.client()
	ctx := shortCtx(t)

	for i := 0; i < 5; i++ {
		mustWrite(t, ctx, cli, "x", fmt.Sprintf("v%d", i))
		_ = mustRead(t, ctx, cli, "x")
		_ = mustRead(t, ctx, cli, "never-written")
	}
	time.Sleep(50 * time.Millisecond) // let in-flight requests land

	cs := cli.Metrics()
	var sumHandled int64
	for _, r := range c.replicas {
		rm := r.ReplicaMetrics()
		if handled := rm.Queries + rm.Updates; handled != cs.Phases {
			t.Errorf("replica %d handled %d requests, client ran %d phases", r.ID(), handled, cs.Phases)
		}
		if got := rm.Adoptions + rm.StaleRejects + rm.OrderViolations; got != rm.Updates {
			t.Errorf("replica %d: adoptions %d + stale %d + violations %d != updates %d",
				r.ID(), rm.Adoptions, rm.StaleRejects, rm.OrderViolations, rm.Updates)
		}
		if rm.Registers != 1 { // only "x" was ever written
			t.Errorf("replica %d stores %d registers, want 1", r.ID(), rm.Registers)
		}
		sumHandled += rm.Queries + rm.Updates
	}
	if sumHandled != cs.MsgsSent {
		t.Errorf("replicas handled %d requests in total, client sent %d", sumHandled, cs.MsgsSent)
	}
}
