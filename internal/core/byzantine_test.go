package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/quorum"
	"repro/internal/timestamp"
	"repro/internal/types"
)

// newByzCluster is newTestCluster with one liar: replica liarIdx stays an
// honest Replica underneath (it stores every write), but a Liar in mode,
// installed as its chaos interceptor, rewrites every reply it sends.
func newByzCluster(t *testing.T, n, liarIdx int, mode ByzMode) *testCluster {
	t.Helper()
	c := newTestCluster(t, n, netsim.Config{Seed: 60})
	liar := NewLiar(types.NodeID(liarIdx), 1)
	liar.SetMode(mode)
	c.net.SetInterceptor(types.NodeID(liarIdx), liar.Intercept)
	return c
}

func TestFabricatingReplicaCorruptsPlainMajorityReads(t *testing.T) {
	// The attack the masking extension exists for: with plain majorities, a
	// single fabricating replica wins every read that includes it, because
	// its timestamp is enormous.
	c := newByzCluster(t, 5, 0, ByzFabricate)
	w := c.client(WithSingleWriter())
	r := c.client()
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "x", "genuine")
	corrupted := false
	for i := 0; i < 10; i++ {
		if got := mustRead(t, ctx, r, "x"); got == "byzantine-fabrication" {
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("the liar never corrupted a plain-majority read; attack setup is broken")
	}
}

func TestMaskingToleratesLiarPlusNothingElse(t *testing.T) {
	// n=5, f=1 masking quorums have size 4: the system needs every honest
	// replica when the liar goes silent, and stalls if one more crashes —
	// the documented n >= 4f+1 resilience budget.
	const n, f = 5, 1
	c := newByzCluster(t, n, 0, ByzSilent)
	cli := c.client(WithByzantine(f), WithSingleWriter())
	ctx := shortCtx(t)

	mustWrite(t, ctx, cli, "x", "works-with-4-honest")
	if got := mustRead(t, ctx, cli, "x"); got != "works-with-4-honest" {
		t.Fatalf("read %q", got)
	}
}

func TestMaskingMultiWriterUnderAttack(t *testing.T) {
	const n, f = 5, 1
	c := newByzCluster(t, n, 4, ByzEquivocate)
	ctx := shortCtx(t)

	var wg sync.WaitGroup
	errCh := make(chan error, 3)
	for i := 0; i < 3; i++ {
		cli := c.client(WithByzantine(f))
		wg.Add(1)
		go func(i int, cli *Client) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := cli.Write(ctx, "x", []byte(fmt.Sprintf("w%d-%d", i, j))); err != nil {
					errCh <- err
					return
				}
				v, err := cli.Read(ctx, "x")
				if err != nil {
					errCh <- err
					return
				}
				if len(v) > 0 && v[0] != 'w' {
					errCh <- fmt.Errorf("read fabricated value %q", v)
					return
				}
			}
		}(i, cli)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// ---- WithByzantine: the first-class protocol mode ----

func TestWithByzantineOptionValidation(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 7})
	defer net.Close()
	mkIDs := func(n int) []types.NodeID {
		ids := make([]types.NodeID, n)
		for i := range ids {
			ids[i] = types.NodeID(i)
		}
		return ids
	}

	// n=5 f=1 satisfies n >= 4f+1.
	cli, err := NewClient(1000, net.Node(1000), mkIDs(5), WithByzantine(1))
	if err != nil {
		t.Fatalf("n=5 f=1: %v", err)
	}
	if got := cli.ByzantineF(); got != 1 {
		t.Fatalf("ByzantineF() = %d, want 1", got)
	}
	cli.Close()

	// f=0 is the plain crash-fault client: accepted, no validation.
	cli, err = NewClient(1001, net.Node(1001), mkIDs(5), WithByzantine(0))
	if err != nil {
		t.Fatalf("n=5 f=0: %v", err)
	}
	if got := cli.ByzantineF(); got != 0 {
		t.Fatalf("ByzantineF() = %d, want 0 for f=0", got)
	}
	cli.Close()

	// n=4 f=1 violates the masking bound n >= 4f+1.
	if _, err := NewClient(1002, net.Node(1002), mkIDs(4), WithByzantine(1)); err == nil {
		t.Fatal("n=4 f=1 accepted (needs n >= 4f+1)")
	}
	// Negative f is rejected outright.
	if _, err := NewClient(1003, net.Node(1003), mkIDs(5), WithByzantine(-1)); err == nil {
		t.Fatal("f=-1 accepted")
	}
	// The write-back is what repairs honest laggards; disabling it under
	// Byzantine validation would be silently unsound, so it is rejected.
	if _, err := NewClient(1004, net.Node(1004), mkIDs(5), WithByzantine(1), WithUnsafeNoWriteBack()); err == nil {
		t.Fatal("WithByzantine + WithUnsafeNoWriteBack accepted")
	}
}

func TestWithByzantineDefeatsAllModes(t *testing.T) {
	// The one-option spelling must hold against every lying strategy, and
	// the loud modes (fabricated max-tags) must show up in the
	// suspected-liar counter: each lie costs a confirm round first, so
	// confirms always dominate rejects.
	for _, mode := range []ByzMode{ByzFabricate, ByzStale, ByzSilent, ByzEquivocate} {
		mode := mode
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			c := newByzCluster(t, 5, 2, mode)
			w := c.client(WithByzantine(1), WithSingleWriter())
			r := c.client(WithByzantine(1))
			ctx := shortCtx(t)

			for i := 0; i < 10; i++ {
				want := fmt.Sprintf("genuine-%d", i)
				mustWrite(t, ctx, w, "x", want)
				if got := mustRead(t, ctx, r, "x"); got != want {
					t.Fatalf("iteration %d: read %q, want %q", i, got, want)
				}
			}
			if mode == ByzFabricate || mode == ByzEquivocate {
				m := r.Metrics()
				if m.ByzRejects == 0 {
					t.Fatal("loud lies in every read quorum, but ByzRejects = 0")
				}
				if m.ByzConfirms < m.ByzRejects {
					t.Fatalf("ByzConfirms = %d < ByzRejects = %d: a reject without its confirm round", m.ByzConfirms, m.ByzRejects)
				}
			}
		})
	}
}

func TestWithByzantineHonestRunNoFalseSuspicions(t *testing.T) {
	// ByzRejects is a *suspected-liar* counter: an all-honest cluster under
	// write/read concurrency must never trip it. Honest in-flight writes may
	// cost confirm rounds; they must always be absorbed, never rejected.
	c := newTestCluster(t, 5, netsim.Config{Seed: 61})
	w := c.client(WithByzantine(1))
	r := c.client(WithByzantine(1))
	ctx := shortCtx(t)

	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if err := w.Write(ctx, "x", []byte(fmt.Sprintf("v%d", i))); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := r.Read(ctx, "x"); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	m := w.Metrics().Merge(r.Metrics())
	if m.ByzRejects != 0 {
		t.Fatalf("honest cluster, but ByzRejects = %d (confirms = %d)", m.ByzRejects, m.ByzConfirms)
	}
}

func TestLiarIntercept(t *testing.T) {
	l := NewLiar(3, 1)
	reply := message{Kind: KindReadReply, Op: 7, Reg: "x",
		Tag: Tag{Valid: true, TS: timestamp.TS{Seq: 5, Writer: 1}}, Val: types.Value("honest")}
	payload := reply.encode()
	ack := message{Kind: KindWriteAck, Op: 9, Reg: "x"}.encode()

	// Mode 0 (honest) passes everything through untouched.
	if out, ok := l.Intercept(9, payload); !ok || !bytes.Equal(out, payload) {
		t.Fatal("honest mode altered a reply")
	}

	l.SetMode(ByzFabricate)
	out, ok := l.Intercept(9, payload)
	if !ok {
		t.Fatal("fabricate suppressed the reply")
	}
	m, err := decodeMessage(out)
	if err != nil {
		t.Fatalf("fabricated reply does not decode: %v", err)
	}
	if m.Op != 7 || m.Reg != "x" || m.Kind != KindReadReply {
		t.Fatalf("fabrication broke the envelope: %+v", m)
	}
	if m.Tag.TS.Seq != 1<<40 || string(m.Val) != "byzantine-fabrication" {
		t.Fatalf("fabricated pair = (%v, %q)", m.Tag, m.Val)
	}
	// Requests and acks stay honest: the replica underneath stored the write.
	if out, ok := l.Intercept(9, ack); !ok || !bytes.Equal(out, ack) {
		t.Fatal("fabricate tampered with a write ack")
	}

	l.SetMode(ByzStale)
	out, ok = l.Intercept(9, payload)
	if !ok {
		t.Fatal("stale suppressed the reply")
	}
	if m, err = decodeMessage(out); err != nil {
		t.Fatal(err)
	}
	if m.Tag.Valid || len(m.Val) != 0 {
		t.Fatalf("stale reply should claim initial state, got (%v, %q)", m.Tag, m.Val)
	}

	l.SetMode(ByzEquivocate)
	out1, _ := l.Intercept(9, payload)
	out2, _ := l.Intercept(10, payload)
	m1, err1 := decodeMessage(out1)
	m2, err2 := decodeMessage(out2)
	if err1 != nil || err2 != nil {
		t.Fatalf("equivocated replies do not decode: %v / %v", err1, err2)
	}
	if m1.Tag.TS == m2.Tag.TS && bytes.Equal(m1.Val, m2.Val) {
		t.Fatal("equivocation produced identical lies for two destinations")
	}

	l.SetMode(ByzSilent)
	if _, ok := l.Intercept(9, payload); ok {
		t.Fatal("silent mode let a read reply through")
	}
	if _, ok := l.Intercept(9, ack); ok {
		t.Fatal("silent mode let a write ack through")
	}

	// Non-protocol payloads pass through even while lying.
	l.SetMode(ByzFabricate)
	junk := []byte("not-a-protocol-message")
	if out, ok := l.Intercept(9, junk); !ok || !bytes.Equal(out, junk) {
		t.Fatal("non-protocol payload was altered")
	}

	lies, muted := l.Stats()
	if lies == 0 || muted != 2 {
		t.Fatalf("Stats() = (%d lies, %d muted), want lies > 0 and muted == 2", lies, muted)
	}
}

func TestWithByzantineEquivocateUnderReadCoalescing(t *testing.T) {
	// Read coalescing shares one leader round among concurrent readers of a
	// register; the adopted result must be the *validated* pair, so an
	// equivocating liar must not leak through to any coalesced follower.
	c := newByzCluster(t, 5, 2, ByzEquivocate)
	w := c.client(WithByzantine(1), WithSingleWriter())
	r := c.client(WithByzantine(1)) // coalescing is on by default
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "x", "honest")

	const readers, perReader = 8, 25
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perReader; j++ {
				v, err := r.Read(ctx, "x")
				if err != nil {
					errCh <- err
					return
				}
				if string(v) != "honest" {
					errCh <- fmt.Errorf("coalesced read adopted %q, want %q", v, "honest")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	m := r.Metrics()
	if m.CoalescedReads == 0 {
		t.Fatal("no reads coalesced; the shared-round path was not exercised")
	}
	if m.ByzRejects == 0 {
		t.Fatal("equivocating liar in every leader round, but ByzRejects = 0")
	}
}

func TestMaskingValidate(t *testing.T) {
	if err := quorum.NewMasking(5, 1).Validate(); err != nil {
		t.Fatalf("n=5 f=1: %v", err)
	}
	if err := quorum.NewMasking(4, 1).Validate(); err == nil {
		t.Fatal("n=4 f=1 accepted (needs n >= 4f+1)")
	}
	if err := quorum.NewMasking(9, 2).Validate(); err != nil {
		t.Fatalf("n=9 f=2: %v", err)
	}
	m := quorum.NewMasking(5, 1)
	if m.QuorumSize() != 4 {
		t.Fatalf("quorum size %d, want 4", m.QuorumSize())
	}
	if m.MinIntersection() != 3 {
		t.Fatalf("min intersection %d, want 3 (= 2f+1)", m.MinIntersection())
	}
}

// TestLiarsFollowByzActions: byz:<node>:<mode> schedule actions switch an
// InstallLiars liar on the simulator exactly as on the nemesis cluster —
// the switched node's replies are rewritten on the wire, and off restores
// honesty.
func TestLiarsFollowByzActions(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 61})
	liars := InstallLiars(c.net.Net, c.ids, 61)
	fabric := struct {
		*netsim.Net
		Liars
	}{c.net, liars}
	apply := func(script string) {
		t.Helper()
		sched, err := failure.Parse(script)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Run(context.Background(), fabric); err != nil {
			t.Fatal(err)
		}
	}
	r := c.client()
	ctx := shortCtx(t)

	apply("byz:0:fabricate@0ms")
	if got := liars[0].Mode(); got != ByzFabricate {
		t.Fatalf("liar 0 mode = %d after byz:0:fabricate", got)
	}
	mustRead(t, ctx, r, "x")
	// The read broadcasts to all five, so replica 0 answers through its
	// liar — possibly after the quorum of three completed the read.
	deadline := time.Now().Add(time.Second)
	for lies, _ := liars.Stats(); lies == 0; lies, _ = liars.Stats() {
		if time.Now().After(deadline) {
			t.Fatal("switched liar rewrote no reply")
		}
		time.Sleep(time.Millisecond)
	}

	apply("byz:0:off@0ms")
	if got := liars[0].Mode(); got != 0 {
		t.Fatalf("liar 0 mode = %d after byz:0:off", got)
	}
	before, _ := liars.Stats()
	mustRead(t, ctx, r, "x")
	if after, _ := liars.Stats(); after != before {
		t.Fatalf("honest liars rewrote %d replies", after-before)
	}
}
