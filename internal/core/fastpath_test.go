package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestFastPathSkipsWriteBack: after one slow read confirms (and gossips)
// the newest tag, subsequent quiescent reads complete in one round — no
// write-back — and the counters account for every hop: FastPathReads,
// WriteBacksSkipped, and ReadRounds (2 for the slow read, 1 per fast one).
func TestFastPathSkipsWriteBack(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 71})
	w := c.client(WithSingleWriter())
	r := c.client()
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "x", "v1")
	time.Sleep(10 * time.Millisecond) // let update acks land everywhere

	// First read from a fresh client: the replicas may not know the tag is
	// confirmed yet (the writer's gossip only rides its *next* message), so
	// this read is allowed to pay the write-back. It confirms the tag.
	if got := mustRead(t, ctx, r, "x"); got != "v1" {
		t.Fatalf("first read %q", got)
	}

	const fastReads = 5
	for i := 0; i < fastReads; i++ {
		if got := mustRead(t, ctx, r, "x"); got != "v1" {
			t.Fatalf("read %d: %q", i, got)
		}
	}
	m := r.Metrics()
	if m.FastPathReads < fastReads {
		t.Errorf("FastPathReads = %d, want >= %d", m.FastPathReads, fastReads)
	}
	if m.WriteBacksSkipped < fastReads {
		t.Errorf("WriteBacksSkipped = %d, want >= %d", m.WriteBacksSkipped, fastReads)
	}
	// Every fast read paid exactly one round; the reads histogram agrees.
	wantRounds := 2*(m.Reads-m.FastPathReads) + m.FastPathReads
	if m.ReadRounds != wantRounds {
		t.Errorf("ReadRounds = %d, want %d (%d reads, %d fast)",
			m.ReadRounds, wantRounds, m.Reads, m.FastPathReads)
	}
	if got := r.Latency().ReadRounds.Count; got != m.Reads {
		t.Errorf("ReadRounds histogram count = %d, want %d", got, m.Reads)
	}
}

// TestFastPathStaleWatermarkForcesSlowPath: when the replicas' confirmed
// watermark lags the stored tag (a fresh write nobody has read back yet),
// the fast path must NOT fire — the read pays the write-back, which is what
// makes it atomic — and only the next read, now above a caught-up
// watermark, goes fast.
func TestFastPathStaleWatermarkForcesSlowPath(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 72})
	w := c.client()
	r := c.client()
	ctx := shortCtx(t)

	// Two writes: the second write's query gossips the FIRST write's
	// confirmation, so after it the replicas hold tag2 but conf=tag1 — a
	// genuinely stale watermark, one tag behind the stored state.
	mustWrite(t, ctx, w, "x", "v1")
	mustWrite(t, ctx, w, "x", "v2")
	time.Sleep(10 * time.Millisecond)

	if got := mustRead(t, ctx, r, "x"); got != "v2" {
		t.Fatalf("read %q, want v2", got)
	}
	m := r.Metrics()
	if m.FastPathReads != 0 {
		t.Fatalf("fast path fired against a stale watermark (FastPathReads=%d)", m.FastPathReads)
	}
	if m.WriteBacks != 1 {
		t.Fatalf("slow read ran %d write-backs, want 1", m.WriteBacks)
	}

	// That write-back confirmed tag2 and the next query gossips it: now fast.
	if got := mustRead(t, ctx, r, "x"); got != "v2" {
		t.Fatalf("second read %q, want v2", got)
	}
	if m := r.Metrics(); m.FastPathReads != 1 {
		t.Errorf("second read did not take the fast path: %+v", m)
	}
}

// TestFastPathUnderWriteContention: interleaved writes and reads. Every
// read must return the latest completed write's value or a concurrent one,
// and the fast path must get hits between tag changes without ever serving
// a stale value after a tag was confirmed.
func TestFastPathUnderWriteContention(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 73, MinDelay: 50 * time.Microsecond, MaxDelay: 300 * time.Microsecond})
	w := c.client(WithSingleWriter())
	r := c.client()
	ctx := shortCtx(t)

	for i := 0; i < 20; i++ {
		val := strings.Repeat("x", i+1) // distinguishable lengths
		mustWrite(t, ctx, w, "reg", val)
		// Two reads per write: the first may pay the write-back for the new
		// tag, the second should ride the watermark it just confirmed.
		for j := 0; j < 2; j++ {
			got := mustRead(t, ctx, r, "reg")
			if len(got) != i+1 {
				t.Fatalf("write %d read %d: got len %d, want %d (read went backwards)",
					i, j, len(got), i+1)
			}
		}
	}
	m := r.Metrics()
	if m.FastPathReads == 0 {
		t.Error("no fast-path hits across 20 write/read-read cycles")
	}
	t.Logf("reads=%d fast=%d rounds=%d", m.Reads, m.FastPathReads, m.ReadRounds)
}

// TestFastPathWithCoalescing: the fast path and read coalescing compose —
// concurrent reads share rounds, the leader's round can complete fast, and
// everyone still sees the written value.
func TestFastPathWithCoalescing(t *testing.T) {
	c := newTestCluster(t, 5, netsim.Config{Seed: 74, MinDelay: 100 * time.Microsecond, MaxDelay: 400 * time.Microsecond})
	w := c.client(WithSingleWriter())
	r := c.client() // coalescing and fast path both default on
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "x", "v")
	if got := mustRead(t, ctx, r, "x"); got != "v" { // confirm the tag
		t.Fatalf("priming read %q", got)
	}

	const readers, rounds = 8, 5
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, readers)
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := r.Read(ctx, "x")
				if err != nil {
					errs <- err
				} else if string(v) != "v" {
					errs <- fmt.Errorf("read %q, want %q", v, "v")
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	m := r.Metrics()
	if m.CoalescedReads == 0 {
		t.Error("concurrent reads never coalesced")
	}
	if m.FastPathReads == 0 {
		t.Error("no coalesced round completed via the fast path")
	}
	// Adopters count as reads but pay no rounds of their own; the leader's
	// rounds are what ReadRounds tracks. Sanity: rounds <= 2*led rounds.
	led := m.Reads - m.CoalescedReads
	if m.ReadRounds > 2*led {
		t.Errorf("ReadRounds=%d exceeds 2x led reads %d", m.ReadRounds, led)
	}
}

// TestFastPathByzantineLyingWatermark: a fabricating replica claims its
// forged tag is quorum-confirmed. The Byzantine client must neither adopt
// the value nor let the forged watermark skip validation: every read
// returns the honest value. A lying replica can suppress fast-path hits,
// never mint one above honest state.
func TestFastPathByzantineLyingWatermark(t *testing.T) {
	const n, f = 5, 1
	c := newByzCluster(t, n, 2, ByzFabricate)
	w := c.client(WithByzantine(f), WithSingleWriter())
	r := c.client(WithByzantine(f))
	ctx := shortCtx(t)

	mustWrite(t, ctx, w, "x", "genuine")
	for i := 0; i < 10; i++ {
		if got := mustRead(t, ctx, r, "x"); got != "genuine" {
			t.Fatalf("read %d adopted the lie: %q", i, got)
		}
	}
	m := r.Metrics()
	t.Logf("byzantine reads=%d fast=%d rejects=%d", m.Reads, m.FastPathReads, m.ByzRejects)
	// The fast path may legitimately fire once honest replicas' watermarks
	// catch up (f+1 honest claims), but a hit must never have ridden the
	// liar's claim alone — which the honest values above already prove.
}

// TestFastPathMaskingWatermarkBar: under WithByzantine(f) the watermark is
// the (f+1)-th largest claim. With only the liar claiming an enormous conf, the
// client's watermark must stay at the honest level.
func TestFastPathMaskingWatermarkBar(t *testing.T) {
	const n, f = 5, 1
	c := newByzCluster(t, n, 0, ByzFabricate)
	r := c.client(WithByzantine(f))
	ctx := shortCtx(t)

	w := c.client(WithByzantine(f), WithSingleWriter())
	mustWrite(t, ctx, w, "x", "honest")
	// Prime: slow read confirms the honest tag.
	if got := mustRead(t, ctx, r, "x"); got != "honest" {
		t.Fatalf("read %q", got)
	}
	for i := 0; i < 5; i++ {
		if got := mustRead(t, ctx, r, "x"); got != "honest" {
			t.Fatalf("read %d: %q", i, got)
		}
	}
	// The client's own confirmed watermark must be an honest tag (writer =
	// the honest writer's node id, not the liar's, and a small Seq).
	wm := r.confirmedTag("x")
	if !wm.Valid {
		t.Fatal("no watermark confirmed after repeated reads")
	}
	if wm.TS.Seq >= 1<<40 {
		t.Fatalf("watermark adopted the fabricated claim: %+v", wm)
	}
}

// TestReadModeValidation pins the consolidated option surface: the
// defaults, the reporting accessor, and every rejected combination.
func TestReadModeValidation(t *testing.T) {
	c := newTestCluster(t, 3, netsim.Config{Seed: 75})

	// Defaults.
	if got, want := c.client().ReadMode(), DefaultReadMode(); got != want {
		t.Errorf("default ReadMode %+v, want %+v", got, want)
	}

	newCli := func(opts ...ClientOption) error {
		id := c.nextCli
		c.nextCli++
		cli, err := NewClient(id, c.net.Node(id), c.ids, opts...)
		if err == nil {
			cli.Close()
		}
		return err
	}

	// Rejected combinations: explicit fast path or unanimity skip without a
	// write-back to skip, and fast path under bounded labels.
	for name, opts := range map[string][]ClientOption{
		"FastRead+NoWriteBack":       {WithReadMode(DefaultReadMode()), WithUnsafeNoWriteBack()},
		"SkipUnanimous+NoWriteBack":  {WithSkipUnanimousWriteBack(), WithUnsafeNoWriteBack()},
		"FastRead+Bounded":           {WithReadMode(DefaultReadMode()), WithBoundedLabels(16)},
		"ReadMode fast no-writeback": {WithReadMode(ReadMode{FastRead: true, Coalesce: true})},
		"ReadMode skip no-writeback": {WithReadMode(ReadMode{SkipUnanimous: true})},
	} {
		if err := newCli(opts...); err == nil {
			t.Errorf("%s: NewClient accepted an invalid combination", name)
		}
	}

	// Silent adjustments: the *default* fast path yields to modes that
	// preclude it, without an error, and ReadMode reports the effective set.
	cli := c.client(WithUnsafeNoWriteBack())
	if m := cli.ReadMode(); m.FastRead || m.WriteBack {
		t.Errorf("no-write-back mode reports %+v, want fast path and write-back off", m)
	}
	cli = c.client(WithBoundedLabels(16))
	if m := cli.ReadMode(); m.FastRead {
		t.Errorf("bounded mode reports %+v, want fast path off", m)
	}

	// WithReadMode installs the whole profile.
	cli = c.client(WithReadMode(ReadMode{WriteBack: true, SkipUnanimous: true}))
	want := ReadMode{FastRead: false, SkipUnanimous: true, Coalesce: false, WriteBack: true}
	if m := cli.ReadMode(); m != want {
		t.Errorf("WithReadMode effective %+v, want %+v", m, want)
	}
}
