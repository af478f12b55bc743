package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/types"
)

// FPFastPath measures what the confirmed-watermark fast path (DESIGN.md
// §10) buys on the read path, against the paper's two-phase read and
// against the unanimity skip it subsumes. The same workload runs three
// times on a 5-node cluster with random per-message delays and a little
// loss (so replicas genuinely lag each other between retransmissions): a
// single writer keeps dirtying two hot registers for the whole run while
// eight reader clients — four pinned to each register — read in a closed
// loop. Passes:
//
//   - two-phase: the paper's read, write-back always (WithoutFastRead);
//   - skip-unanimous: skip the write-back when the read quorum's replies
//     are tag-unanimous — great in a uniform lossless network, but one
//     lagging quorum member (loss, delay skew) forces the second round;
//   - fast-path: the default mode — the first read after a write pays the
//     write-back and confirms the tag, every later read of that tag rides
//     the piggybacked watermark in one round, laggards and all.
//
// Reported per pass: completed reads, reads/sec, p50/p99 read latency,
// fast-path hits, and write-backs skipped. The report's speedup is the
// two-phase p50 over the fast-path p50 (the committed BENCH_fastpath.json
// pins >= 1.5x, with a >= 50% hit rate, in CI via abd-prof bench-diff).
func FPFastPath(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "FP",
		Title:   "confirmed-watermark fast-path reads under write contention",
		Claim:   "a confirmed watermark makes repeat reads one round trip (vs 2) without losing atomicity, and keeps doing it when quorum members lag",
		Headers: []string{"mode", "reads", "reads/sec", "p50", "p99", "fast hits", "hit rate", "wb skipped"},
	}

	const (
		nodes   = 5
		readers = 8
		nregs   = 2
	)
	dur := time.Duration(o.scale(int(1500*time.Millisecond), int(300*time.Millisecond)))

	report := fastpathReport{
		Nodes: nodes, Readers: readers, Writers: 1,
		Registers: nregs, DurationMS: dur.Milliseconds(),
	}
	report.stamp(schemaFastpath, o)

	passes := []struct {
		name string
		opts []core.ClientOption
	}{
		{"two-phase", []core.ClientOption{core.WithoutFastRead()}},
		{"skip-unanimous", []core.ClientOption{core.WithoutFastRead(), core.WithSkipUnanimousWriteBack()}},
		{"fast-path", nil},
	}
	for _, p := range passes {
		pass, err := runFastpathPass(o, p.opts, nodes, readers, nregs, dur)
		if err != nil {
			return nil, fmt.Errorf("pass %s: %w", p.name, err)
		}
		pass.Name = p.name
		report.Passes = append(report.Passes, pass)
		tbl.AddRow(p.name,
			fmt.Sprint(pass.Reads),
			fmt.Sprintf("%.0f", pass.OpsPerSec),
			us(time.Duration(pass.P50US*1e3)),
			us(time.Duration(pass.P99US*1e3)),
			fmt.Sprint(pass.FastPathReads),
			fmt.Sprintf("%.0f%%", 100*pass.FastHitRate),
			fmt.Sprint(pass.WriteBacksSkipped),
		)
	}

	base, fast := report.Passes[0], report.Passes[2]
	report.Speedup = base.P50US / fast.P50US
	report.FastHitRate = fast.FastHitRate
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("fast-path p50 speedup: %.2fx over the two-phase read at a %.0f%% hit rate (%d writes landed during the fast pass)",
			report.Speedup, 100*report.FastHitRate, fast.Writes),
		"one writer streams writes the whole run: every tag change costs one slow read, then the watermark carries the rest",
	)

	if err := writeBenchJSON(o, tbl, report); err != nil {
		return nil, err
	}
	return tbl, nil
}

// fastpathReport is the machine-readable output (BENCH_fastpath.json).
type fastpathReport struct {
	benchEnvelope
	Nodes       int            `json:"nodes"`
	Readers     int            `json:"readers"`
	Writers     int            `json:"writers"`
	Registers   int            `json:"registers"`
	DurationMS  int64          `json:"duration_ms"`
	Passes      []fastpathPass `json:"passes"`
	Speedup     float64        `json:"speedup"`       // two-phase p50 / fast-path p50
	FastHitRate float64        `json:"fast_hit_rate"` // of the fast-path pass
}

type fastpathPass struct {
	Name              string  `json:"name"`
	Reads             int64   `json:"reads"`
	Writes            int64   `json:"writes"` // contention landed during the pass
	OpsPerSec         float64 `json:"ops_per_sec"`
	P50US             float64 `json:"p50_us"`
	P99US             float64 `json:"p99_us"`
	FastPathReads     int64   `json:"fast_path_reads"`
	FastHitRate       float64 `json:"fast_hit_rate"`
	WriteBacksSkipped int64   `json:"write_backs_skipped"`
	ReadRounds        int64   `json:"read_rounds"`
}

func runFastpathPass(o Options, opts []core.ClientOption, nodes, readers, nregs int, dur time.Duration) (fastpathPass, error) {
	var pass fastpathPass

	// Delays make round trips the cost that matters: a two-phase read pays
	// two of them, a fast read one. The few percent of loss keeps replicas
	// honestly out of sync between retransmissions, which is what splits
	// the watermark fast path from the unanimity skip: a laggard inside the
	// read quorum breaks tag-unanimity but not quorum confirmation.
	net := netsim.New(netsim.Config{
		Seed:     o.seed(),
		MinDelay: 200 * time.Microsecond,
		MaxDelay: 600 * time.Microsecond,
	})
	defer net.Close()
	net.SetDefaultFaults(chaos.Faults{Drop: 0.03})

	ids := make([]types.NodeID, 0, nodes)
	reps := make([]*core.Replica, 0, nodes)
	for i := 0; i < nodes; i++ {
		id := types.NodeID(i)
		r := core.NewReplica(id, net.Node(id))
		r.Start()
		reps = append(reps, r)
		ids = append(ids, id)
	}
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
	}()

	regs := make([]string, nregs)
	for i := range regs {
		regs[i] = fmt.Sprintf("hot%d", i)
	}

	ctx, cancel := context.WithTimeout(context.Background(), dur+10*time.Second)
	defer cancel()

	// The contention source: one single-writer client writing round-robin
	// over the hot registers for the whole pass, paced a few milliseconds
	// apart. The pacing matters: a writer in a zero-gap loop replaces the
	// tag every round trip, so every read lands on a watermark that can't
	// have caught up yet and the fast path never gets a window — which
	// measures saturation, not contention. A paced stream still dirties
	// each register ~100 times a second; each tag change costs the fast
	// pass one slow read before the watermark carries the rest of the
	// window.
	const writePace = 5 * time.Millisecond
	w, err := core.NewClient(types.NodeID(20000), net.Node(types.NodeID(20000)), ids, core.WithSingleWriter())
	if err != nil {
		return pass, err
	}
	defer w.Close()
	var stop atomic.Bool
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; !stop.Load(); i++ {
			if err := w.Write(ctx, regs[i%len(regs)], []byte(fmt.Sprintf("v%d", i))); err != nil {
				return
			}
			time.Sleep(writePace)
		}
	}()

	// Eight independent reader clients (no cross-reader coalescing: each
	// latency sample is a full protocol read of its own).
	cls := make([]*core.Client, 0, readers)
	for i := 0; i < readers; i++ {
		id := types.NodeID(21000 + i)
		cli, err := core.NewClient(id, net.Node(id), ids, opts...)
		if err != nil {
			return pass, err
		}
		cls = append(cls, cli)
	}
	defer func() {
		for _, cli := range cls {
			cli.Close()
		}
	}()

	lat := make([][]time.Duration, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cli := cls[r]
			// Pinned, not round-robin: re-reading the register you just
			// confirmed is exactly the access pattern the watermark serves
			// (and the one hot keys see in practice).
			reg := regs[r%len(regs)]
			for !stop.Load() {
				start := time.Now()
				if _, err := cli.Read(ctx, reg); err != nil {
					return
				}
				lat[r] = append(lat[r], time.Since(start))
			}
		}(r)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	writerWG.Wait()

	var all []time.Duration
	for _, s := range lat {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pass.Reads = int64(len(all))
	pass.OpsPerSec = float64(len(all)) / dur.Seconds()
	pass.P50US = float64(percentile(all, 0.50).Nanoseconds()) / 1e3
	pass.P99US = float64(percentile(all, 0.99).Nanoseconds()) / 1e3
	pass.Writes = w.Metrics().Writes
	for _, cli := range cls {
		cm := cli.Metrics()
		pass.FastPathReads += cm.FastPathReads
		pass.WriteBacksSkipped += cm.WriteBacksSkipped
		pass.ReadRounds += cm.ReadRounds
	}
	if pass.Reads > 0 {
		pass.FastHitRate = float64(pass.FastPathReads) / float64(pass.Reads)
	}
	return pass, nil
}
