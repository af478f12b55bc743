package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// counts returns the window's attempted and failed operations. In the open
// loop, arrivals that came due but were never issued are attempted and
// failed.
func (r *loadRun) counts() (attempted, failed int64) {
	for _, o := range r.ops {
		attempted++
		if o.failed {
			failed++
		}
	}
	return attempted, failed
}

// latencies returns the latencies, from their due times, of the successful
// ops due in [from, to), split by kind.
func (r *loadRun) latencies(from, to time.Time) (reads, writes []time.Duration) {
	for _, o := range r.ops {
		if o.failed || o.due.Before(from) || !o.due.Before(to) {
			continue
		}
		if o.read {
			reads = append(reads, o.done.Sub(o.due))
		} else {
			writes = append(writes, o.done.Sub(o.due))
		}
	}
	return reads, writes
}

// endToEnd computes the user-facing metrics. The window is cut into
// slices of equal length and each metric is the median of its values over
// the quiet slices (see quietSlices), so a few seconds disturbed by another
// tenant of the machine do not move the result. The p99s are computed the
// same way but only reported: on a shared machine they move between runs of
// the same code by more than any bound the benchmark can set (README.md).
func endToEnd(setups []time.Duration, r *loadRun) (gated, info []entry) {
	names := []string{"ops_per_s", "read_p50_us", "read_p95_us", "write_p50_us", "write_p95_us", "read_p99_us", "write_p99_us"}
	units := []string{"1/s", "us", "us", "us", "us", "us", "us"}
	per := make([][]float64, len(names))
	steal := make([]float64, slices)
	var nReads, nWrites int
	width := r.end.Sub(r.start) / slices
	for i := range steal {
		from := r.start.Add(time.Duration(i) * width)
		steal[i] = 100 * stealShare(r.cpu, from, from.Add(width))
		reads, writes := r.latencies(from, from.Add(width))
		nReads += len(reads)
		nWrites += len(writes)
		vals := []float64{
			float64(len(reads)+len(writes)) / width.Seconds(),
			us(percentile(reads, 0.50)), us(percentile(reads, 0.95)),
			us(percentile(writes, 0.50)), us(percentile(writes, 0.95)),
			us(percentile(reads, 0.99)), us(percentile(writes, 0.99)),
		}
		for j, v := range vals {
			per[j] = append(per[j], v)
		}
	}
	keep := quietSlices(steal)
	fmt.Printf("# %s slices: steal %% %.2f, quiet %v\n", width, steal, keep)
	gated = []entry{{"setup_s", "s", median(setups).Seconds(), fmt.Sprintf("median of %d set-ups", len(setups))}}
	counts := []int{nReads + nWrites, nReads, nReads, nWrites, nWrites, nReads, nWrites}
	for j, name := range names {
		var kept []float64
		for _, i := range keep {
			kept = append(kept, per[j][i])
		}
		e := entry{name, units[j], medianF(kept),
			fmt.Sprintf("median of %d quiet slices of %.0f, n=%d", len(kept), per[j], counts[j])}
		if strings.HasSuffix(name, "_p99_us") {
			info = append(info, e)
		} else {
			gated = append(gated, e)
		}
	}
	return gated, info
}

// quietSlices returns the indexes of the slices whose machine steal time is
// at most stealLimitPct, or, when fewer than a third are, the third with the
// least steal. Steal is CPU time the hypervisor gave another tenant while
// the benchmark's virtual machine wanted to run; latency measured through
// it reflects the neighbour, not the program.
func quietSlices(steal []float64) []int {
	order := make([]int, len(steal))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	n := (len(steal) + 2) / 3
	for n < len(order) && steal[order[n]] <= stealLimitPct {
		n++
	}
	keep := order[:n]
	sort.Ints(keep)
	return keep
}

func medianF(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio guards a quotient of counters; an empty denominator reads as 0.
func ratio(name, unit string, num, den float64, numName, denName string) entry {
	v := 0.0
	if den != 0 {
		v = num / den
	}
	return entry{name, unit, v, fmt.Sprintf("%s %.6g / %s %.6g", numName, num, denName, den)}
}

// layers computes the per-layer metrics of one untraced window from the
// deltas of the counters bracketing it.
func layers(wl workload, r *loadRun, v verdict) []entry {
	b, a := r.before, r.after
	reads := float64(a.client.Reads - b.client.Reads)
	writes := float64(a.client.Writes - b.client.Writes)
	ops := reads + writes
	coalesced := float64(a.client.CoalescedReads - b.client.CoalescedReads)
	ownReads := reads - coalesced // reads that ran quorum rounds of their own
	d := func(x, y int64) float64 { return float64(x - y) }
	phaseQ := histDelta(a.lat.PhaseQuery, b.lat.PhaseQuery)
	phaseU := histDelta(a.lat.PhaseUpdate, b.lat.PhaseUpdate)
	flush := histDelta(a.flush, b.flush)
	send := histDelta(a.sendCall, b.sendCall)
	updates := d(a.replica.Updates, b.replica.Updates)
	fsyncs := d(a.replica.Fsyncs, b.replica.Fsyncs)
	user, sys := a.proc.user-b.proc.user, a.proc.sys-b.proc.sys
	cpu := float64(user + sys)
	losses := d(a.tcp.QueueDrops, b.tcp.QueueDrops) + d(a.tcp.WriteFailures, b.tcp.WriteFailures) +
		d(a.tcp.SuppressedSends, b.tcp.SuppressedSends)
	attempted, failed := r.counts()
	lateNote := "issue - due"
	if !wl.open {
		lateNote = "previous completion -> next issue"
	}
	return []entry{
		ratio("client.read_rounds_per_read", "rounds/read", d(a.client.ReadRounds, b.client.ReadRounds), ownReads, "rounds", "own-round reads"),
		ratio("client.fast_path_ratio", "ratio", d(a.client.FastPathReads, b.client.FastPathReads), ownReads, "fast", "own-round reads"),
		ratio("client.coalesced_read_ratio", "ratio", coalesced, reads, "coalesced", "reads"),
		ratio("client.absorbed_write_ratio", "ratio", d(a.client.AbsorbedWrites, b.client.AbsorbedWrites), writes, "absorbed", "writes"),
		ratio("client.msgs_per_op", "msgs/op", d(a.client.MsgsSent, b.client.MsgsSent), ops, "msgs", "ops"),
		ratio("client.stragglers_per_op", "msgs/op", d(a.client.Stragglers, b.client.Stragglers), ops, "stragglers", "ops"),
		ratio("client.retransmits_per_op", "msgs/op", d(a.client.Retransmits, b.client.Retransmits), ops, "retransmits", "ops"),
		{"client.phase_query_p50_us", "us", us(phaseQ.Quantile(0.5)), fmt.Sprintf("n=%d", phaseQ.Count)},
		{"client.phase_update_p50_us", "us", us(phaseU.Quantile(0.5)), fmt.Sprintf("n=%d", phaseU.Count)},
		{"tcpnet.send_call_p50_ns", "ns", float64(send.Quantile(0.5)), fmt.Sprintf("n=%d", send.Count)},
		{"tcpnet.flush_p50_us", "us", us(flush.Quantile(0.5)), fmt.Sprintf("n=%d", flush.Count)},
		ratio("tcpnet.payloads_per_flush", "msgs/flush", d(a.tcp.FramesSent, b.tcp.FramesSent), d(a.tcp.Flushes, b.tcp.Flushes), "payloads", "flushes"),
		ratio("tcpnet.wire_bytes_per_op", "B/op", d(a.tcp.BytesSent, b.tcp.BytesSent), ops, "bytes", "ops"),
		{"tcpnet.losses", "count", losses, "queue drops + write failures + suppressed sends"},
		ratio("wire.payload_bytes_per_msg", "B/msg", d(a.sendB, b.sendB), d(a.sendMsgs, b.sendMsgs), "bytes", "payloads"),
		ratio("replica.requests_per_op", "req/op", d(a.replica.Queries, b.replica.Queries)+updates, ops, "requests", "ops"),
		ratio("replica.updates_per_batch", "upd/batch", updates, d(a.replica.Batches, b.replica.Batches), "updates", "batches"),
		ratio("replica.stale_reject_ratio", "ratio", d(a.replica.StaleRejects, b.replica.StaleRejects), updates, "stale", "updates"),
		ratio("wal.fsyncs_per_op", "fsyncs/op", fsyncs, ops, "fsyncs", "ops"),
		ratio("wal.fsyncs_per_update", "fsyncs/upd", fsyncs, updates, "fsyncs", "updates"),
		ratio("process.cpu_us_per_op", "us/op", cpu/float64(time.Microsecond), ops, "cpu us", "ops"),
		ratio("process.sys_cpu_share", "ratio", float64(sys), cpu, "sys ns", "cpu ns"),
		ratio("process.allocs_per_op", "allocs/op", float64(a.proc.allocs-b.proc.allocs), ops, "allocs", "ops"),
		ratio("process.alloc_bytes_per_op", "B/op", float64(a.proc.allocB-b.proc.allocB), ops, "bytes", "ops"),
		ratio("process.gc_cpu_share", "ratio", a.proc.gcCPU-b.proc.gcCPU, a.proc.totalCPU-b.proc.totalCPU, "gc cpu-s", "runtime cpu-s"),
		{"process.sched_latency_p99_us", "us", us(schedP99(a.proc.schedLat, b.proc.schedLat)), "runtime/metrics /sched/latencies"},
		{"loadgen.late_p99_us", "us", us(percentile(r.late, 0.99)), fmt.Sprintf("%s, n=%d", lateNote, len(r.late))},
		{"loadgen.inflight_max", "count", float64(r.inflightMax), "max concurrent ops in the window"},
		ratio("error_rate", "ratio", float64(failed), float64(attempted), "failed", "attempted"),
		{"env.steal_pct", "%", 100 * stealShare(r.cpu, r.start, r.end), "machine CPU time the hypervisor gave other tenants"},
		{"lincheck.unknown_registers", "count", float64(v.unknown), fmt.Sprintf("of %d registers checked", v.registers)},
	}
}

// traceEntries turns the traced run's critical-path intervals into
// metrics; overhead compares its op latency with the untraced run's.
func traceEntries(tr traceStats, u, t *loadRun) []entry {
	p := func(name string, ds []time.Duration, q float64) entry {
		return entry{name, "us", us(percentile(ds, q)), fmt.Sprintf("n=%d", len(ds))}
	}
	ur, uw := u.latencies(u.start, u.end)
	tr2, tw := t.latencies(t.start, t.end)
	uAll := append(ur, uw...)
	tAll := append(tr2, tw...)
	return []entry{
		p("trace.client_self_p50_us", tr.clientSelf, 0.5),
		p("trace.send_queue_p50_us", tr.sendQueue, 0.5),
		p("trace.network_p50_us", tr.network, 0.5),
		p("trace.replica_queue_p50_us", tr.replicaQueue, 0.5),
		p("trace.handle_query_p50_us", tr.handleQuery, 0.5),
		p("trace.handle_update_self_p50_us", tr.handleUpdateSelf, 0.5),
		p("trace.wal_append_p50_us", tr.walAppend, 0.5),
		p("trace.wal_append_p99_us", tr.walAppend, 0.99),
		ratio("trace.overhead_ratio", "ratio", us(median(tAll)), us(median(uAll)), "traced op p50 us", "untraced op p50 us"),
		ratio("trace.stitch_ratio", "ratio", float64(tr.stitch.Stitched), float64(tr.stitch.Total), "stitched", "remote spans"),
		{"trace.spans_dropped", "count", float64(tr.dropped), fmt.Sprintf("%d traced ops analyzed", tr.ops)},
	}
}
