package main

import (
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tcpnet"
)

// snapshot is every public counter of the stack plus the process's own
// resource counters at one instant. Counters are cumulative from
// construction, so per-layer metrics are always deltas between the two
// snapshots bracketing a measurement window; the preload and warm-up never
// leak into them.
type snapshot struct {
	client   core.MetricsSnapshot
	lat      core.LatencySnapshot
	replica  core.ReplicaMetrics
	tcp      tcpnet.Stats
	flush    obs.HistSnapshot
	sendCall obs.HistSnapshot
	sendMsgs int64
	sendB    int64
	proc     procSample
}

func (s *rig) snapshot() snapshot {
	var out snapshot
	for _, c := range s.clients {
		out.client = out.client.Merge(c.Metrics())
		out.lat = out.lat.Merge(c.Latency())
	}
	for _, r := range s.replicas {
		m := r.ReplicaMetrics()
		out.replica.Queries += m.Queries
		out.replica.Updates += m.Updates
		out.replica.Adoptions += m.Adoptions
		out.replica.StaleRejects += m.StaleRejects
		out.replica.Batches += m.Batches
		out.replica.Fsyncs += m.Fsyncs
	}
	for i, ep := range s.tcp {
		st := ep.Stats()
		out.tcp.FramesSent += st.FramesSent
		out.tcp.BytesSent += st.BytesSent
		out.tcp.Flushes += st.Flushes
		out.tcp.QueueDrops += st.QueueDrops
		out.tcp.WriteFailures += st.WriteFailures
		out.tcp.SuppressedSends += st.SuppressedSends
		out.flush = out.flush.Merge(ep.FlushLatency())
		w := s.wrapped[i]
		out.sendCall = out.sendCall.Merge(w.calls.Snapshot())
		out.sendMsgs += w.msgs.Load()
		out.sendB += w.bytes.Load()
	}
	out.proc = sampleProc()
	return out
}

// histDelta is the histogram of observations recorded between two
// snapshots of the same histograms.
func histDelta(after, before obs.HistSnapshot) obs.HistSnapshot {
	d := obs.HistSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum,
		Max: after.Max, Buckets: make([]int64, len(after.Buckets))}
	for i := range after.Buckets {
		d.Buckets[i] = after.Buckets[i]
		if i < len(before.Buckets) {
			d.Buckets[i] -= before.Buckets[i]
		}
	}
	return d
}

// procSample is the process's CPU and runtime counters, read from outside
// the program through getrusage and runtime/metrics.
type procSample struct {
	user, sys       time.Duration
	allocs, allocB  uint64
	gcCPU, totalCPU float64
	schedLat        *metrics.Float64Histogram
}

var procKeys = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := make([]metrics.Sample, len(procKeys))
	for i, k := range procKeys {
		ms[i].Name = k
	}
	metrics.Read(ms)
	p := procSample{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
	for _, m := range ms {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			if m.Name == procKeys[0] {
				p.allocs = m.Value.Uint64()
			} else {
				p.allocB = m.Value.Uint64()
			}
		case metrics.KindFloat64:
			if m.Name == procKeys[2] {
				p.gcCPU = m.Value.Float64()
			} else {
				p.totalCPU = m.Value.Float64()
			}
		case metrics.KindFloat64Histogram:
			h := m.Value.Float64Histogram()
			p.schedLat = &metrics.Float64Histogram{
				Counts:  append([]uint64(nil), h.Counts...),
				Buckets: h.Buckets,
			}
		}
	}
	return p
}

// schedP99 returns the 99th percentile of goroutine scheduling latency
// between two samples, as the upper edge of the bucket holding it.
func schedP99(after, before *metrics.Float64Histogram) time.Duration {
	if after == nil || before == nil {
		return 0
	}
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(float64(total) * 0.99)
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum > rank {
			edge := after.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = after.Buckets[i]
			}
			return time.Duration(edge * float64(time.Second))
		}
	}
	return 0
}

// cpuTimes is the machine-wide CPU time split from /proc/stat, in clock
// ticks: steal is time the virtual machine wanted to run but the
// hypervisor ran another tenant.
type cpuTimes struct {
	at           time.Time
	steal, total uint64
}

func readCPUTimes() cpuTimes {
	c := cpuTimes{at: time.Now()}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return c
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, _ := strconv.ParseUint(v, 10, 64)
		c.total += n
		if i == 7 {
			c.steal = n
		}
	}
	return c
}

// stealShare is the share of machine CPU time stolen by the hypervisor
// between the samples nearest to from and to.
func stealShare(samples []cpuTimes, from, to time.Time) float64 {
	if len(samples) < 2 {
		return 0
	}
	nearest := func(t time.Time) cpuTimes {
		best := samples[0]
		for _, s := range samples[1:] {
			if s.at.Sub(t).Abs() < best.at.Sub(t).Abs() {
				best = s
			}
		}
		return best
	}
	a, b := nearest(from), nearest(to)
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
