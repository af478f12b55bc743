// Command perfbench is the repository's end-to-end benchmark. Every run
// builds the real stack in-process from public constructors — five
// persistent replicas whose WALs fsync on the local disk, loopback tcpnet
// sockets, two default multi-writer clients — drives one seeded workload
// against it, checks every read, and prints one JSON result line last.
//
//	bash perfbench/run.sh --workload read-mostly --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics: counter deltas from an untraced run plus
// critical-path times from a second, traced run. README.md maps every
// metric to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

const (
	// setupRounds clusters are set up per end-to-end run; setup_s is their
	// median and the last one is measured.
	setupRounds = 7
	// slices is how many equal parts of the window end-to-end metrics are
	// computed on before taking their median over the quiet ones; a slice
	// is quiet when at most stealLimitPct of the machine's CPU time was
	// stolen.
	slices        = 15
	stealLimitPct = 0.5
	// spanBudget ends the traced window early once this many spans are
	// collected; the collector holds spanCap, leaving room for the spans of
	// operations still in flight, so drops mean the budget is mis-sized.
	spanBudget = 120_000
	spanCap    = 200_000
	// maxProcs caps GOMAXPROCS at the core count the workloads were sized
	// on (the open-loop rate is about a third of closed-loop capacity at
	// two cores), so larger machines run the same experiment.
	maxProcs = 2
	// runLimit kills a run that would overrun the benchmark's time limit.
	runLimit = 170 * time.Second
	// workDir is where runs keep WALs and traces, inside the checkout.
	workDir = ".bench_build"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed for keys, op mix and arrival times")
		seconds = flag.Int("seconds", 15, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (adds a traced run)")
	)
	flag.Parse()
	wl, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s\n", runLimit)
		os.Exit(1)
	})
	if runtime.NumCPU() > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	res, err := run(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var out []string
	for _, wl := range workloads {
		out = append(out, wl.name)
	}
	return out
}

func lookup(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(wl workload, seed int64, win time.Duration, traced bool) (result, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return result{}, err
	}
	root, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)
	fmt.Printf("# workload=%s seed=%d window=%s trace=%v gomaxprocs=%d wal_fs=%s loop=%s\n",
		wl.name, seed, win, traced, runtime.GOMAXPROCS(0), fsType(root), loopKind(wl))

	if !traced {
		var setups []time.Duration
		var s *rig
		for i := 0; i < setupRounds; i++ {
			cur, d, err := newRig(filepath.Join(root, fmt.Sprintf("setup-%d", i)), nil)
			if err != nil {
				return result{}, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, d)
			if i < setupRounds-1 {
				cur.close()
			} else {
				s = cur
			}
		}
		u := s.drive(wl, seed, win, nil, nil)
		s.close()
		v := s.check()
		fmt.Printf("# setups=%v\n# check: %s\n", setups, v)
		e, tails := endToEnd(setups, u)
		l := layers(wl, u, v)
		printEntries("end-to-end", e)
		printEntries("tails (reported, not bounded)", tails)
		printEntries("per-layer (counter deltas)", l)
		return output(e, []*loadRun{u}, v), nil
	}

	// Per-layer: counters from an untraced run, spans from a traced one.
	s, _, err := newRig(filepath.Join(root, "untraced"), nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	half := win / 2
	if half < time.Second {
		half = time.Second
	}
	u := s.drive(wl, seed, half, nil, nil)
	s.close()
	uv := s.check()
	fmt.Printf("# untraced check: %s\n", uv)

	gate := &gatedTracer{col: obs.NewCollector(spanCap)}
	ts, _, err := newRig(filepath.Join(root, "traced"), gate)
	if err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	t := ts.drive(wl, seed, half, gate, func() bool { return gate.col.Len() >= spanBudget })
	ts.close()
	tv := ts.check()
	fmt.Printf("# traced check: %s\n", tv)
	spans := gate.col.Spans()
	tracePath := filepath.Join(workDir, "trace-"+wl.name+".jsonl")
	if err := writeSpans(tracePath, spans); err != nil {
		return result{}, err
	}
	tr := analyzeTrace(spans, gate.col.Dropped(), t.start)
	fmt.Printf("# traced window %s, %d spans written to %s\n", t.end.Sub(t.start), len(spans), tracePath)

	v := uv
	v.foreign += tv.foreign
	v.notLin = append(v.notLin, tv.notLin...)
	v.unknown += tv.unknown
	l := append(layers(wl, u, v), traceEntries(tr, u, t)...)
	printEntries("per-layer", l)
	return output(l, []*loadRun{u, t}, v), nil
}

// output builds the result line: correct is the verdict of every rig,
// attempted/failed cover every measured window.
func output(entries []entry, runs []*loadRun, v verdict) result {
	res := result{Correct: v.ok(), Metrics: make(map[string]metric, len(entries))}
	for _, r := range runs {
		a, f := r.counts()
		res.Attempted += a
		res.Failed += f
	}
	for _, e := range entries {
		res.Metrics[e.name] = metric{Value: e.value, Unit: e.unit}
	}
	return res
}

// entry is one printed metric; note carries a ratio's numerator and
// denominator or a percentile's sample count.
type entry struct {
	name, unit string
	value      float64
	note       string
}

func printEntries(title string, es []entry) {
	fmt.Printf("# %s\n", title)
	for _, e := range es {
		fmt.Printf("#   %-32s %14.4f %-12s %s\n", e.name, e.value, e.unit, e.note)
	}
}

func loopKind(wl workload) string {
	if wl.open {
		return fmt.Sprintf("open(poisson %.0f/s)", wl.rate)
	}
	return fmt.Sprintf("closed(%dx%d outstanding)", numClients, wl.outstanding)
}

// fsType names the filesystem holding dir, so a run on tmpfs (no real
// fsync) is visible in its output.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }
