package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/obs"
)

const (
	// preloadRegs registers are written once during set-up, so every read
	// in a workload finds a value and every write pays the full
	// query + update path of a register that already exists.
	preloadRegs = 1024
	// preloadWorkers is the preload's concurrency per client.
	preloadWorkers = 16
	valueSize      = 64
	warmup         = 1500 * time.Millisecond
	// opDeadline bounds each operation from its intended send time; an
	// operation that misses it counts as failed.
	opDeadline = time.Second
	// maxInflight bounds the open loop's concurrently issued operations; an
	// arrival that finds the bound reached is counted as failed, never
	// queued, so the generator cannot hide a stall.
	maxInflight = 4096
	// lincheckOps is how many workload operations, counted from the end of
	// the preload, go through the linearizability checker.
	lincheckOps = 3000
)

// workload is one traffic mix. Open-loop workloads issue Poisson arrivals
// at rate regardless of completions; closed-loop ones keep outstanding
// operations in flight per client.
type workload struct {
	name        string
	open        bool
	rate        float64
	outstanding int
	readFrac    float64
	registers   int
}

// The three workloads stress different layers; README.md says why each
// exists and which per-layer metric should move on which.
var workloads = []workload{
	{name: "read-mostly", open: true, rate: 3000, readFrac: 0.95, registers: preloadRegs},
	{name: "write-heavy", outstanding: 4, readFrac: 0.10, registers: preloadRegs},
	{name: "hot-contended", outstanding: 4, readFrac: 0.50, registers: 4},
}

func regName(i int) string { return fmt.Sprintf("r%04d", i) }

// op is one generated operation.
type op struct {
	read bool
	reg  int
	cli  int
	at   time.Duration // open loop: intended send time after load start
}

func (wl workload) next(rng *rand.Rand) op {
	return op{read: rng.Float64() < wl.readFrac, reg: rng.Intn(wl.registers)}
}

// opRecord is what the load generator observed of one operation. due is the
// intended send time (open loop) or the issue time (closed loop); latency
// runs from due. late is how late the generator issued it: after due in the
// open loop, after the worker's previous completion in the closed loop.
type opRecord struct {
	read    bool
	due     time.Time
	issued  time.Time
	done    time.Time
	late    time.Duration
	failed  bool
	skipped bool // open loop: came due but was never issued
}

// valueBook gives every write a unique 64-byte value and remembers which
// register it was written to, so a read returning anything that was never
// written to its register is caught.
type valueBook struct {
	mu      sync.Mutex
	owner   map[string]int
	seq     int64
	foreign int64
	example string // the first foreign read, for the report
}

func newValueBook() *valueBook { return &valueBook{owner: make(map[string]int)} }

func (b *valueBook) newValue(reg int) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	v := []byte(fmt.Sprintf("v%012d.%s.", b.seq, regName(reg)))
	for len(v) < valueSize {
		v = append(v, 'x')
	}
	b.owner[string(v)] = reg
	return v
}

func (b *valueBook) checkRead(reg int, v []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if owner, ok := b.owner[string(v)]; !ok || owner != reg {
		b.foreign++
		if b.example == "" {
			b.example = fmt.Sprintf("read of %s returned %q", regName(reg), v)
		}
	}
}

// rig is one started cluster with its correctness bookkeeping.
type rig struct {
	*cluster
	book *valueBook
	hist *history.Recorder
}

// newRig starts a cluster and preloads every register; the returned
// duration is the set-up time (cluster start, WAL open, dials, preload).
func newRig(dir string, tracer obs.Tracer) (*rig, time.Duration, error) {
	start := time.Now()
	cl, err := startCluster(dir, tracer)
	if err != nil {
		return nil, 0, err
	}
	s := &rig{cluster: cl, book: newValueBook(), hist: history.NewRecorder()}
	var wg sync.WaitGroup
	var failures atomic.Int64
	var next atomic.Int64
	for w := 0; w < numClients*preloadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli := s.clients[w%numClients]
			for {
				reg := int(next.Add(1) - 1)
				if reg >= preloadRegs {
					return
				}
				v := s.book.newValue(reg)
				p := s.hist.BeginWriteReg(-1-w, regName(reg), v)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				err := cli.Write(ctx, regName(reg), v)
				cancel()
				if err != nil {
					p.Crash()
					failures.Add(1)
					continue
				}
				p.EndWrite()
			}
		}(w)
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		cl.close()
		return nil, 0, fmt.Errorf("preload: %d writes failed", n)
	}
	return s, time.Since(start), nil
}

// do runs one operation on client o.cli and fills rec. hc is the history's
// client id: operations sharing one never overlap.
func (s *rig) do(hc int, o op, rec *opRecord) {
	ctx, cancel := context.WithDeadline(context.Background(), rec.due.Add(opDeadline))
	defer cancel()
	reg := regName(o.reg)
	cli := s.clients[o.cli]
	rec.read = o.read
	if o.read {
		p := s.hist.BeginReadReg(hc, reg)
		rec.issued = time.Now()
		v, err := cli.Read(ctx, reg)
		rec.done = time.Now()
		if err != nil {
			p.Crash()
			rec.failed = true
			return
		}
		p.EndRead(v)
		s.book.checkRead(o.reg, v)
		return
	}
	v := s.book.newValue(o.reg)
	p := s.hist.BeginWriteReg(hc, reg, v)
	rec.issued = time.Now()
	err := cli.Write(ctx, reg, v)
	rec.done = time.Now()
	if err != nil {
		p.Crash()
		rec.failed = true
		return
	}
	p.EndWrite()
}

// loadRun is one warm-up plus measurement window of generated load.
type loadRun struct {
	start, end  time.Time // the measurement window
	ops         []opRecord
	late        []time.Duration // generator lateness of the window's issued ops
	inflightMax int64
	cpu         []cpuTimes // machine CPU times through the window, every 100ms
	before      snapshot
	after       snapshot
}

// drive applies wl to the rig for the warm-up and a window of length
// win. The window closes early when budget reports true (polled every
// 10ms); gate, when non-nil, is opened for exactly the window's ops.
func (s *rig) drive(wl workload, seed int64, win time.Duration, gate *gatedTracer, budget func() bool) *loadRun {
	begin := time.Now()
	t0 := begin.Add(warmup)
	var stopAt atomic.Int64
	stopAt.Store(t0.Add(win).UnixNano())
	var inflight, inflightMax atomic.Int64
	enter := func() {
		n := inflight.Add(1)
		for {
			m := inflightMax.Load()
			if n <= m || inflightMax.CompareAndSwap(m, n) {
				return
			}
		}
	}

	var recs [][]opRecord // per generator goroutine
	var gen sync.WaitGroup
	if wl.open {
		sched := openSchedule(wl, seed, warmup+win)
		recs = [][]opRecord{make([]opRecord, len(sched))}
		gen.Add(1)
		go func() {
			defer gen.Done()
			var ops sync.WaitGroup
			out := recs[0]
			for i, o := range sched {
				due := begin.Add(o.at)
				if due.UnixNano() >= stopAt.Load() {
					out = out[:i]
					break
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				rec := &out[i]
				rec.due, rec.read = due, o.read
				if inflight.Load() >= maxInflight {
					rec.skipped, rec.failed = true, true
					continue
				}
				enter()
				ops.Add(1)
				go func() {
					defer ops.Done()
					defer inflight.Add(-1)
					s.do(1_000_000+i, o, rec)
					rec.late = rec.issued.Sub(rec.due)
				}()
			}
			ops.Wait()
			recs[0] = out
		}()
	} else {
		workers := numClients * wl.outstanding
		recs = make([][]opRecord, workers)
		for w := 0; w < workers; w++ {
			gen.Add(1)
			go func(w int) {
				defer gen.Done()
				rng := rand.New(rand.NewSource(seed*7919 + int64(w)))
				last := time.Now()
				for {
					now := time.Now()
					if now.UnixNano() >= stopAt.Load() {
						return
					}
					o := wl.next(rng)
					o.cli = w / wl.outstanding
					rec := opRecord{due: now}
					enter()
					s.do(w, o, &rec)
					inflight.Add(-1)
					rec.late = rec.issued.Sub(last)
					last = rec.done
					recs[w] = append(recs[w], rec)
				}
			}(w)
		}
	}

	time.Sleep(time.Until(t0))
	run := &loadRun{start: t0}
	run.before = s.snapshot()
	if gate != nil {
		gate.open.Store(true)
	}
	inflightMax.Store(inflight.Load())
	run.cpu = append(run.cpu, readCPUTimes())
	for time.Now().UnixNano() < stopAt.Load() {
		if budget != nil && budget() {
			stopAt.Store(time.Now().UnixNano())
			break
		}
		time.Sleep(10 * time.Millisecond)
		if time.Since(run.cpu[len(run.cpu)-1].at) >= 100*time.Millisecond {
			run.cpu = append(run.cpu, readCPUTimes())
		}
	}
	run.cpu = append(run.cpu, readCPUTimes())
	run.end = time.Unix(0, stopAt.Load())
	run.after = s.snapshot()
	run.inflightMax = inflightMax.Load()
	gen.Wait()
	if gate != nil {
		time.Sleep(50 * time.Millisecond) // let straggler replies land in the trace
		gate.open.Store(false)
	}

	for _, rs := range recs {
		for _, r := range rs {
			if r.due.Before(run.start) || !r.due.Before(run.end) {
				continue
			}
			run.ops = append(run.ops, r)
			if !r.skipped {
				run.late = append(run.late, r.late)
			}
		}
	}
	return run
}

// openSchedule draws Poisson arrivals at wl.rate covering span, each with
// its kind, register and client, from the seed alone.
func openSchedule(wl workload, seed int64, span time.Duration) []op {
	rng := rand.New(rand.NewSource(seed))
	var out []op
	var at float64
	for {
		at += rng.ExpFloat64() / wl.rate
		d := time.Duration(at * float64(time.Second))
		if d >= span {
			return out
		}
		o := wl.next(rng)
		o.cli = rng.Intn(numClients)
		o.at = d
		out = append(out, o)
	}
}

// verdict is the correctness outcome of one rig.
type verdict struct {
	foreign   int64
	example   string
	checked   int
	notLin    []string
	unknown   int
	registers int
}

// check runs the linearizability checker over a bounded window of the
// recorded history: the preload plus the first lincheckOps workload
// operations. Reads are cut at the window's last invocation; writes are
// kept up to the last response of any kept read, so every value a kept read
// can return is in the window. Dropping later writes cannot turn a
// linearizable history into a non-linearizable one.
func (s *rig) check() verdict {
	s.book.mu.Lock()
	v := verdict{foreign: s.book.foreign, example: s.book.example}
	s.book.mu.Unlock()
	ops := s.hist.Ops() // sorted by invocation
	cut := preloadRegs + lincheckOps
	if cut > len(ops) {
		cut = len(ops)
	}
	if cut == 0 {
		return v
	}
	invCut := ops[cut-1].Inv
	var retCut int64
	for _, o := range ops[:cut] {
		if o.Ret > retCut {
			retCut = o.Ret
		}
	}
	var window []history.Op
	for _, o := range ops {
		if o.Inv <= invCut || (o.Kind == history.Write && o.Inv <= retCut) {
			window = append(window, o)
		}
	}
	v.checked = len(window)
	results := lincheck.CheckRegisters(window, lincheck.Config{Timeout: 5 * time.Second, MaxOps: 8192})
	v.registers = len(results)
	for reg, r := range results {
		switch r.Outcome {
		case lincheck.NotLinearizable:
			v.notLin = append(v.notLin, reg)
		case lincheck.Unknown:
			v.unknown++
		}
	}
	sort.Strings(v.notLin)
	return v
}

func (v verdict) ok() bool { return v.foreign == 0 && len(v.notLin) == 0 }

func (v verdict) String() string {
	s := fmt.Sprintf("foreign_reads=%d lincheck_ops=%d registers=%d not_linearizable=%d unknown=%d",
		v.foreign, v.checked, v.registers, len(v.notLin), v.unknown)
	if v.example != "" {
		s += " first_foreign=" + v.example
	}
	if len(v.notLin) > 0 {
		s += fmt.Sprintf(" not_linearizable_registers=%v", v.notLin)
	}
	return s
}
