package abd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/history"
	"repro/internal/lincheck"
)

// TestHistoriesUnderFaultSchedulesLinearizable drives the full adversarial
// pipeline: a concurrent workload, a scripted fault schedule (crashes,
// partitions, heals, delay spikes), operations that time out recorded as
// pending, and the checker over the result. Atomicity must hold through all
// of it — the paper's guarantee is not "linearizable until something
// breaks".
func TestHistoriesUnderFaultSchedulesLinearizable(t *testing.T) {
	schedules := []string{
		"crash:0@20ms",
		"partition:0,1|2,3,4@15ms; heal@60ms",
		"delay:20@10ms; delay:1@50ms",
		"crash:4@10ms; partition:0,1|2,3@30ms; heal@70ms",
	}
	for i, script := range schedules {
		script := script
		t.Run(fmt.Sprintf("schedule-%d", i), func(t *testing.T) {
			t.Parallel()
			sched, err := failure.Parse(script)
			if err != nil {
				t.Fatal(err)
			}
			cluster, err := NewCluster(5, WithSeed(int64(200+i)), WithDelays(0, time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			go func() { _ = sched.Run(ctx, cluster.Net()) }()

			rec := history.NewRecorder()
			var wg sync.WaitGroup
			const workers, opsPer = 4, 12
			for w := 0; w < workers; w++ {
				cli := cluster.Client()
				wg.Add(1)
				go func(id int, cli *Client) {
					defer wg.Done()
					for j := 0; j < opsPer; j++ {
						octx, ocancel := context.WithTimeout(ctx, 300*time.Millisecond)
						if j%2 == 0 {
							val := []byte(fmt.Sprintf("w%d-%d", id, j))
							p := rec.BeginWrite(id, val)
							if err := cli.Write(octx, "x", val); err != nil {
								p.Crash()
							} else {
								p.EndWrite()
							}
						} else {
							p := rec.BeginRead(id)
							if v, err := cli.Read(octx, "x"); err != nil {
								p.Crash()
							} else {
								p.EndRead(v)
							}
						}
						ocancel()
					}
				}(w, cli)
			}
			wg.Wait()

			ops := rec.Ops()
			res := lincheck.CheckRegister(ops, lincheck.Config{Timeout: 30 * time.Second})
			if res.Outcome == lincheck.NotLinearizable {
				t.Fatalf("schedule %q produced a non-linearizable history (%d ops)", script, len(ops))
			}
			if res.Outcome == lincheck.Unknown {
				t.Logf("schedule %q: checker budget exhausted on %d ops (inconclusive, not a failure)", script, len(ops))
			}
		})
	}
}

// TestFaultsActionTakesEffectOnSimulator: the link-fault script action is
// not a simulator no-op. faults:*:drop=1 loses every message, so a write
// cannot assemble a quorum; faults:*:none restores the reliable channel
// and liveness with it.
func TestFaultsActionTakesEffectOnSimulator(t *testing.T) {
	cluster, err := NewCluster(3, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.Client()
	apply := func(script string) {
		t.Helper()
		sched, err := failure.Parse(script)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Run(context.Background(), cluster.Net()); err != nil {
			t.Fatal(err)
		}
	}

	apply("faults:*:drop=1@0ms")
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := client.Write(ctx, "x", []byte("lost")); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("write under faults:*:drop=1: want ErrNoQuorum, got %v", err)
	}

	apply("faults:*:none@0ms")
	if err := client.Write(testCtx(t), "x", []byte("v")); err != nil {
		t.Fatalf("write after faults:*:none: %v", err)
	}
}
