// byzantine: one replica of five actively lies — and WithByzantine(1), the
// protocol's Byzantine mode, defeats every lying strategy the adversary
// has. The liar is an honest replica whose replies a core.Liar, installed
// as the node's interceptor on the simulator's chaos layer, rewrites,
// while the replica underneath keeps storing writes.
// The demo first shows the attack working: a fabricating
// replica advertises an enormous timestamp and plain majority quorums
// believe it. Then the same workload runs with validated reads against all
// four ByzModes — fabricate, stale, silent, equivocate — and every read
// returns what the writer actually wrote. Under the hood WithByzantine(f)
// switches the client to masking quorums (Malkhi–Reiter, n >= 4f+1) and
// only adopts a (timestamp, value) pair reported identically by f+1
// replicas, an echo f liars can never forge; a pair claiming to be ahead of
// the vouched state gets exactly one confirm round before it is discarded
// as a lie.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/types"
)

func main() {
	// The attack: plain majority quorums (no validation) trust whichever
	// reply carries the max timestamp — the fabricating replica wins.
	corrupted, err := runReads(core.ByzFabricate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s corrupted reads: %v\n", "plain majority vs fabricate:", corrupted > 0)

	// The defense: the same workload, same adversary budget, but clients
	// built with WithByzantine(1). All four lying strategies lose.
	for _, m := range []struct {
		mode core.ByzMode
		name string
	}{
		{core.ByzFabricate, "fabricate"},
		{core.ByzStale, "stale"},
		{core.ByzSilent, "silent"},
		{core.ByzEquivocate, "equivocate"},
	} {
		corrupted, err := runReads(m.mode, core.WithByzantine(1))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("WithByzantine(1) vs %-14s corrupted reads: %d/%d\n", m.name+":", corrupted, readsPerRun)
	}
}

const readsPerRun = 20

// runReads stands up a fresh 5-replica cluster whose replica 2 lies in the
// given mode, then runs readsPerRun write/read pairs through a writer and a
// reader built with opts. It returns how many reads came back with a value
// the writer never wrote. Each run gets its own cluster: single-writer
// sequence numbers restart per client, so reusing replicas across runs
// would pit a fresh counter against the previous run's higher timestamps.
func runReads(mode core.ByzMode, opts ...core.ClientOption) (int, error) {
	net := netsim.New(netsim.Config{Seed: 33})
	defer net.Close()

	const n = 5
	ids := make([]types.NodeID, n)
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	const liar = 2
	l := core.NewLiar(liar, 1)
	l.SetMode(mode)
	net.SetInterceptor(liar, l.Intercept)
	for i := 0; i < n; i++ {
		ids[i] = types.NodeID(i)
		r := core.NewReplica(ids[i], net.Node(ids[i]))
		r.Start()
		stops = append(stops, r.Stop)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	w, err := core.NewClient(100, net.Node(100), ids, append(opts, core.WithSingleWriter())...)
	if err != nil {
		return 0, err
	}
	defer w.Close()
	r, err := core.NewClient(101, net.Node(101), ids, opts...)
	if err != nil {
		return 0, err
	}
	defer r.Close()

	corrupted := 0
	for i := 0; i < readsPerRun; i++ {
		want := fmt.Sprintf("genuine-%d", i)
		if err := w.Write(ctx, "x", []byte(want)); err != nil {
			return 0, err
		}
		got, err := r.Read(ctx, "x")
		if err != nil {
			return 0, err
		}
		if string(got) != want {
			corrupted++
		}
	}
	return corrupted, nil
}
