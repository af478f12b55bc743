package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/types"
)

// F7Ablations quantifies two design choices DESIGN.md calls out:
//
//  1. Phase fanout — the paper broadcasts every phase to all n replicas and
//     waits for a quorum; the obvious "optimization" of contacting exactly
//     a quorum saves messages but couples liveness to the chosen targets:
//     one crash inside the window stalls the op until rotation moves past
//     it. The table shows messages/op against availability under one crash.
//  2. Retransmission — the model assumes reliable channels; on a lossy
//     substrate, phase retransmission restores liveness at a modest
//     message overhead.
func F7Ablations(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "F7",
		Title:   "ablations: phase fanout and retransmission (n=5)",
		Claim:   "broadcast-to-all buys crash-oblivious latency for ~2x messages; retransmission restores liveness on lossy links",
		Headers: []string{"config", "msgs/op", "ops ok (healthy)", "ops ok (1 crash)", "retransmits"},
	}
	ops := o.scale(40, 10)

	type config struct {
		name string
		opts []core.ClientOption
		drop float64
	}
	configs := []config{
		{"fanout=all (paper)", []core.ClientOption{core.WithSingleWriter()}, 0},
		{"fanout=quorum (3)", []core.ClientOption{core.WithSingleWriter(), core.WithWriteFanout(3), core.WithReadFanout(3)}, 0},
		{"25% loss, no retransmit", []core.ClientOption{core.WithSingleWriter(), core.WithRetransmit(0)}, 0.25},
		{"25% loss + retransmit", []core.ClientOption{core.WithSingleWriter(), core.WithRetransmit(5 * time.Millisecond)}, 0.25},
	}

	for _, cfg := range configs {
		healthy, msgsPerOp, retransmits, err := runAblation(o, cfg.opts, cfg.drop, ops, false)
		if err != nil {
			return nil, fmt.Errorf("F7 %s healthy: %w", cfg.name, err)
		}
		crashed, _, _, err := runAblation(o, cfg.opts, cfg.drop, ops, true)
		if err != nil {
			return nil, fmt.Errorf("F7 %s crashed: %w", cfg.name, err)
		}
		tbl.AddRow(cfg.name,
			fmt.Sprintf("%.1f", msgsPerOp),
			fmt.Sprintf("%d/%d", healthy, ops),
			fmt.Sprintf("%d/%d", crashed, ops),
			fmt.Sprintf("%d", retransmits))
	}
	tbl.Notes = append(tbl.Notes,
		"each op gets a 250ms deadline; 'ops ok' counts completions",
		"fanout=quorum rotates its 3-replica window, so with one crash roughly 3 of every 5 windows stall")
	return tbl, nil
}

func runAblation(o Options, opts []core.ClientOption, drop float64, ops int, crashOne bool) (ok int, msgsPerOp float64, retransmits int64, err error) {
	c := newSimCluster(5, netsim.Config{Seed: o.seed()})
	defer c.close()
	c.net.SetDefaultFaults(chaos.Faults{Drop: drop})
	cli, err := c.client(opts...)
	if err != nil {
		return 0, 0, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Prime while healthy so reads have something to find. Under loss
	// without retransmission even the prime can fail — bound it like any
	// other op and move on; that failure mode is part of what the
	// experiment shows.
	pctx, pcancel := context.WithTimeout(ctx, 250*time.Millisecond)
	_ = cli.Write(pctx, "x", []byte("v0"))
	pcancel()
	if crashOne {
		c.net.Crash(types.NodeID(0))
	}

	for i := 0; i < ops; i++ {
		octx, ocancel := context.WithTimeout(ctx, 250*time.Millisecond)
		opErr := cli.Write(octx, "x", []byte("v"))
		ocancel()
		if opErr == nil {
			ok++
		}
	}
	settle()
	m := cli.Metrics()
	// Every message a node sent, lost ones included: the channel meters
	// what reached it, the chaos controller what it discarded first.
	sent := c.net.Stats().Sent + c.net.Net.Stats().Dropped
	return ok, float64(sent) / float64(ops+1), m.Retransmits, nil
}
