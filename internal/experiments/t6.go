package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/quorum"
	"repro/internal/types"
)

// T6Byzantine evaluates the masking-quorum extension (the Byzantine
// generalization of the paper's majorities, after Malkhi & Reiter): under a
// single actively lying replica, plain majority reads get corrupted, while
// WithByzantine(1) clients — masking quorums with f+1-vouched reads —
// return only genuine values, at the cost of larger quorums (4 of 5
// instead of 3 of 5).
func T6Byzantine(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "T6",
		Title:   "Byzantine replica vs masking quorums (n=5, one liar)",
		Claim:   "masking quorums (size ⌈(n+2f+1)/2⌉, intersections ≥ 2f+1) mask up to f Byzantine replicas; plain majorities do not",
		Headers: []string{"attack", "protocol", "reads", "corrupted", "quorum size"},
	}
	reads := o.scale(60, 15)
	const n, f = 5, 1

	attacks := []struct {
		name string
		mode core.ByzMode
	}{
		{"fabricate-high-ts", core.ByzFabricate},
		{"report-stale", core.ByzStale},
		{"equivocate", core.ByzEquivocate},
		{"silent", core.ByzSilent},
	}
	protocols := []struct {
		name  string
		qsize int
		opts  []core.ClientOption
	}{
		{"majority", n/2 + 1, nil},
		{"masking(f=1)", quorum.NewMasking(n, f).QuorumSize(), []core.ClientOption{core.WithByzantine(f)}},
	}

	for _, atk := range attacks {
		for _, proto := range protocols {
			corrupted, err := runByzantineTrial(o, atk.mode, proto.opts, reads)
			if err != nil {
				return nil, fmt.Errorf("T6 %s/%s: %w", atk.name, proto.name, err)
			}
			tbl.AddRow(atk.name, proto.name, fmt.Sprintf("%d", reads),
				fmt.Sprintf("%d", corrupted), fmt.Sprintf("%d", proto.qsize))
		}
	}
	tbl.Notes = append(tbl.Notes,
		"corrupted = reads returning a value no writer ever wrote (or a stale value after a newer completed write)",
		"masking requires n >= 4f+1; reads retry until a pair has f+1 identical reports, so at most f liars can never forge one",
		"the liar is an honest replica whose replies a core.Liar rewrites: it stores every write, so honest state still reaches it")
	return tbl, nil
}

// lie makes replica id of c Byzantine in mode: a core.Liar installed as
// the node's chaos interceptor rewrites every reply it sends, while the
// replica underneath stays honest and keeps storing writes. Mode 0 installs
// nothing, so BY's honest passes run the plain path. T6 and BY build their
// liars here.
func (c *simCluster) lie(id types.NodeID, mode core.ByzMode, seed int64) {
	if mode == 0 {
		return
	}
	l := core.NewLiar(id, seed)
	l.SetMode(mode)
	c.net.SetInterceptor(id, l.Intercept)
}

// runByzantineTrial runs interleaved writes and reads against a cluster
// with one Byzantine replica and counts corrupted reads.
func runByzantineTrial(o Options, mode core.ByzMode, opts []core.ClientOption, reads int) (int, error) {
	c := newSimCluster(5, netsim.Config{Seed: o.seed()})
	defer c.close()
	c.lie(2, mode, o.seed())

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w, err := core.NewClient(1000, c.net.Node(1000), c.ids, append(opts, core.WithSingleWriter())...)
	if err != nil {
		return 0, err
	}
	defer w.Close()
	r, err := core.NewClient(1001, c.net.Node(1001), c.ids, opts...)
	if err != nil {
		return 0, err
	}
	defer r.Close()

	corrupted := 0
	for i := 0; i < reads; i++ {
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
