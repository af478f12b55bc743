package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/quorum"
	"repro/internal/transport"
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

// liarCluster is n netsim replicas (node ids 0..n-1), all honest
// underneath. With a nonzero mode, replica liar's endpoint is chaos-wrapped
// and a core.Liar in that mode rewrites every reply it sends; the replica
// itself keeps storing writes. Mode 0 leaves every replica on the plain
// netsim path, so BY's honest passes measure no interception cost. T6 and
// BY build their clusters here.
type liarCluster struct {
	net  *netsim.Net
	ids  []types.NodeID
	reps []*core.Replica
}

func newLiarCluster(seed int64, n int, liar types.NodeID, mode core.ByzMode) *liarCluster {
	c := &liarCluster{net: netsim.New(netsim.Config{Seed: seed})}
	cn := chaos.New(seed)
	l := core.NewLiar(liar, seed)
	l.SetMode(mode)
	cn.SetInterceptor(liar, l.Intercept)
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		var ep transport.Endpoint = c.net.Node(id)
		if id == liar && mode != 0 {
			ep = cn.Wrap(ep)
		}
		r := core.NewReplica(id, ep)
		r.Start()
		c.ids = append(c.ids, id)
		c.reps = append(c.reps, r)
	}
	return c
}

func (c *liarCluster) close() {
	for _, r := range c.reps {
		r.Stop()
	}
	c.net.Close()
}

// runByzantineTrial runs interleaved writes and reads against a cluster
// with one Byzantine replica and counts corrupted reads.
func runByzantineTrial(o Options, mode core.ByzMode, opts []core.ClientOption, reads int) (int, error) {
	c := newLiarCluster(o.seed(), 5, 2, mode)
	defer c.close()

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
