package abd

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/netsim"
	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/types"
)

// Cluster is a local, in-process deployment of the emulation: one or more
// replica groups on a simulated asynchronous network, plus as many clients
// and sharded stores as the caller asks for. It is the workbench the
// examples, tests, and benchmarks build on; for a real deployment over TCP
// see cmd/abd-node and cmd/abd-cli.
//
// A single-group cluster (NewCluster) is the paper's setting: every
// register lives on the one group. A sharded cluster (NewShardedCluster,
// or NewCluster with WithShards) partitions the register namespace across
// independent groups behind a Store.
type Cluster struct {
	net      *netsim.Net
	replicas []*core.Replica // all groups, flattened in id order
	ids      []types.NodeID  // replica ids, same order
	groups   int
	perGroup int
	clients  []*core.Client
	stores   []*Store
	nextCli  types.NodeID

	cfg clusterConfig

	// Lazy SLO tracking for Health(): created on first use.
	healthMu sync.Mutex
	tracker  *health.Tracker
}

type clusterConfig struct {
	seed          int64
	minDelay      time.Duration
	maxDelay      time.Duration
	dropProb      float64
	quorum        quorum.System
	replicaOpts   []core.ReplicaOption
	defaultClient []core.ClientOption
	shards        int // WithShards; 0 = constructor's group count
	shardOpts     []shard.Option
	storeTracer   Tracer
}

// Option configures a Cluster.
type Option func(*clusterConfig)

// WithSeed fixes the simulation's random seed (delays, drops).
func WithSeed(seed int64) Option {
	return func(c *clusterConfig) { c.seed = seed }
}

// WithDelays sets the uniform one-way message delay range.
func WithDelays(min, max time.Duration) Option {
	return func(c *clusterConfig) { c.minDelay, c.maxDelay = min, max }
}

// WithDropProbability makes each message be lost independently with
// probability p: it sets the network's default chaos fault mix to drop=p
// (a faults:*:... schedule action replaces it). The paper's model assumes
// reliable links (p = 0); this knob exists for stress testing.
func WithDropProbability(p float64) Option {
	return func(c *clusterConfig) { c.dropProb = p }
}

// WithQuorumSystem replaces the default majority quorums for all clients
// created by the cluster. Quorum systems are sized for one group; sharded
// clusters apply the system per group.
func WithQuorumSystem(qs quorum.System) Option {
	return func(c *clusterConfig) { c.quorum = qs }
}

// WithBoundedTimestamps switches the whole cluster (replicas and clients)
// to the bounded cyclic label mode with liveness window l. Implies
// single-writer clients.
func WithBoundedTimestamps(l int64) Option {
	return func(c *clusterConfig) {
		c.replicaOpts = append(c.replicaOpts, core.WithReplicaBoundedWindow(l))
		c.defaultClient = append(c.defaultClient, core.WithBoundedLabels(l))
	}
}

// WithClientDefaults appends protocol options applied to every client the
// cluster creates (e.g. abd.WithSingleWriter()), including a Store's
// per-group clients.
func WithClientDefaults(opts ...core.ClientOption) Option {
	return func(c *clusterConfig) { c.defaultClient = append(c.defaultClient, opts...) }
}

// WithShards splits NewCluster's n replicas into g equal replica groups
// (n must be divisible by g), sharding the register namespace across them.
// NewCluster(n) is WithShards(1): the paper's single-group setting.
func WithShards(g int) Option {
	return func(c *clusterConfig) {
		c.shards = g
		c.shardOpts = append(c.shardOpts, shard.WithShards(g))
	}
}

// WithVirtualNodes sets the consistent-hash ring's points per group for
// every Store the cluster creates (see internal/shard; the default is
// shard.DefaultVirtualNodes).
func WithVirtualNodes(v int) Option {
	return func(c *clusterConfig) { c.shardOpts = append(c.shardOpts, shard.WithVirtualNodes(v)) }
}

// WithHashFunc replaces the ring's register hash for every Store the
// cluster creates. The function must be pure: every store of a deployment
// must agree on the register→group map.
func WithHashFunc(h HashFunc) Option {
	return func(c *clusterConfig) { c.shardOpts = append(c.shardOpts, shard.WithHashFunc(h)) }
}

// WithStoreTracer attaches a span tracer to every client the cluster
// creates, tagged per shard: a Store's group-g client emits spans carrying
// shard tag g+1 (obs.Span.Shard), and plain Clients emit under their
// group's tag. One tracer, per-shard attribution.
func WithStoreTracer(t Tracer) Option {
	return func(c *clusterConfig) { c.storeTracer = t }
}

// NewCluster starts n replicas (node ids 0..n-1) on a fresh simulated
// network. Close must be called to release them. It is sugar over
// NewShardedCluster: one group of n replicas unless WithShards(g) asks for
// the namespace to be partitioned into g groups of n/g.
func NewCluster(n int, opts ...Option) (*Cluster, error) {
	cfg := clusterConfig{seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	groups := cfg.shards
	if groups == 0 {
		groups = 1
	}
	if groups < 1 || n < groups || n%groups != 0 {
		return nil, fmt.Errorf("abd: cannot split %d replicas into %d equal groups", n, groups)
	}
	return newCluster(groups, n/groups, cfg)
}

// NewShardedCluster starts `groups` independent replica groups of
// `perGroup` replicas each — group g owns node ids g*perGroup ..
// (g+1)*perGroup-1 — on one simulated network. Registers are partitioned
// across groups by every Store the cluster hands out; each group is an
// unchanged ABD instance tolerating a minority of crashes.
func NewShardedCluster(groups, perGroup int, opts ...Option) (*Cluster, error) {
	cfg := clusterConfig{seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.shards != 0 && cfg.shards != groups {
		return nil, fmt.Errorf("abd: NewShardedCluster(%d groups) conflicts with WithShards(%d)", groups, cfg.shards)
	}
	return newCluster(groups, perGroup, cfg)
}

func newCluster(groups, perGroup int, cfg clusterConfig) (*Cluster, error) {
	if groups < 1 || perGroup < 1 {
		return nil, fmt.Errorf("abd: cluster needs >= 1 group of >= 1 replicas, got %dx%d", groups, perGroup)
	}
	if perGroup > quorum.MaxNodes {
		return nil, fmt.Errorf("abd: group size %d exceeds max %d", perGroup, quorum.MaxNodes)
	}
	cl := &Cluster{
		net: netsim.New(netsim.Config{
			Seed:     cfg.seed,
			MinDelay: cfg.minDelay,
			MaxDelay: cfg.maxDelay,
		}),
		groups:   groups,
		perGroup: perGroup,
		nextCli:  types.NodeID(10000),
		cfg:      cfg,
	}
	cl.net.SetDefaultFaults(chaos.Faults{Drop: cfg.dropProb})
	for i := 0; i < groups*perGroup; i++ {
		id := types.NodeID(i)
		ropts := cfg.replicaOpts
		if cfg.storeTracer != nil {
			ropts = append(append([]core.ReplicaOption(nil), ropts...),
				core.WithReplicaTracer(shard.Tag(cfg.storeTracer, i/perGroup)))
		}
		r := core.NewReplica(id, cl.net.Node(id), ropts...)
		r.Start()
		cl.replicas = append(cl.replicas, r)
		cl.ids = append(cl.ids, id)
	}
	return cl, nil
}

// Size returns the total number of replicas across all groups.
func (c *Cluster) Size() int { return len(c.replicas) }

// Shards returns the number of replica groups.
func (c *Cluster) Shards() int { return c.groups }

// GroupSize returns the number of replicas per group.
func (c *Cluster) GroupSize() int { return c.perGroup }

// ReplicaIDs returns every replica node id, flattened in group order.
func (c *Cluster) ReplicaIDs() []NodeID {
	return append([]NodeID(nil), c.ids...)
}

// GroupReplicaIDs returns group g's replica ids in quorum-index order.
func (c *Cluster) GroupReplicaIDs(g int) []NodeID {
	return append([]NodeID(nil), c.ids[g*c.perGroup:(g+1)*c.perGroup]...)
}

// newGroupClient creates a client attached to one group. Options are
// applied after the cluster's defaults, so they win on conflicts.
func (c *Cluster) newGroupClient(g int, opts []core.ClientOption) *Client {
	id := c.nextCli
	c.nextCli++
	all := make([]core.ClientOption, 0, len(c.cfg.defaultClient)+len(opts)+2)
	if c.cfg.quorum != nil {
		all = append(all, core.WithQuorum(c.cfg.quorum))
	}
	if c.cfg.storeTracer != nil {
		all = append(all, core.WithTracer(shard.Tag(c.cfg.storeTracer, g)))
	}
	all = append(all, c.cfg.defaultClient...)
	all = append(all, opts...)
	cli, err := core.NewClient(id, c.net.Node(id), c.GroupReplicaIDs(g), all...)
	if err != nil {
		// The cluster controls every input that could fail validation; an
		// error here is a misconfigured option combination, surfaced early.
		panic(fmt.Sprintf("abd: cluster client: %v", err))
	}
	return cli
}

// Client creates a new client attached to replica group 0. Options are
// applied after the cluster's defaults, so they win on conflicts. On a
// sharded cluster a plain Client sees only group 0's registers — use Store
// for the routed view spanning every group.
func (c *Cluster) Client(opts ...core.ClientOption) *Client {
	cli := c.newGroupClient(0, opts)
	c.clients = append(c.clients, cli)
	return cli
}

// Store creates a sharded store over every replica group: one fresh client
// per group (cluster defaults plus opts), routed by the cluster's
// consistent-hash ring configuration (WithVirtualNodes, WithHashFunc).
// The cluster owns the store; Close closes it. On a single-group cluster
// the store is a plain client behind the router — same protocol, same
// guarantees — so code written against Store runs unchanged at any scale.
func (c *Cluster) Store(opts ...core.ClientOption) *Store {
	clients := make([]*core.Client, c.groups)
	for g := range clients {
		clients[g] = c.newGroupClient(g, opts)
	}
	st, err := shard.New(clients, c.cfg.shardOpts...)
	if err != nil {
		// Same contract as Client: the cluster controls every input.
		panic(fmt.Sprintf("abd: cluster store: %v", err))
	}
	c.stores = append(c.stores, st)
	return st
}

// Crash fail-stops replica i (by flattened index; group g's replicas are
// indexes g*GroupSize()..). Matching the paper's model, there is no
// recovery.
func (c *Cluster) Crash(i int) {
	c.net.Crash(c.ids[i])
}

// CrashGroupMinority fail-stops a minority (floor((perGroup-1)/2)) of the
// replicas of group g — the largest crash the group tolerates while staying
// live.
func (c *Cluster) CrashGroupMinority(g int) {
	for i := 0; i < (c.perGroup-1)/2; i++ {
		c.Crash(g*c.perGroup + i)
	}
}

// Partition splits the network into groups of node ids (replicas and
// clients alike). Nodes in no group cannot reach any listed node.
func (c *Cluster) Partition(groups ...[]NodeID) {
	c.net.Partition(groups...)
}

// Heal removes any partition.
func (c *Cluster) Heal() { c.net.Heal() }

// Net exposes the underlying simulated network and its chaos fault
// injector (internal/failure schedules target it directly).
func (c *Cluster) Net() *netsim.Net { return c.net }

// Replica returns replica i (flattened index) for state inspection in
// tests and tools.
func (c *Cluster) Replica(i int) *core.Replica { return c.replicas[i] }

// NetStats returns the simulated network's counters.
func (c *Cluster) NetStats() netsim.Stats { return c.net.Stats() }

// Latency merges every cluster client's and store's latency histograms
// into one fleet-wide snapshot (see core.Client.Latency). The merge is
// exact: quantiles of the result are quantiles over the union of all
// samples, up to the histograms' bucket resolution.
func (c *Cluster) Latency() core.LatencySnapshot {
	var out core.LatencySnapshot
	for _, cli := range c.clients {
		out = out.Merge(cli.Latency())
	}
	for _, st := range c.stores {
		out = out.Merge(st.Latency())
	}
	return out
}

// Metrics merges every cluster client's and store's operation counters.
func (c *Cluster) Metrics() core.MetricsSnapshot {
	var out core.MetricsSnapshot
	for _, cli := range c.clients {
		out = out.Merge(cli.Metrics())
	}
	for _, st := range c.stores {
		out = out.Merge(st.Metrics())
	}
	return out
}

// SetSLO replaces the objective Health tracks (and resets its burn
// history). Without a call, Health tracks health.DefaultSLO.
func (c *Cluster) SetSLO(slo health.SLO) {
	c.healthMu.Lock()
	c.tracker = health.NewTracker(slo)
	c.healthMu.Unlock()
}

// healthWatermarkLimit bounds each replica's watermark report in Health:
// plenty for the workbench's keyspaces while keeping the report small.
const healthWatermarkLimit = 128

// HotKeys merges every cluster client's and store's hot-key sketch into
// one fleet-wide top-k list (k <= 0 keeps everything).
func (c *Cluster) HotKeys(k int) []health.HotKey {
	var lists [][]health.HotKey
	for _, cli := range c.clients {
		lists = append(lists, cli.HotKeys(0))
	}
	for _, st := range c.stores {
		lists = append(lists, st.HotKeys(0))
	}
	return health.MergeHotKeys(k, lists...)
}

// Health returns the cluster's live health view: fleet-merged hot keys,
// per-replica lag against each group's quorum-confirmed tag watermarks,
// and the SLO burn state over all clients' latencies and failure counters.
// Each call ingests the current counters into the sliding burn windows, so
// poll it periodically; the first call only seeds the baseline. Like
// Latency and Metrics, Health must not race Client/Store creation.
func (c *Cluster) Health() health.Status {
	c.healthMu.Lock()
	if c.tracker == nil {
		c.tracker = health.NewTracker(health.DefaultSLO())
	}
	tr := c.tracker
	c.healthMu.Unlock()

	now := time.Now()
	m := c.Metrics()
	lat := c.Latency()
	total, bad := tr.SLO().Cut(lat.Read.Merge(lat.Write), m.ReadFails+m.WriteFails)
	tr.Ingest(now, total, bad)
	slo, _ := tr.Evaluate(now)

	// Per-group lag, concatenated: groups are independent ABD instances,
	// so "behind the quorum" is only meaningful within a group.
	lag := health.LagReport{Quorum: c.perGroup/2 + 1}
	for g := 0; g < c.groups; g++ {
		reports := make([]health.ReplicaTags, 0, c.perGroup)
		for i := g * c.perGroup; i < (g+1)*c.perGroup; i++ {
			reports = append(reports, c.replicas[i].TagWatermarks(healthWatermarkLimit))
		}
		gl := health.ComputeLag(reports, c.perGroup/2+1, 5)
		lag.Replicas = append(lag.Replicas, gl.Replicas...)
		lag.Registers = append(lag.Registers, gl.Registers...)
	}

	var hotTotal int64
	for _, cli := range c.clients {
		hotTotal += cli.HotKeyTotal()
	}
	for _, st := range c.stores {
		hotTotal += st.HotKeyTotal()
	}

	st := health.Status{
		HotKeys:     c.HotKeys(10),
		HotKeyTotal: hotTotal,
		Lag:         &lag,
		SLO:         &slo,
		Alerts:      tr.Raised(),
	}
	byzF := 0
	for _, cli := range c.clients {
		if f := cli.ByzantineF(); f > byzF {
			byzF = f
		}
	}
	if byzF > 0 {
		st.Byzantine = &health.ByzStatus{
			ToleratedFaults: int64(byzF),
			SuspectRejects:  m.ByzRejects,
			ConfirmRounds:   m.ByzConfirms,
			MaskRetries:     m.MaskRetries,
		}
	}
	return st
}

// ResetNetStats zeroes the network counters (between benchmark phases).
func (c *Cluster) ResetNetStats() { c.net.ResetStats() }

// Close stops all clients and stores, drains the network, then stops the
// replicas and shuts the network down. The drain between the two stop
// phases matters: it lets every already-sampled delivery land (or be
// discarded) before any replica endpoint closes, so teardown never races a
// delayed send into a closing mailbox.
func (c *Cluster) Close() {
	for _, cli := range c.clients {
		cli.Close()
	}
	for _, st := range c.stores {
		st.Close()
	}
	c.net.Drain()
	for _, r := range c.replicas {
		r.Stop()
	}
	c.net.Close()
}
