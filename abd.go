// Package abd is a production-quality Go implementation of the ABD
// algorithm from "Sharing Memory Robustly in Message-Passing Systems"
// (Attiya, Bar-Noy, Dolev; PODC 1990 / JACM 1995): atomic (linearizable)
// read/write registers emulated over an asynchronous message-passing system
// in which any minority of processors may crash.
//
// The package is a facade over the implementation packages:
//
//   - internal/core: the replica and client protocols (single-writer,
//     multi-writer, bounded labels, generalized quorums),
//   - internal/shard: the consistent-hash router partitioning the register
//     namespace across independent replica groups (the Store),
//   - internal/netsim: the simulated asynchronous network with fault
//     injection,
//   - internal/tcpnet: the TCP transport for real deployments,
//   - internal/quorum, internal/timestamp: the protocol's building blocks,
//   - internal/lincheck, internal/history: linearizability verification,
//   - internal/obs: latency histograms, span tracing, and the Prometheus
//     text exposition behind cmd/abd-node's /metrics,
//   - internal/snapshot, internal/bakery, internal/maxreg: shared-memory
//     algorithms running unchanged over the emulation.
//
// Everything that can operate on registers — a protocol Client, the
// reconfigurable client, a sharded Store — satisfies the one RW contract
// (Read/Write/Register), and every register handle satisfies Register.
// Code written against RW runs unchanged over one replica group or many.
//
// Quick start (see examples/quickstart for the runnable version):
//
//	cluster, _ := abd.NewCluster(5, abd.WithSeed(1))
//	defer cluster.Close()
//	client := cluster.Client()
//	_ = client.Write(ctx, "greeting", []byte("hello"))
//	v, _ := client.Read(ctx, "greeting")
//
// Sharded: partition the namespace over 3 groups of 5 behind one Store
// (same RW surface, near-linear aggregate throughput):
//
//	cluster, _ := abd.NewShardedCluster(3, 5, abd.WithSeed(1))
//	defer cluster.Close()
//	store := cluster.Store()
//	_ = store.Write(ctx, "greeting", []byte("hello"))
package abd

import (
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/types"
)

// Value is a register's contents; nil is the never-written initial state.
type Value = types.Value

// NodeID identifies a processor.
type NodeID = types.NodeID

// Errors re-exported for matching with errors.Is.
var (
	// ErrNoQuorum is returned when an operation cannot assemble a quorum
	// before its context expires — the unavoidable outcome once a majority
	// of replicas is unreachable.
	ErrNoQuorum = types.ErrNoQuorum
	// ErrClosed is returned by operations on closed clients or transports.
	ErrClosed = types.ErrClosed
)

// Register is the emulated shared-memory object: an atomic read/write
// register. It is the one contract in this module — handles from Client,
// Store, and the reconfigurable client all satisfy it, and the
// shared-memory algorithm packages consume it.
type Register = types.Register

// RW is the shared surface of everything that operates on named registers:
// Client (one replica group), Store (many), and reconfig.Client (changing
// groups) all satisfy it.
type RW = types.RW

// Client is a connection to one replica group, able to operate on any
// named register of that group. It is an alias for the core protocol
// client.
type Client = core.Client

// ClientOption configures a Client (see internal/core's With* options;
// WithSingleWriter is re-exported here).
type ClientOption = core.ClientOption

// WithSingleWriter declares that the client is the only writer of every
// register it writes: writes skip the query phase and cost one round trip
// (the paper's SWMR protocol). The canonical spelling of the former
// Cluster.Writer: cluster.Client(abd.WithSingleWriter()).
func WithSingleWriter() ClientOption { return core.WithSingleWriter() }

// ReadMode is the client's read-path consistency profile: which of the
// read optimizations (confirmed-tag fast path, unanimous write-back skip,
// coalescing, write-back itself) are active. See core.ReadMode for the
// per-knob contracts and core.DefaultReadMode for the defaults.
type ReadMode = core.ReadMode

// DefaultReadMode returns the out-of-the-box read profile: watermark fast
// path on, coalescing on, write-backs on, unanimous skip off.
func DefaultReadMode() ReadMode { return core.DefaultReadMode() }

// WithReadMode sets the whole read profile at once; invalid combinations
// (e.g. a fast path without write-backs) are rejected by NewClient.
func WithReadMode(m ReadMode) ClientOption { return core.WithReadMode(m) }

// WithoutFastRead disables the fast path, restoring the paper's
// unconditional two-phase read.
func WithoutFastRead() ClientOption { return core.WithoutFastRead() }

// WithByzantine hardens the client's reads against up to f replicas that
// lie — fabricating timestamps, serving stale state, equivocating, or
// staying silent — not just f that crash. The client switches to masking
// quorums (n >= 4f+1 required) and adopts a (timestamp, value) pair only
// when at least f+1 replicas report it identically; a pair claiming to be
// ahead of the vouched state gets one confirm round before it is discarded
// as a suspected lie (the ByzRejects counter the health layer exports as
// abd_health_byz_suspect_rejects_total). f = 0 is the plain crash-fault
// client unchanged. See internal/core.WithByzantine for the full contract.
func WithByzantine(f int) ClientOption { return core.WithByzantine(f) }

// Store is the sharded multi-group register store: a consistent-hash
// router over one Client per replica group, satisfying the same RW
// contract as a single-group Client. See internal/shard for the routing
// invariants (a register never spans groups; the shard map is immutable
// per Store lifetime).
type Store = shard.Store

// HashFunc hashes a register name onto the Store's ring (WithHashFunc).
type HashFunc = shard.HashFunc

// NewStore builds a Store over caller-supplied group clients (one per
// replica group, in group order — e.g. tcpnet-backed clients of a real
// deployment). The store takes ownership of the clients. Only the shard
// options (WithShards, WithVirtualNodes, WithHashFunc) apply here; for
// in-process work, Cluster.Store handles client construction too.
func NewStore(clients []*Client, opts ...Option) (*Store, error) {
	var cfg clusterConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return shard.New(clients, cfg.shardOpts...)
}

// MetricsSnapshot re-exports the client counter snapshot. Snapshots merge
// (MetricsSnapshot.Merge) across clients and shards.
type MetricsSnapshot = core.MetricsSnapshot

// ReplicaMetrics re-exports the replica protocol counter set served by
// cmd/abd-node's /metrics endpoint.
type ReplicaMetrics = core.ReplicaMetrics

// LatencySnapshot re-exports the per-client latency histogram snapshot;
// merge snapshots across clients (or use Cluster.Latency / Store.Latency)
// for fleet-wide quantiles.
type LatencySnapshot = core.LatencySnapshot

// Tracer re-exports the span sink interface. Attach one to a client with
// core.WithTracer (or cluster-wide with WithStoreTracer, which tags each
// shard's spans) to stream per-operation and per-phase spans; obs.NewRing
// and obs.NewJSONL are the built-in sinks.
type Tracer = obs.Tracer

// Span re-exports the traced span record.
type Span = obs.Span

// HealthStatus re-exports the live introspection snapshot returned by
// Cluster.Health and Store.Health: hot keys, replica lag watermarks, SLO
// burn state, and raised alerts (see internal/health).
type HealthStatus = health.Status

// SLO re-exports the health layer's objective configuration; pass one to
// Cluster.SetSLO / Store.SetSLO to replace the default.
type SLO = health.SLO

// HealthAlert re-exports one raised burn-rate alert.
type HealthAlert = health.Alert

var (
	_ Register = (*core.Register)(nil)
	_ RW       = (*core.Client)(nil)
	_ RW       = (*shard.Store)(nil)
)
