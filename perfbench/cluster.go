package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/types"
)

const (
	numReplicas = 5
	numClients  = 2
	clientBase  = types.NodeID(100)
)

// timedEndpoint wraps a transport endpoint from outside the program to time
// each Send call and count the protocol payloads handed to the transport.
// Every endpoint of every run is wrapped, traced or not, so its cost is
// part of what the end-to-end metrics measure.
type timedEndpoint struct {
	transport.Endpoint
	calls obs.Histogram // wall time of each Send call
	msgs  atomic.Int64
	bytes atomic.Int64
}

func (t *timedEndpoint) Send(to types.NodeID, payload []byte) error {
	start := time.Now()
	err := t.Endpoint.Send(to, payload)
	t.calls.Record(time.Since(start))
	t.msgs.Add(1)
	t.bytes.Add(int64(len(payload)))
	return err
}

// gatedTracer forwards spans to a bounded collector only while open, so a
// traced cluster's set-up and warm-up spans stay out of the analysis.
type gatedTracer struct {
	open atomic.Bool
	col  *obs.Collector
}

func (g *gatedTracer) Emit(s obs.Span) {
	if g.open.Load() {
		g.col.Emit(s)
	}
}

// cluster is the real stack under test: persistent replicas, each with its
// WAL in a fresh directory and a loopback listener, plus default
// multi-writer clients on client-only endpoints that dial every replica.
type cluster struct {
	dir      string
	replicas []*core.Replica
	clients  []*core.Client
	tcp      []*tcpnet.Endpoint // replicas first, then clients
	wrapped  []*timedEndpoint   // same order as tcp
}

// startCluster boots the replicas and clients. A nil tracer leaves every
// layer untraced, exactly as the program runs by default.
func startCluster(dir string, tracer obs.Tracer) (*cluster, error) {
	c := &cluster{dir: dir}
	peers := make(map[types.NodeID]string, numReplicas)
	ids := make([]types.NodeID, numReplicas)
	for i := 0; i < numReplicas; i++ {
		id := types.NodeID(i)
		ep, err := tcpnet.Listen(tcpnet.Config{ID: id, ListenAddr: "127.0.0.1:0", Tracer: tracer})
		if err != nil {
			c.close()
			return nil, err
		}
		w := c.add(ep)
		walDir := filepath.Join(dir, fmt.Sprintf("replica-%d", i))
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			c.close()
			return nil, err
		}
		var opts []core.ReplicaOption
		if tracer != nil {
			opts = append(opts, core.WithReplicaTracer(tracer))
		}
		rep, err := core.NewPersistentReplica(id, w, filepath.Join(walDir, "wal"), opts...)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		rep.Start()
		c.replicas = append(c.replicas, rep)
		peers[id] = ep.Addr()
		ids[i] = id
	}
	for i := 0; i < numClients; i++ {
		id := clientBase + types.NodeID(i)
		ep, err := tcpnet.Listen(tcpnet.Config{ID: id, Peers: peers, Tracer: tracer})
		if err != nil {
			c.close()
			return nil, err
		}
		w := c.add(ep)
		var opts []core.ClientOption
		if tracer != nil {
			opts = append(opts, core.WithTracer(tracer))
		}
		cli, err := core.NewClient(id, w, ids, opts...)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		c.clients = append(c.clients, cli)
	}
	return c, nil
}

func (c *cluster) add(ep *tcpnet.Endpoint) *timedEndpoint {
	w := &timedEndpoint{Endpoint: ep}
	c.tcp = append(c.tcp, ep)
	c.wrapped = append(c.wrapped, w)
	return w
}

// close stops clients before replicas, then every endpoint, and removes the
// WAL directories. Each Stop/Close waits for its goroutines to exit.
func (c *cluster) close() {
	for _, cli := range c.clients {
		cli.Close()
	}
	for _, rep := range c.replicas {
		rep.Stop()
	}
	for _, ep := range c.tcp {
		_ = ep.Close()
	}
	_ = os.RemoveAll(c.dir)
}
