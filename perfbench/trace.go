package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
)

// traceStats splits traced operations along each phase's critical path:
// the request to, and reply from, the replica whose reply completed the
// quorum (the closer). Every interval is computed from spans the program
// already emits (client op/phase, tcpnet net-send/net-recv, replica
// handle/wal-append); all processes share one clock, so cross-node gaps
// are exact.
type traceStats struct {
	ops int // operation roots analyzed
	// clientSelf is an operation's duration minus its own phases, over
	// operations that ran at least one phase (coalesced followers ride
	// another operation's rounds and are excluded).
	clientSelf []time.Duration
	// Per critical-path phase: send-queue time of the request and reply
	// legs (enqueue → written), their network time (written → frame read
	// at the receiver), the closer's replica queue (mailbox → handler
	// start), and its handler time, split for updates into the WAL append
	// and the rest.
	sendQueue, network, replicaQueue []time.Duration
	handleQuery, handleUpdateSelf    []time.Duration
	walAppend                        []time.Duration
	stitch                           obs.StitchStats
	dropped                          int64
}

// analyzeTrace assembles the collected spans into trees and measures every
// successful operation that started at or after from.
func analyzeTrace(spans []obs.Span, dropped int64, from time.Time) traceStats {
	ts := traceStats{stitch: obs.Stitch(spans), dropped: dropped}
	for _, t := range obs.AssembleTraces(spans) {
		root := t.Root
		if root == nil || root.Span.Err != "" || root.Span.Start.Before(from) {
			continue
		}
		ts.ops++
		var phases []*obs.TraceNode
		for _, ch := range root.Children {
			if ch.Span.Kind == "phase" && ch.Span.Err == "" {
				phases = append(phases, ch)
			}
		}
		if len(phases) == 0 {
			continue
		}
		ts.clientSelf = append(ts.clientSelf, root.Span.Dur-covered(phases))
		for _, p := range phases {
			ts.addPhase(root.Span.Node, p)
		}
	}
	return ts
}

// covered is the total time the phases' intervals cover (phases of one
// operation are sequential, but overlap is merged anyway).
func covered(phases []*obs.TraceNode) time.Duration {
	var total time.Duration
	var curEnd time.Time
	for _, p := range phases { // children are sorted by start
		s, e := p.Span.Start, end(p.Span)
		if s.Before(curEnd) {
			s = curEnd
		}
		if e.After(s) {
			total += e.Sub(s)
			curEnd = e
		}
	}
	return total
}

func end(s obs.Span) time.Time { return s.Start.Add(s.Dur) }

// addPhase records the closer's legs of one phase, when every span on them
// was collected.
func (ts *traceStats) addPhase(client int64, p *obs.TraceNode) {
	closer, best := int64(-1), time.Duration(-1)
	for id, rtt := range p.Span.ReplicaRTT {
		if rtt > best {
			closer, best = id, rtt
		}
	}
	if closer < 0 {
		return
	}
	var reqSend *obs.TraceNode
	for _, c := range p.Children {
		if c.Span.Kind == "net-send" && c.Span.Node == client && c.Span.Peer == closer {
			reqSend = c
			break
		}
	}
	reqRecv := child(p, "net-recv", closer)
	handle := child(p, "handle", closer)
	if reqSend == nil || reqRecv == nil || handle == nil {
		return
	}
	h := handle.Span
	replySend := child(handle, "net-send", closer)
	replyRecv := child(handle, "net-recv", client)
	if replySend == nil || replyRecv == nil {
		return
	}
	ts.sendQueue = append(ts.sendQueue, reqSend.Span.Dur+replySend.Span.Dur)
	ts.network = append(ts.network,
		reqRecv.Span.Start.Sub(end(reqSend.Span))+replyRecv.Span.Start.Sub(end(replySend.Span)))
	ts.replicaQueue = append(ts.replicaQueue, h.Start.Sub(end(reqRecv.Span)))
	if p.Span.Phase == "query" {
		ts.handleQuery = append(ts.handleQuery, h.Dur)
		return
	}
	self := h.Dur
	if wal := child(handle, "wal-append", closer); wal != nil {
		ts.walAppend = append(ts.walAppend, wal.Span.Dur)
		self -= wal.Span.Dur
	}
	ts.handleUpdateSelf = append(ts.handleUpdateSelf, self)
}

// child returns n's first child of the given kind emitted by node.
func child(n *obs.TraceNode, kind string, node int64) *obs.TraceNode {
	for _, c := range n.Children {
		if c.Span.Kind == kind && c.Span.Node == node {
			return c
		}
	}
	return nil
}

// writeSpans stores the spans as JSONL, the format abd-trace reads.
func writeSpans(path string, spans []obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	j := obs.NewJSONL(f)
	for _, s := range spans {
		j.Emit(s)
	}
	if err := j.Close(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
