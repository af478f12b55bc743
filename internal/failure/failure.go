// Package failure drives fault injection from scripted schedules of
// crashes, partitions, link blocks, delay spikes, link-level fault mixes,
// and connection resets. One schedule drives either substrate with the
// same meaning: every fault comes from internal/chaos, which both the
// simulated network (internal/netsim) and the nemesis TCP cluster
// (internal/nemesis) embed, so both implement Fabric. Schedules can be
// built programmatically or parsed from the compact script syntax
// cmd/abd-sim accepts:
//
//	crash:2@100ms; partition:0,1|2,3,4@200ms; heal@400ms; delay:3.0@1s;
//	block:0>2@1.5s; faults:*:drop=0.3,dup=0.1@2s; faults:0>1:delay=1ms..5ms@2s;
//	reset:*@2.5s; faults:*:none@3s; byz:2:fabricate@3.5s; byz:2:off@4s
//
// Each event is "<action>@<offset>", offsets relative to Run's start.
package failure

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/types"
)

// Fabric is the network substrate a schedule manipulates: the chaos
// controller's fault surface. *chaos.Net implements it, and so do
// *netsim.Net and the nemesis cluster by embedding one; the nemesis
// cluster overrides Crash and Recover with true process crash/restart, and
// netsim's SetDelayScale also scales the simulated channel delay. Resets
// act only on substrates with connections to tear down (tcpnet); on the
// simulator they are no-ops.
type Fabric interface {
	Crash(types.NodeID)
	Recover(types.NodeID)
	Partition(groups ...[]types.NodeID)
	Heal()
	BlockLink(from, to types.NodeID)
	UnblockLink(from, to types.NodeID)
	SetDelayScale(float64)
	SetDefaultFaults(chaos.Faults)
	SetLinkFaults(from, to types.NodeID, f chaos.Faults)
	ResetLink(from, to types.NodeID)
	ResetAll()
}

// ByzController is the optional Fabric extension for semantic (Byzantine)
// faults: SetByzantine makes node start lying with the given strategy, or
// stop (mode 0). Implemented by core.Liars — protocol-rewriting chaos
// interceptors on the replicas' outbound paths — which the nemesis cluster
// and abd-sim's simulated cluster carry in Byzantine mode; byz actions are
// no-ops on a fabric without liars.
type ByzController interface {
	SetByzantine(node types.NodeID, mode int)
}

// Action is one fault applied to the network.
type Action interface {
	Apply(f Fabric)
	String() string
}

// Crash fail-stops a node.
type Crash struct{ Node types.NodeID }

// Apply implements Action.
func (a Crash) Apply(f Fabric) { f.Crash(a.Node) }

func (a Crash) String() string { return fmt.Sprintf("crash:%d", a.Node) }

// Recover clears a node's crash flag (outside the paper's model; for
// crash-recovery scenarios).
type Recover struct{ Node types.NodeID }

// Apply implements Action.
func (a Recover) Apply(f Fabric) { f.Recover(a.Node) }

func (a Recover) String() string { return fmt.Sprintf("recover:%d", a.Node) }

// Partition splits the network into groups.
type Partition struct{ Groups [][]types.NodeID }

// Apply implements Action.
func (a Partition) Apply(f Fabric) { f.Partition(a.Groups...) }

func (a Partition) String() string {
	sides := make([]string, len(a.Groups))
	for i, g := range a.Groups {
		ids := make([]string, len(g))
		for j, id := range g {
			ids[j] = strconv.Itoa(int(id))
		}
		sides[i] = strings.Join(ids, ",")
	}
	return "partition:" + strings.Join(sides, "|")
}

// Heal removes any partition.
type Heal struct{}

// Apply implements Action.
func (a Heal) Apply(f Fabric) { f.Heal() }

func (a Heal) String() string { return "heal" }

// Block drops messages on one directed link.
type Block struct{ From, To types.NodeID }

// Apply implements Action.
func (a Block) Apply(f Fabric) { f.BlockLink(a.From, a.To) }

func (a Block) String() string { return fmt.Sprintf("block:%d>%d", a.From, a.To) }

// Unblock re-enables a blocked link.
type Unblock struct{ From, To types.NodeID }

// Apply implements Action.
func (a Unblock) Apply(f Fabric) { f.UnblockLink(a.From, a.To) }

func (a Unblock) String() string { return fmt.Sprintf("unblock:%d>%d", a.From, a.To) }

// Delay scales all message delays by Factor (1 restores the baseline).
type Delay struct{ Factor float64 }

// Apply implements Action.
func (a Delay) Apply(f Fabric) { f.SetDelayScale(a.Factor) }

func (a Delay) String() string { return fmt.Sprintf("delay:%g", a.Factor) }

// LinkFaults installs a chaos fault mix on one directed link, or — with
// All set — as the default for every link. A zero Faults value clears the
// target.
type LinkFaults struct {
	From, To types.NodeID
	All      bool
	Faults   chaos.Faults
}

// Apply implements Action.
func (a LinkFaults) Apply(f Fabric) {
	if a.All {
		f.SetDefaultFaults(a.Faults)
		return
	}
	f.SetLinkFaults(a.From, a.To, a.Faults)
}

func (a LinkFaults) String() string {
	target := "*"
	if !a.All {
		target = fmt.Sprintf("%d>%d", a.From, a.To)
	}
	return fmt.Sprintf("faults:%s:%s", target, a.Faults)
}

// Reset tears down the live connection under one directed link, or every
// connection with All set. No-op on a connectionless substrate (netsim has
// no connections to reset).
type Reset struct {
	From, To types.NodeID
	All      bool
}

// Apply implements Action.
func (a Reset) Apply(f Fabric) {
	if a.All {
		f.ResetAll()
		return
	}
	f.ResetLink(a.From, a.To)
}

func (a Reset) String() string {
	if a.All {
		return "reset:*"
	}
	return fmt.Sprintf("reset:%d>%d", a.From, a.To)
}

// Byzantine lying strategies, by script name. The mode ints match
// core.ByzMode's values (1..4); they are redeclared here because failure
// sits below core in the layering and must not import it. 0 is honesty.
var byzModes = map[string]int{
	"off":        0,
	"fabricate":  1,
	"stale":      2,
	"silent":     3,
	"equivocate": 4,
}

// byzModeName inverts byzModes for rendering.
func byzModeName(mode int) string {
	for name, m := range byzModes {
		if m == mode {
			return name
		}
	}
	return strconv.Itoa(mode)
}

// Byz makes a node lie with the given strategy — fabricated max-tags,
// stale state, selective silence, per-client equivocation — or return to
// honesty (mode 0). Script syntax: "byz:<node>:<fabricate|stale|silent|
// equivocate|off>". No-op on fabrics without the ByzController extension.
type Byz struct {
	Node types.NodeID
	Mode int
}

// Apply implements Action.
func (a Byz) Apply(f Fabric) {
	if bc, ok := f.(ByzController); ok {
		bc.SetByzantine(a.Node, a.Mode)
	}
}

func (a Byz) String() string { return fmt.Sprintf("byz:%d:%s", a.Node, byzModeName(a.Mode)) }

// Event is an action scheduled at an offset from the schedule's start.
type Event struct {
	At     time.Duration
	Action Action
}

// Schedule is a time-ordered fault script.
type Schedule []Event

// Run applies the schedule against the fabric, sleeping between events. It
// returns when all events have fired or the context is cancelled. Run is
// synchronous; callers usually invoke it in a goroutine alongside the
// workload.
func (s Schedule) Run(ctx context.Context, f Fabric) error {
	events := make([]Event, len(s))
	copy(events, s)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })

	start := time.Now()
	for _, ev := range events {
		wait := ev.At - time.Since(start)
		if wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			}
		}
		ev.Action.Apply(f)
	}
	return nil
}

// String renders the schedule in the parseable script syntax.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, ev := range s {
		parts[i] = fmt.Sprintf("%s@%s", ev.Action, ev.At)
	}
	return strings.Join(parts, "; ")
}

// Nodes returns every node id the schedule references, deduplicated.
func (s Schedule) Nodes() []types.NodeID {
	seen := make(map[types.NodeID]bool)
	for _, ev := range s {
		for _, id := range actionNodes(ev.Action) {
			seen[id] = true
		}
	}
	out := make([]types.NodeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func actionNodes(a Action) []types.NodeID {
	switch a := a.(type) {
	case Crash:
		return []types.NodeID{a.Node}
	case Recover:
		return []types.NodeID{a.Node}
	case Partition:
		var ids []types.NodeID
		for _, g := range a.Groups {
			ids = append(ids, g...)
		}
		return ids
	case Block:
		return []types.NodeID{a.From, a.To}
	case Unblock:
		return []types.NodeID{a.From, a.To}
	case LinkFaults:
		if a.All {
			return nil
		}
		return []types.NodeID{a.From, a.To}
	case Reset:
		if a.All {
			return nil
		}
		return []types.NodeID{a.From, a.To}
	case Byz:
		return []types.NodeID{a.Node}
	default:
		return nil
	}
}

// Validate checks that every node id the schedule references lies in
// [0, n) — the replica id range of an n-node cluster. Scripts are written
// against a cluster size the parser cannot know, so out-of-range ids
// (e.g. "crash:7" on a 5-node cluster) surface here instead of silently
// doing nothing at run time.
func (s Schedule) Validate(n int) error {
	for _, id := range s.Nodes() {
		if int(id) >= n {
			return fmt.Errorf("failure: schedule references node %d, cluster has ids 0..%d", id, n-1)
		}
	}
	return nil
}

// Parse reads the script syntax. Whitespace around separators is ignored.
// Duplicate offsets are allowed; simultaneous events fire in script order.
func Parse(script string) (Schedule, error) {
	var out Schedule
	for _, part := range strings.Split(script, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		at := strings.LastIndex(part, "@")
		if at < 0 {
			return nil, fmt.Errorf("failure: event %q missing @offset", part)
		}
		offset, err := time.ParseDuration(strings.TrimSpace(part[at+1:]))
		if err != nil {
			return nil, fmt.Errorf("failure: event %q: %w", part, err)
		}
		if offset < 0 {
			return nil, fmt.Errorf("failure: event %q: negative offset", part)
		}
		action, err := parseAction(strings.TrimSpace(part[:at]))
		if err != nil {
			return nil, err
		}
		out = append(out, Event{At: offset, Action: action})
	}
	return out, nil
}

func parseAction(s string) (Action, error) {
	name, args, _ := strings.Cut(s, ":")
	switch name {
	case "crash":
		id, err := parseNode(args)
		if err != nil {
			return nil, fmt.Errorf("failure: crash: %w", err)
		}
		return Crash{Node: id}, nil
	case "recover":
		id, err := parseNode(args)
		if err != nil {
			return nil, fmt.Errorf("failure: recover: %w", err)
		}
		return Recover{Node: id}, nil
	case "partition":
		var groups [][]types.NodeID
		for _, side := range strings.Split(args, "|") {
			var group []types.NodeID
			for _, tok := range strings.Split(side, ",") {
				id, err := parseNode(tok)
				if err != nil {
					return nil, fmt.Errorf("failure: partition: %w", err)
				}
				group = append(group, id)
			}
			groups = append(groups, group)
		}
		return Partition{Groups: groups}, nil
	case "heal":
		return Heal{}, nil
	case "block", "unblock":
		from, to, err := parseLink(name, args)
		if err != nil {
			return nil, err
		}
		if name == "block" {
			return Block{From: from, To: to}, nil
		}
		return Unblock{From: from, To: to}, nil
	case "delay":
		f, err := strconv.ParseFloat(strings.TrimSpace(args), 64)
		if err != nil {
			return nil, fmt.Errorf("failure: delay: %w", err)
		}
		return Delay{Factor: f}, nil
	case "faults":
		target, spec, ok := strings.Cut(args, ":")
		if !ok {
			return nil, fmt.Errorf("failure: faults: want faults:<link|*>:<k=v,...>, got %q", args)
		}
		fl := LinkFaults{}
		if strings.TrimSpace(target) == "*" {
			fl.All = true
		} else {
			from, to, err := parseLink("faults", target)
			if err != nil {
				return nil, err
			}
			fl.From, fl.To = from, to
		}
		f, err := chaos.ParseFaults(spec)
		if err != nil {
			return nil, fmt.Errorf("failure: faults: %w", err)
		}
		fl.Faults = f
		return fl, nil
	case "reset":
		if strings.TrimSpace(args) == "*" {
			return Reset{All: true}, nil
		}
		from, to, err := parseLink("reset", args)
		if err != nil {
			return nil, err
		}
		return Reset{From: from, To: to}, nil
	case "byz":
		nodeS, modeS, ok := strings.Cut(args, ":")
		if !ok {
			return nil, fmt.Errorf("failure: byz: want byz:<node>:<mode>, got %q", args)
		}
		id, err := parseNode(nodeS)
		if err != nil {
			return nil, fmt.Errorf("failure: byz: %w", err)
		}
		mode, ok := byzModes[strings.TrimSpace(modeS)]
		if !ok {
			return nil, fmt.Errorf("failure: byz: unknown mode %q (want fabricate, stale, silent, equivocate, or off)", modeS)
		}
		return Byz{Node: id, Mode: mode}, nil
	default:
		return nil, fmt.Errorf("failure: unknown action %q", name)
	}
}

func parseLink(action, args string) (from, to types.NodeID, err error) {
	fromS, toS, ok := strings.Cut(args, ">")
	if !ok {
		return 0, 0, fmt.Errorf("failure: %s: want from>to, got %q", action, args)
	}
	if from, err = parseNode(fromS); err != nil {
		return 0, 0, fmt.Errorf("failure: %s: %w", action, err)
	}
	if to, err = parseNode(toS); err != nil {
		return 0, 0, fmt.Errorf("failure: %s: %w", action, err)
	}
	return from, to, nil
}

func parseNode(s string) (types.NodeID, error) {
	id, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("node id %q: %w", s, err)
	}
	if id < 0 {
		return 0, fmt.Errorf("node id %d: negative", id)
	}
	return types.NodeID(id), nil
}
