package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"venn/internal/client"
	"venn/internal/obs"
	"venn/internal/server"
)

// Defaults for Config.
const (
	DefaultHealthInterval = time.Second
	DefaultFailAfter      = 3
	DefaultTimeout        = 5 * time.Second
)

// PeerClient is the slice of the stream-client surface forwarding needs.
// *client.StreamClient implements it; tests inject fakes through
// Config.Dial.
//
// The Raw variants carry a pre-encoded v2 batch: items is the concatenation
// of n already-encoded batch items (exactly the bytes that followed the
// count prefix on the frames they arrived in), relayed verbatim into the hop
// frame.
//
// trace is the originating request's sampled span ID (0 when unsampled): a
// nonzero trace rides in the hop frame's trace context so the owner records
// the hop under the same trace ID (see internal/obs).
type PeerClient interface {
	Ping() error
	CheckInForward(ci server.CheckIn, trace uint64) (server.Assignment, error)
	CheckInBatchForward(cis []server.CheckIn, trace uint64) ([]server.CheckInResult, error)
	CheckInBatchForwardRaw(items []byte, n int, trace uint64) ([]server.CheckInResult, error)
	ReportForward(r server.Report, trace uint64) error
	ReportBatchForward(rs []server.Report, trace uint64) ([]server.ReportResult, error)
	ReportBatchForwardRaw(items []byte, n int, trace uint64) ([]server.ReportResult, error)
	Close() error
}

// Config parameterizes a federation member.
type Config struct {
	// SelfID is this daemon's member ID — the stream address its peers dial,
	// exactly as it appears in every member's Peers list.
	SelfID string
	// Peers lists the stream addresses of every cluster member — the full
	// membership, SelfID's own entry included (order is irrelevant; an
	// empty list runs a single-member cluster). New rejects a non-empty
	// list that lacks SelfID: a self-ID spelled differently from its peers
	// entry (":8081" vs "10.0.0.1:8081") would silently put a phantom
	// member on the ring, splitting ownership of its arcs across every
	// node. Every member must be configured with the same set or their
	// rings will disagree — the hop guard keeps that mistake from looping
	// requests, but ownership locality suffers.
	Peers []string
	// VNodes is the virtual-node count per member (default DefaultVNodes).
	VNodes int
	// HealthInterval is the peer-ping period (default 1s).
	HealthInterval time.Duration
	// FailAfter marks a peer down after this many consecutive failed pings
	// (default 3). A down peer's requests are applied locally until it
	// answers a ping again.
	FailAfter int
	// Timeout bounds one forwarded request round trip, dial included
	// (default 5s).
	Timeout time.Duration
	// StreamConns is the connection-pool size per peer (default
	// client.DefaultStreamConns).
	StreamConns int
	// Dial overrides peer-client construction (tests). nil dials a real
	// client.StreamClient with Timeout and StreamConns applied.
	Dial func(addr string) PeerClient
}

func (c *Config) fillDefaults() {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = DefaultHealthInterval
	}
	if c.FailAfter <= 0 {
		c.FailAfter = DefaultFailAfter
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.StreamConns <= 0 {
		c.StreamConns = client.DefaultStreamConns
	}
}

// peer is one remote member: its ID (dial address), its pooled stream
// client, and its health state. fails is touched only by the health loop;
// down is atomic so telemetry can read it anywhere.
type peer struct {
	id    string
	c     PeerClient
	fails int
	down  atomic.Bool
	// Per-peer forward coalescers for the zero-copy relay (see relay.go).
	ciRelay  *relay[server.CheckInResult]
	repRelay *relay[server.ReportResult]
}

// snapshot is the immutable routing view the serving hot path reads: the
// (static) ownership ring plus the currently-alive peers. The health loop
// republishes it on every up/down transition; readers load it once per
// request and never take a lock — the PlanSnapshot pattern applied to
// membership.
type snapshot struct {
	ring  *Ring
	alive map[string]*peer // remote members currently considered up
}

// Cluster shards device ownership across the member daemons and forwards
// misrouted requests to their owners. It implements server.Router (attach
// via server.Manager.SetRouter) and server.ClusterTelemetrySource. All
// methods are safe for concurrent use.
type Cluster struct {
	cfg   Config
	m     *server.Manager
	ring  *Ring
	peers []*peer // remote members, sorted by ID

	snap atomic.Pointer[snapshot]

	// fwdMu gates new forwards against drain: forwards take the read side,
	// BeginDrain flips draining under the write side, and inflight counts
	// forwards between acquire and completion so Close can wait them out.
	fwdMu    sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	forwardsIn          atomic.Int64
	forwardsOut         atomic.Int64
	forwardErrs         atomic.Int64
	localFallbacks      atomic.Int64
	directRoutedBatches atomic.Int64
	forwardBytesIn      atomic.Int64
	forwardBytesOut     atomic.Int64
	topologyPushes      atomic.Int64

	// epoch advances whenever the live membership changes; topo holds the
	// payload ring-aware clients fetch (published by publish, which only
	// runs on New's goroutine and then the health loop's).
	epoch atomic.Uint64
	topo  atomic.Pointer[server.TopologyInfo]

	stop      chan struct{}
	healthWG  sync.WaitGroup
	closeOnce sync.Once
}

// New builds the federation layer over m and attaches it: the manager's
// Service entry points route through the cluster from here on, and
// /v1/metrics carries the federation counters. Call Close (after draining
// the transports) to detach and tear down the peer pools.
//
// Peer connections dial lazily on first use, so New succeeds even while
// peers are still starting; the health loop governs up/down from then on.
func New(m *server.Manager, cfg Config) (*Cluster, error) {
	cfg.fillDefaults()
	if cfg.SelfID == "" {
		return nil, errors.New("cluster: SelfID required (the stream address peers dial)")
	}
	if len(cfg.Peers) > 0 {
		found := false
		for _, p := range cfg.Peers {
			if p == cfg.SelfID {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cluster: self ID %q is not in the peers list %v — every member's ID must match its entry in the shared member list exactly (set -node-id to this node's address as the peers know it)", cfg.SelfID, cfg.Peers)
		}
	}
	members := append([]string{cfg.SelfID}, cfg.Peers...)
	ring := NewRing(members, cfg.VNodes)
	c := &Cluster{
		cfg:  cfg,
		m:    m,
		ring: ring,
		stop: make(chan struct{}),
	}
	dial := cfg.Dial
	if dial == nil {
		dial = func(addr string) PeerClient {
			return client.NewStream(addr, client.WithStreamConns(cfg.StreamConns), client.WithTimeout(cfg.Timeout))
		}
	}
	for _, id := range ring.Members() {
		if id == cfg.SelfID {
			continue
		}
		p := &peer{id: id, c: dial(id)}
		p.ciRelay = newRelay(c, p, PeerClient.CheckInBatchForwardRaw)
		p.repRelay = newRelay(c, p, PeerClient.ReportBatchForwardRaw)
		c.peers = append(c.peers, p)
	}
	c.publish()
	c.healthWG.Add(1)
	go c.healthLoop()
	m.SetRouter(c)
	m.SetClusterTelemetrySource(c)
	m.SetTopologySource(c)
	return c, nil
}

// Ring exposes the (static) ownership ring.
func (c *Cluster) Ring() *Ring { return c.ring }

// publish installs a fresh routing snapshot from the peers' current health
// state, and — when the live membership actually changed — advances the
// topology epoch and pushes the new topology at subscribed client
// connections. Called at construction and by the health loop on transitions
// (never concurrently: both run on one goroutine at a time).
func (c *Cluster) publish() {
	alive := make(map[string]*peer, len(c.peers))
	for _, p := range c.peers {
		if !p.down.Load() {
			alive[p.id] = p
		}
	}
	c.snap.Store(&snapshot{ring: c.ring, alive: alive})

	members := make([]string, 0, len(alive)+1)
	members = append(members, c.cfg.SelfID)
	for id := range alive {
		members = append(members, id)
	}
	sort.Strings(members)
	if prev := c.topo.Load(); prev != nil && slices.Equal(prev.Members, members) {
		return
	}
	info := server.TopologyInfo{
		Epoch:   c.epoch.Add(1),
		VNodes:  c.ring.VNodes(),
		Members: members,
	}
	c.topo.Store(&info)
	if pushed := c.m.NotifyTopologyChanged(info); pushed > 0 {
		c.topologyPushes.Add(int64(pushed))
	}
}

// Topology implements server.TopologySource: the topology served to (and
// pushed at) ring-aware clients. Members lists the *live* members — self
// plus peers currently passing health probes — so clients stop routing at a
// daemon this node considers dead.
func (c *Cluster) Topology() server.TopologyInfo {
	return *c.topo.Load()
}

// healthLoop pings every peer each HealthInterval and republishes the
// routing snapshot when any peer changes state. It is the only goroutine
// that mutates health state, so transitions need no lock.
func (c *Cluster) healthLoop() {
	defer c.healthWG.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probePeers()
		}
	}
}

// probePeers runs one health round. Probes run concurrently so one dead
// peer's dial timeout doesn't delay the others' verdicts.
func (c *Cluster) probePeers() {
	errs := make([]error, len(c.peers))
	var wg sync.WaitGroup
	for i, p := range c.peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			errs[i] = p.c.Ping()
		}(i, p)
	}
	wg.Wait()
	changed := false
	for i, p := range c.peers {
		if errs[i] != nil {
			p.fails++
			if p.fails >= c.cfg.FailAfter && !p.down.Load() {
				p.down.Store(true)
				changed = true
			}
			continue
		}
		p.fails = 0
		if p.down.Load() {
			p.down.Store(false)
			changed = true
		}
	}
	if changed {
		c.publish()
	}
}

// acquireForward registers a new outbound forward unless the cluster is
// draining. Every true return must be paired with c.inflight.Done().
func (c *Cluster) acquireForward() bool {
	c.fwdMu.RLock()
	ok := !c.draining
	if ok {
		c.inflight.Add(1)
	}
	c.fwdMu.RUnlock()
	return ok
}

// BeginDrain stops originating new forwards: from now on every request is
// applied locally, so shutdown never races fresh work onto peer
// connections that are about to close. In-flight forwards are unaffected;
// Close waits for them.
func (c *Cluster) BeginDrain() {
	c.fwdMu.Lock()
	c.draining = true
	c.fwdMu.Unlock()
}

// Close tears the federation layer down in drain order: stop new forwards,
// stop the health loop, wait for in-flight forwarded frames to be answered,
// detach from the manager, then close the peer stream clients. Safe to call
// more than once.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		c.BeginDrain()
		close(c.stop)
		c.healthWG.Wait()
		c.inflight.Wait()
		c.m.ClearRouter(c)
		c.m.ClearClusterTelemetrySource(c)
		c.m.ClearTopologySource(c)
		for _, p := range c.peers {
			_ = p.c.Close()
		}
	})
	return nil
}

// remoteErr converts a typed remote rejection (the owner answered, saying
// no) into the service layer's error type; transport failures return
// ok=false.
func remoteErr(err error) (error, bool) {
	var se *client.StreamError
	if errors.As(err, &se) {
		return &server.Error{Code: se.Code, Err: errors.New(se.Msg)}, true
	}
	return err, false
}

// forwardFailed classifies a failed forward. fallbackLocal is true only
// when the request provably never reached the owner (dial or write
// failure), in which case applying it locally cannot double-apply — that
// outcome is invisible to the caller, so it counts as a local fallback, not
// a forward error. An authoritative rejection from the owner passes through
// typed; an ambiguous failure (timeout, connection lost mid-flight — the
// owner may have applied the request) counts as a forward error and becomes
// a typed CodeUnavailable so the caller retries instead of this node
// guessing and diverging device state.
func (c *Cluster) forwardFailed(err error) (fallbackLocal bool, typed error) {
	if typedErr, ok := remoteErr(err); ok {
		return false, typedErr
	}
	var ns *client.NotSentError
	if errors.As(err, &ns) {
		c.localFallbacks.Add(1)
		return true, nil
	}
	c.forwardErrs.Add(1)
	return false, &server.Error{Code: server.CodeUnavailable, Err: fmt.Errorf("cluster: forward to owner failed: %w", err)}
}

// route resolves the owner of deviceID under the current snapshot. It
// returns nil when the request should be applied locally — because this
// node owns it, the ID is unroutable, or the owner is down (counted as a
// fallback) — and the owning live peer otherwise.
func (c *Cluster) route(deviceID string) *peer {
	if deviceID == "" {
		return nil
	}
	snap := c.snap.Load()
	owner := snap.ring.Owner(deviceID)
	if owner == c.cfg.SelfID {
		return nil
	}
	p, up := snap.alive[owner]
	if !up {
		c.localFallbacks.Add(1)
		return nil
	}
	return p
}

// ForwardedIn implements server.Router: the transport layer reports each
// hop-flagged frame it serves, with its payload size (forward_bytes_in
// counts every hop frame received, whatever its version).
func (c *Cluster) ForwardedIn(bytes int) {
	c.forwardsIn.Add(1)
	c.forwardBytesIn.Add(int64(bytes))
}

// forwardOne serves one request on the owner of deviceID: forwarded when
// the owner is a live peer, applied locally (via local) when this node owns
// it, the owner is down, the cluster is draining, or the forward provably
// never left this node. A typed rejection from the owner (busy, invalid,
// not-found) is authoritative and returned as-is; an ambiguous transport
// failure surfaces as CodeUnavailable (see forwardFailed). A sampled span
// gets the forward round trip attributed to its hop stage (clock reads
// span-gated).
func forwardOne[Res any](c *Cluster, deviceID string, sp *obs.Span,
	forward func(PeerClient) (Res, error), local func() (Res, error)) (Res, error) {
	p := c.route(deviceID)
	if p == nil {
		return local()
	}
	if !c.acquireForward() {
		c.localFallbacks.Add(1)
		return local()
	}
	defer c.inflight.Done()
	c.forwardsOut.Add(1)
	sp.SetForwarded()
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	res, err := forward(p.c)
	if sp != nil {
		sp.Mark(obs.StageHop, time.Since(t0))
	}
	if err == nil {
		return res, nil
	}
	if fallback, typed := c.forwardFailed(err); !fallback {
		var zero Res
		return zero, typed
	}
	return local()
}

// CheckIn implements server.Router.
func (c *Cluster) CheckIn(ci server.CheckIn, sp *obs.Span) (server.Assignment, error) {
	return forwardOne(c, ci.DeviceID, sp,
		func(pc PeerClient) (server.Assignment, error) { return pc.CheckInForward(ci, sp.TraceID()) },
		func() (server.Assignment, error) { return c.m.DeviceCheckInSpan(ci, sp) })
}

// Report implements server.Router.
func (c *Cluster) Report(r server.Report, sp *obs.Span) error {
	_, err := forwardOne(c, r.DeviceID, sp,
		func(pc PeerClient) (struct{}, error) { return struct{}{}, pc.ReportForward(r, sp.TraceID()) },
		func() (struct{}, error) { return struct{}{}, c.m.DeviceReportSpan(r, sp) })
	return err
}

// batchPlan partitions batch indices by serving node: local items (owned
// here, unroutable, or owned by a down peer) and one index group per live
// remote owner.
type batchPlan struct {
	local  []int
	remote map[*peer][]int
}

// planBatch splits items by owner under one snapshot load. ids yields the
// device ID of item i. Down owners are counted as one fallback per batch
// (frame granularity, matching forwardsOut).
func (c *Cluster) planBatch(n int, ids func(i int) string) batchPlan {
	snap := c.snap.Load()
	var plan batchPlan // remote map allocated on first remote item — direct
	// routing makes the all-local batch the steady state
	var downSeen map[string]struct{}
	for i := 0; i < n; i++ {
		id := ids(i)
		if id == "" {
			plan.local = append(plan.local, i)
			continue
		}
		owner := snap.ring.Owner(id)
		if owner == c.cfg.SelfID {
			plan.local = append(plan.local, i)
			continue
		}
		p, up := snap.alive[owner]
		if !up {
			if downSeen == nil {
				downSeen = make(map[string]struct{})
			}
			if _, dup := downSeen[owner]; !dup {
				downSeen[owner] = struct{}{}
				c.localFallbacks.Add(1)
			}
			plan.local = append(plan.local, i)
			continue
		}
		if plan.remote == nil {
			plan.remote = make(map[*peer][]int)
		}
		plan.remote[p] = append(plan.remote[p], i)
	}
	return plan
}

// forwardBatch is the shared engine behind the legacy (decode→re-encode)
// batch entry points: split by owner (planBatch), forward each remote group
// in one frame concurrently, apply the local group inline, and merge
// everything back into request order with per-item errors preserved. A
// remote group whose forward provably never left this node is applied
// locally (degraded mode); a group the owner rejected, or whose outcome is
// unknown, reports the failure on each of its items via errItem — items are
// never dropped, and never guess-applied on the wrong node. One in-flight
// permit covers the whole batch's forwards. The returned bool reports
// whether any item was planned onto a peer (the forwarded flag a ring-aware
// client reads as "your topology is stale"). A sampled span has each remote
// group's round trip accumulated into its hop stage (the groups overlap, so
// the mark is wall time spent forwarding, not a disjoint sum).
func forwardBatch[Req, Res any](c *Cluster, items []Req, sp *obs.Span, deviceID func(Req) string,
	forward func(PeerClient, []Req, uint64) ([]Res, error), local func([]Req) []Res,
	errItem func(msg string) Res) ([]Res, bool) {
	plan := c.planBatch(len(items), func(i int) string { return deviceID(items[i]) })
	if len(plan.remote) == 0 {
		// Every item is local, in request order: serve the batch as-is, no
		// gather copy, no merge. This is the steady state under ring-aware
		// clients.
		c.directRoutedBatches.Add(1)
		return local(items), false
	}
	out := make([]Res, len(items))

	canForward := c.acquireForward()
	forwarded := canForward
	if !canForward {
		// Draining: apply every remote group locally.
		for _, idxs := range plan.remote {
			c.localFallbacks.Add(1)
			plan.local = append(plan.local, idxs...)
		}
		plan.remote = nil
	}
	gather := func(idxs []int) []Req {
		sub := make([]Req, len(idxs))
		for j, i := range idxs {
			sub[j] = items[i]
		}
		return sub
	}
	if len(plan.remote) > 0 {
		sp.SetForwarded()
	}
	var wg sync.WaitGroup
	for p, idxs := range plan.remote {
		wg.Add(1)
		go func(p *peer, idxs []int) {
			defer wg.Done()
			sub := gather(idxs)
			c.forwardsOut.Add(1)
			var t0 time.Time
			if sp != nil {
				t0 = time.Now()
			}
			res, err := forward(p.c, sub, sp.TraceID())
			if sp != nil {
				sp.Mark(obs.StageHop, time.Since(t0))
			}
			if err != nil {
				if fallback, typed := c.forwardFailed(err); fallback {
					res = local(sub)
				} else {
					fill := errItem(typed.Error())
					res = make([]Res, len(sub))
					for j := range res {
						res[j] = fill
					}
				}
			}
			for j, i := range idxs {
				out[i] = res[j]
			}
		}(p, idxs)
	}
	if len(plan.local) > 0 {
		res := local(gather(plan.local))
		for j, i := range plan.local {
			out[i] = res[j]
		}
	}
	wg.Wait()
	if canForward {
		c.inflight.Done()
	}
	return out, forwarded
}

// CheckInBatch implements server.Router (see forwardBatch for the split,
// fan-out, and merge contract).
func (c *Cluster) CheckInBatch(cis []server.CheckIn, sp *obs.Span) ([]server.CheckInResult, bool) {
	return forwardBatch(c, cis, sp,
		func(ci server.CheckIn) string { return ci.DeviceID },
		PeerClient.CheckInBatchForward,
		func(sub []server.CheckIn) []server.CheckInResult { return c.m.CheckInBatchSpan(sub, sp) },
		func(msg string) server.CheckInResult { return server.CheckInResult{Error: msg} })
}

// ReportBatch implements server.Router (see forwardBatch for the split,
// fan-out, and merge contract).
func (c *Cluster) ReportBatch(rs []server.Report, sp *obs.Span) ([]server.ReportResult, bool) {
	return forwardBatch(c, rs, sp,
		func(r server.Report) string { return r.DeviceID },
		PeerClient.ReportBatchForward,
		func(sub []server.Report) []server.ReportResult { return c.m.ReportBatchSpan(sub, sp) },
		func(msg string) server.ReportResult { return server.ReportResult{Error: msg} })
}

// ClusterTelemetry implements server.ClusterTelemetrySource. It reads only
// atomics and the immutable snapshot, per that interface's contract (the
// manager polls it under its own mutex).
func (c *Cluster) ClusterTelemetry() server.ClusterTelemetry {
	snap := c.snap.Load()
	states := make(map[string]string, len(c.peers))
	for _, p := range c.peers {
		if _, up := snap.alive[p.id]; up {
			states[p.id] = "up"
		} else {
			states[p.id] = "down"
		}
	}
	return server.ClusterTelemetry{
		NodeID:              c.cfg.SelfID,
		RingSize:            c.ring.Size(),
		VNodes:              c.ring.VNodes(),
		PeerStates:          states,
		ForwardsIn:          c.forwardsIn.Load(),
		ForwardsOut:         c.forwardsOut.Load(),
		ForwardErrors:       c.forwardErrs.Load(),
		LocalFallbacks:      c.localFallbacks.Load(),
		DirectRoutedBatches: c.directRoutedBatches.Load(),
		TopologyEpoch:       c.epoch.Load(),
		TopologyPushes:      c.topologyPushes.Load(),
		ForwardBytesIn:      c.forwardBytesIn.Load(),
		ForwardBytesOut:     c.forwardBytesOut.Load(),
	}
}

// Counters returns the raw federation counters (tests, harnesses).
func (c *Cluster) Counters() (forwardsIn, forwardsOut, forwardErrs, localFallbacks int64) {
	return c.forwardsIn.Load(), c.forwardsOut.Load(), c.forwardErrs.Load(), c.localFallbacks.Load()
}

var _ server.Router = (*Cluster)(nil)
var _ server.ClusterTelemetrySource = (*Cluster)(nil)
var _ server.TopologySource = (*Cluster)(nil)

// String identifies the member for logs.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster node %s (%d members, %d vnodes)", c.cfg.SelfID, c.ring.Size(), c.ring.VNodes())
}
