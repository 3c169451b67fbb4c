package cluster

import (
	"fmt"
	"sync"
	"time"

	"venn/internal/obs"
	"venn/internal/server"
	"venn/internal/transport"
)

// Relay tuning. A relay coalesces the forwarded slices of many concurrently
// served batches into one hop frame per peer, so the forward path costs one
// frame per group-commit round instead of one per misrouted batch.
const (
	// relayFlushItems detaches a coalesced batch for an immediate parallel
	// flush once it holds this many items, instead of letting it grow behind
	// the in-flight flush. It must stay ≤ server.MaxBatch or the owner would
	// reject the hop frame; contribute additionally detaches whenever
	// appending a group would cross MaxBatch.
	relayFlushItems = 1024
	// relayFlushBytes detaches once the coalesced payload reaches this size —
	// big enough to amortize the frame, small enough to keep owner-side
	// decode latency flat.
	relayFlushBytes = 128 << 10
)

// relayOut is one coalesced flush's verdict, delivered to every contributing
// group. Exactly one of the three shapes applies: res holds the group's
// results (success), fallback asks the contributor to apply its items
// locally (the flush provably never left this node), or typed carries the
// error to report on each item (authoritative rejection or ambiguous
// outcome; see forwardFailed).
type relayOut[Res any] struct {
	res      []Res
	fallback bool
	typed    error
}

// relayGroup is one batch's contribution to a coalesced flush: n items,
// answered once on ch.
type relayGroup[Res any] struct {
	n  int
	ch chan relayOut[Res]
}

// relayBatch is a detached coalesced batch, ready to send: the concatenated
// still-encoded items, their count, the groups awaiting the verdict, and the
// trace context the hop frame carries. One frame carries one trace, so the
// first sampled contributor's trace ID wins the round — sampling is sparse
// enough (1-in-64 by default) that two sampled requests colliding in one
// commit round is rare, and losing a hop mark merely under-samples.
type relayBatch[Res any] struct {
	buf    []byte
	items  int
	groups []*relayGroup[Res]
	trace  uint64
}

// relay is the per-peer, per-operation coalescer, shaped as a group commit:
// at most one commit flush is on the wire at a time, a contribution arriving
// while the relay is idle flushes immediately (sparse traffic pays zero
// added latency), and contributions arriving while a flush is in flight
// accumulate and are flushed as one frame the moment it completes. The
// coalescing factor therefore self-tunes to load × peer RTT with no timers —
// deadline timers carry millisecond-scale wake slop on many kernels, far
// beyond any window worth configuring here. Size overflow (relayFlushItems /
// relayFlushBytes / MaxBatch) detaches for a parallel flush so one slow
// commit round can't stall a hot peer.
type relay[Res any] struct {
	c *Cluster
	p *peer
	// sendRaw forwards the coalesced items without re-encoding.
	sendRaw func(pc PeerClient, items []byte, n int, trace uint64) ([]Res, error)

	mu       sync.Mutex
	buf      []byte
	items    int
	groups   []*relayGroup[Res]
	trace    uint64
	inFlight bool // a commit flush is on the wire; commitLoop drains what accumulates
}

func newRelay[Res any](c *Cluster, p *peer,
	sendRaw func(pc PeerClient, items []byte, n int, trace uint64) ([]Res, error)) *relay[Res] {
	return &relay[Res]{c: c, p: p, sendRaw: sendRaw}
}

// contribute splices the idxs item ranges of raw into the coalescing buffer
// and returns the group to wait on. The copy happens before contribute
// returns, which is what lets the transport recycle raw.Data when its
// handler finishes. The caller must hold an inflight permit (acquireForward)
// until the group's verdict arrives.
func (r *relay[Res]) contribute(raw server.RawItems, idxs []int, trace uint64) *relayGroup[Res] {
	g := &relayGroup[Res]{n: len(idxs), ch: make(chan relayOut[Res], 1)}
	var full *relayBatch[Res]
	r.mu.Lock()
	// Never let a coalesced batch cross MaxBatch: the owner's service layer
	// rejects larger hop frames outright.
	if r.items > 0 && r.items+len(idxs) > server.MaxBatch {
		full = r.detachLocked()
	}
	if r.buf == nil {
		r.buf = transport.GetBuf(4096)
	}
	for _, i := range idxs {
		r.buf = append(r.buf, raw.Data[raw.Bounds[i]:raw.Bounds[i+1]]...)
	}
	r.items += len(idxs)
	r.groups = append(r.groups, g)
	if r.trace == 0 {
		r.trace = trace
	}
	var sized *relayBatch[Res]
	var commit *relayBatch[Res]
	switch {
	case r.items >= relayFlushItems || len(r.buf) >= relayFlushBytes:
		// Overflow valve: don't let a batch grow unboundedly behind the
		// in-flight commit — detach and send it in parallel right away.
		sized = r.detachLocked()
	case !r.inFlight:
		// Idle relay: waiting can only add latency. Flush immediately and
		// let whatever arrives during the flush accumulate for the next
		// commit round.
		r.inFlight = true
		commit = r.detachLocked()
	}
	r.mu.Unlock()
	if full != nil {
		go r.flush(full)
	}
	if sized != nil {
		go r.flush(sized)
	}
	if commit != nil {
		go r.commitLoop(commit)
	}
	return g
}

// detachLocked takes ownership of the current batch and resets the
// coalescing state. Caller holds mu.
func (r *relay[Res]) detachLocked() *relayBatch[Res] {
	b := &relayBatch[Res]{buf: r.buf, items: r.items, groups: r.groups, trace: r.trace}
	r.buf, r.items, r.groups, r.trace = nil, 0, nil, 0
	return b
}

// commitLoop is the group-commit driver: flush the batch, then keep flushing
// whatever accumulated while the previous flush was on the wire, until a
// round ends with nothing pending. Exactly one commitLoop runs per relay
// (guarded by inFlight), so hop frames for coalesced traffic stay ordered
// per peer while overflow flushes may overtake in parallel.
func (r *relay[Res]) commitLoop(b *relayBatch[Res]) {
	for b != nil {
		r.flush(b)
		r.mu.Lock()
		if r.items > 0 {
			b = r.detachLocked()
		} else {
			r.inFlight = false
			b = nil
		}
		r.mu.Unlock()
	}
}

// flush sends one detached batch to the peer and distributes the verdict to
// every contributing group, in contribution order. One flush is one hop
// frame (forwards_out counts frames, exactly as the legacy per-batch path
// did) and its payload size feeds forward_bytes_out.
func (r *relay[Res]) flush(b *relayBatch[Res]) {
	c := r.c
	c.forwardsOut.Add(1)
	c.forwardBytesOut.Add(int64(len(b.buf) + uvarintLen(uint64(b.items))))
	res, err := r.sendRaw(r.p.c, b.buf, b.items, b.trace)
	if err == nil && len(res) != b.items {
		err = fmt.Errorf("cluster: owner answered %d results for %d forwarded items", len(res), b.items)
	}
	var out relayOut[Res]
	if err != nil {
		fallback, typed := c.forwardFailed(err)
		out = relayOut[Res]{fallback: fallback, typed: typed}
	}
	off := 0
	for _, g := range b.groups {
		o := out
		if err == nil {
			o.res = res[off : off+g.n]
		}
		off += g.n
		g.ch <- o
	}
	transport.PutBuf(b.buf)
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// rawBatch is forwardBatch's zero-copy twin: same split/fan-out/merge
// contract, but remote groups contribute their still-encoded item ranges to
// the per-peer relay instead of re-encoding a fresh frame each. The bool
// reports whether any item was planned onto a peer (the forwarded flag). A
// sampled span's hop stage spans contribute-to-last-verdict — the local
// slice is served while the hop frames are outstanding, so the mark is the
// wall time the request genuinely spent waiting on peers.
func rawBatch[Req, Res any](c *Cluster, items []Req, raw server.RawItems, sp *obs.Span,
	deviceID func(Req) string, getRelay func(p *peer) *relay[Res],
	local func([]Req) []Res, errItem func(msg string) Res) ([]Res, bool) {
	plan := c.planBatch(len(items), func(i int) string { return deviceID(items[i]) })
	if len(plan.remote) == 0 {
		// Every item is local, in request order: serve the batch as-is, no
		// gather copy, no merge. This is the steady state under ring-aware
		// clients.
		c.directRoutedBatches.Add(1)
		return local(items), false
	}
	out := make([]Res, len(items))
	type pending struct {
		idxs []int
		g    *relayGroup[Res]
	}
	var pend []pending
	forwarded := false
	for p, idxs := range plan.remote {
		if !c.acquireForward() {
			c.localFallbacks.Add(1)
			plan.local = append(plan.local, idxs...)
			continue
		}
		forwarded = true
		pend = append(pend, pending{idxs: idxs, g: getRelay(p).contribute(raw, idxs, sp.TraceID())})
	}
	var t0 time.Time
	if sp != nil && len(pend) > 0 {
		sp.SetForwarded()
		t0 = time.Now()
	}
	gather := func(idxs []int) []Req {
		sub := make([]Req, len(idxs))
		for j, i := range idxs {
			sub[j] = items[i]
		}
		return sub
	}
	if len(plan.local) > 0 {
		res := local(gather(plan.local))
		for j, i := range plan.local {
			out[i] = res[j]
		}
	}
	for _, pg := range pend {
		verdict := <-pg.g.ch
		switch {
		case verdict.typed != nil:
			fill := errItem(verdict.typed.Error())
			for _, i := range pg.idxs {
				out[i] = fill
			}
		case verdict.fallback:
			res := local(gather(pg.idxs))
			for j, i := range pg.idxs {
				out[i] = res[j]
			}
		default:
			for j, i := range pg.idxs {
				out[i] = verdict.res[j]
			}
		}
		c.inflight.Done()
	}
	if sp != nil && len(pend) > 0 {
		sp.Mark(obs.StageHop, time.Since(t0))
	}
	return out, forwarded
}

// CheckInBatchRaw implements server.RawRouter (see rawBatch).
func (c *Cluster) CheckInBatchRaw(cis []server.CheckIn, raw server.RawItems, sp *obs.Span) ([]server.CheckInResult, bool) {
	if raw.Data == nil || len(raw.Bounds) != len(cis)+1 {
		return c.CheckInBatch(cis, sp)
	}
	return rawBatch(c, cis, raw, sp,
		func(ci server.CheckIn) string { return ci.DeviceID },
		func(p *peer) *relay[server.CheckInResult] { return p.ciRelay },
		func(sub []server.CheckIn) []server.CheckInResult { return c.m.CheckInBatchSpan(sub, sp) },
		func(msg string) server.CheckInResult { return server.CheckInResult{Error: msg} })
}

// ReportBatchRaw implements server.RawRouter (see rawBatch).
func (c *Cluster) ReportBatchRaw(rs []server.Report, raw server.RawItems, sp *obs.Span) ([]server.ReportResult, bool) {
	if raw.Data == nil || len(raw.Bounds) != len(rs)+1 {
		return c.ReportBatch(rs, sp)
	}
	return rawBatch(c, rs, raw, sp,
		func(r server.Report) string { return r.DeviceID },
		func(p *peer) *relay[server.ReportResult] { return p.repRelay },
		func(sub []server.Report) []server.ReportResult { return c.m.ReportBatchSpan(sub, sp) },
		func(msg string) server.ReportResult { return server.ReportResult{Error: msg} })
}

var _ server.RawRouter = (*Cluster)(nil)
