package server

// The core section. Every mutation of the scheduler core — assignments,
// reports, job arrivals, plan refreshes — runs between lockCore and
// unlockCore: one hold of the core mutex, with the section preamble (supply
// drain, deadline expiry) on entry and a plan republish on exit. Callers
// that serve devices hold their shard mutexes across the section; the
// global lock order is shard locks ascending, then the core mutex.

import (
	"time"

	"venn/internal/obs"
	"venn/internal/simtime"
)

// lockCore takes the core mutex and runs the section preamble, returning
// the section time. A sampled sp records the mutex wait as its queue_wait
// stage; coreHeldSince lets Health spot a wedged section.
func (m *Manager) lockCore(sp *obs.Span) simtime.Time {
	if sp != nil {
		t0 := time.Now()
		m.mu.Lock()
		sp.Mark(obs.StageQueueWait, time.Since(t0))
	} else {
		m.mu.Lock()
	}
	m.coreHeldSince.Store(time.Now().UnixNano())
	now := m.now()
	m.drainSupplyLocked(now)
	m.expireDueLocked(now)
	return now
}

// unlockCore ends the core section. It first republishes the plan if the
// section left it stale, so trailing check-ins keep the lock-free surplus
// path instead of entering the core one by one.
func (m *Manager) unlockCore() {
	if m.lockFreeOK && !m.venn.PlanFresh() {
		m.venn.RefreshPlan(m.now())
	}
	m.coreHeldSince.Store(0)
	m.mu.Unlock()
}

// applyStart starts the span-gated apply timing: at serving rates an
// unconditional clock read per section would cost more than it measures.
func applyStart(sp *obs.Span) time.Time {
	if sp == nil {
		return time.Time{}
	}
	return time.Now()
}

// markApply records the core apply time on a sampled span.
func markApply(sp *obs.Span, t0 time.Time) {
	if sp != nil {
		sp.Mark(obs.StageApply, time.Since(t0))
	}
}
