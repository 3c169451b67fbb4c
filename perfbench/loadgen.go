package main

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"venn/internal/client"
	"venn/internal/device"
	"venn/internal/server"
)

// sleepUntil blocks the calling goroutine until t. Go timers are rounded up
// to a millisecond once the scheduler idles, far too coarse for batches due
// every few hundred microseconds, so the dispatcher (locked to its own
// thread, see main) nanosleeps to just short of the deadline and spins the
// rest. The raw syscall keeps the dispatcher's P across the sleep: handing
// it off would make every wake-up queue for a P behind the response
// goroutines. Sleeps are capped so a stop-the-world never waits long.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 15*time.Microsecond {
			ts := syscall.NsecToTimespec(int64(min(d-10*time.Microsecond, 200*time.Microsecond)))
			_, _, _ = syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
		}
	}
}

// tuneDispatcherThread lowers the calling thread's nanosleep slack to 1µs
// (the kernel default is 50µs). Its priority stays untouched: threads the
// runtime clones from it, and the daemons the benchmark forks from it,
// would inherit any change.
func tuneDispatcherThread() {
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
}

// series collects the samples of one measured rate, possibly over several
// phases (the lo and hi rates are measured in interleaved slices).
type series struct {
	mu    sync.Mutex
	lat   []int64 // check-in batch latency from due, ns
	latAt []int64 // when each was due, ns since the generator started
	call  []int64 // check-in batch latency from send (the client call), ns
	rlat  []int64 // report batch latency from due, ns
	rlAt  []int64
	late  []int64 // dispatcher lateness (send − due), ns; dispatcher-owned
	fails atomic.Int64
}

// phase is one fixed-rate segment of the open-loop schedule: check-in
// batches arrive as a seeded Poisson process at rate check-ins/s, and every
// request is timed from the moment it was due.
type phase struct {
	rate    float64       // offered check-ins per second
	dur     time.Duration // schedule length
	skip    time.Duration // warm-up excluded from latency samples
	jobRate float64       // scripted job arrivals per second
	jct     bool          // jobs registered after skip count toward JCT
	s       *series

	wg    sync.WaitGroup // this phase's check-in requests
	start time.Time
}

func (ph *phase) record(epoch, due, t0, t1 time.Time, report bool) {
	if due.Sub(ph.start) < ph.skip {
		return
	}
	at := int64(due.Sub(epoch))
	s := ph.s
	s.mu.Lock()
	if report {
		s.rlat = append(s.rlat, int64(t1.Sub(due)))
		s.rlAt = append(s.rlAt, at)
	} else {
		s.lat = append(s.lat, int64(t1.Sub(due)))
		s.latAt = append(s.latAt, at)
		s.call = append(s.call, int64(t1.Sub(t0)))
	}
	s.mu.Unlock()
}

// windowSamples is the size of the consecutive windows (in due order) a
// series' figures are taken over: each reported p50 and p90 is the median
// of the window values, each window p90 with fifty samples beyond it. On a
// shared host the tail comes in stretches (co-tenant load, daemon GC
// cycles), so a figure over a whole series swings with how much of such a
// stretch it caught; the median window does not, and still moves when
// every window gets slower or the stretches get longer.
const windowSamples = 500

// windows splits latency samples, ordered by due time, into consecutive
// windows of windowSamples (at least one window).
func windows(lat, at []int64) [][]int64 {
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return at[idx[a]] < at[idx[b]] })
	n := max(1, len(lat)/windowSamples)
	out := make([][]int64, n)
	for k, i := range idx {
		w := min(k/windowSamples, n-1)
		out[w] = append(out[w], lat[i])
	}
	return out
}

// quantile is the median over the series' windows of the window's q
// quantile (check-ins, or reports).
func (s *series) quantile(q float64, reports bool) float64 {
	lat, at := s.lat, s.latAt
	if reports {
		lat, at = s.rlat, s.rlAt
	}
	var per []float64
	for _, w := range windows(lat, at) {
		if len(w) > 0 {
			per = append(per, nsQuantile(w, q))
		}
	}
	return median(per)
}

// lastWindowP50 is the check-in p50 of the series' last window: a growing
// backlog shows there first.
func (s *series) lastWindowP50() float64 {
	ws := windows(s.lat, s.latAt)
	if last := ws[len(ws)-1]; len(last) > 0 {
		return nsQuantile(last, 0.5)
	}
	return math.Inf(1)
}

// pendingReport is an assigned task whose report is due at a seeded time.
type pendingReport struct {
	due    time.Time
	took   time.Duration // the task's run time, reported back
	dev    int
	jobID  int
	client int
}

type reportHeap []pendingReport

func (h reportHeap) Len() int           { return len(h) }
func (h reportHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h reportHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *reportHeap) Push(x any)        { *h = append(*h, x.(pendingReport)) }
func (h *reportHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// outcomes counts every check-in and report by verdict; after a drain the
// daemon's own counters must reconcile with them.
type outcomes struct {
	ciSent, ciIdle, ciAssigned, ciRefused, ciFailed atomic.Int64
	repSent, repOK, repFailed                       atomic.Int64
	jobsOK, jobsFailed                              atomic.Int64
}

// jobRec is one registered job.
type jobRec struct {
	daemon int
	id     int
	jct    bool // counts toward the JCT metrics
}

// span is one client call kept in memory by a traced run.
type span struct {
	Op    string `json:"op"`
	Due   int64  `json:"due_ns"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Items int    `json:"items"`
	Err   bool   `json:"err,omitempty"`
}

// recorded is a sample of real traffic kept for in-process layer replays.
type recorded struct {
	checkIns [][]server.CheckIn
	results  [][]server.CheckInResult
	via      []int // index of the daemon each batch was sent to
}

// loadGen drives one daemon set open-loop from a single dispatcher thread.
type loadGen struct {
	cfg     servingCfg
	fl      *fleet
	clients []*client.StreamClient // one per daemon
	rng     *rand.Rand             // dispatcher-owned
	epoch   time.Time

	out      outcomes
	inflight atomic.Int64 // requests in flight, any phase

	repMu sync.Mutex
	reps  reportHeap

	jobMu  sync.Mutex
	jobs   []jobRec
	jobSeq int

	traced bool
	spanMu sync.Mutex
	spans  []span
	rec    recorded
}

func newLoadGen(cfg servingCfg, fl *fleet, procs []*daemonProc, seed int64, traced bool) *loadGen {
	g := &loadGen{cfg: cfg, fl: fl, rng: rand.New(rand.NewSource(seed)), traced: traced, epoch: time.Now()}
	conns := 2 / len(procs) // the whole generator stays within two connections
	for _, p := range procs {
		g.clients = append(g.clients, client.NewStream(p.streamAddr,
			client.WithStreamConns(conns), client.WithTimeout(5*time.Second)))
	}
	return g
}

func (g *loadGen) close() {
	for _, c := range g.clients {
		c.Close()
	}
}

func (g *loadGen) conns() int { return 2 / len(g.clients) * len(g.clients) }

func (g *loadGen) addSpan(op string, due, t0, t1 time.Time, items int, err error) {
	if !g.traced {
		return
	}
	g.spanMu.Lock()
	g.spans = append(g.spans, span{Op: op, Due: int64(due.Sub(g.epoch)), Start: int64(t0.Sub(g.epoch)),
		End: int64(t1.Sub(g.epoch)), Items: items, Err: err != nil})
	g.spanMu.Unlock()
}

// warm checks every device in once, closed-loop, before any job exists, so
// the daemon's registry holds the whole fleet when measurement starts.
func (g *loadGen) warm() error {
	const batch, workers = 256, 4
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(next.Add(batch)) - batch
				if lo >= len(g.fl.ids) {
					return
				}
				hi := min(lo+batch, len(g.fl.ids))
				cis := make([]server.CheckIn, 0, hi-lo)
				for i := lo; i < hi; i++ {
					cis = append(cis, server.CheckIn{DeviceID: g.fl.ids[i], CPU: g.fl.cpu[i], Mem: g.fl.mem[i]})
				}
				res, err := g.clients[(lo/batch)%len(g.clients)].CheckInBatch(cis)
				g.out.ciSent.Add(int64(len(cis)))
				if err != nil {
					g.out.ciFailed.Add(int64(len(cis)))
					errs <- err
					return
				}
				for _, r := range res {
					switch {
					case r.Error != "":
						g.out.ciFailed.Add(1)
					case r.Assigned:
						errs <- fmt.Errorf("warm-up check-in assigned with no job registered")
						return
					default:
						g.out.ciIdle.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// registerJob registers the next scripted job (categories cycle through the
// standard strata; federated runs alternate daemons).
func (g *loadGen) registerJob(ph *phase, due time.Time) {
	g.jobMu.Lock()
	seq := g.jobSeq
	g.jobSeq++
	g.jobMu.Unlock()
	cats := device.Categories()
	spec := server.JobSpec{
		Name:           fmt.Sprintf("job-%d", seq),
		Category:       cats[seq%len(cats)].Name,
		DemandPerRound: g.cfg.jobDemand,
		Rounds:         g.cfg.jobRounds,
	}
	d := seq / len(cats) % len(g.clients) // every daemon sees every stratum
	jct := ph != nil && ph.jct && due.Sub(ph.start) >= ph.skip
	g.inflight.Add(1)
	go func() {
		defer g.inflight.Add(-1)
		st, err := g.clients[d].RegisterJob(spec)
		if err != nil {
			g.out.jobsFailed.Add(1)
			if ph != nil {
				ph.s.fails.Add(1)
			}
			return
		}
		g.out.jobsOK.Add(1)
		g.jobMu.Lock()
		g.jobs = append(g.jobs, jobRec{daemon: d, id: st.ID, jct: jct})
		g.jobMu.Unlock()
	}()
}

// sendCheckIns builds one batch of idle devices and sends it asynchronously.
func (g *loadGen) sendCheckIns(ph *phase, due time.Time, seq int) {
	devs := make([]int, 0, g.cfg.batch)
	cis := make([]server.CheckIn, 0, g.cfg.batch)
	for len(devs) < g.cfg.batch {
		i := g.fl.draw(g.rng)
		if i < 0 {
			break
		}
		devs = append(devs, i)
		cis = append(cis, server.CheckIn{DeviceID: g.fl.ids[i], CPU: g.fl.cpu[i], Mem: g.fl.mem[i]})
	}
	if len(cis) == 0 {
		return
	}
	ci := seq % len(g.clients)
	c := g.clients[ci]
	ph.wg.Add(1)
	g.inflight.Add(1)
	go func() {
		defer g.inflight.Add(-1)
		defer ph.wg.Done()
		t0 := time.Now()
		res, err := c.CheckInBatch(cis)
		t1 := time.Now()
		ph.record(g.epoch, due, t0, t1, false)
		g.addSpan("checkin_batch", due, t0, t1, len(cis), err)
		g.out.ciSent.Add(int64(len(cis)))
		if err == nil && len(res) != len(cis) {
			err = fmt.Errorf("%d results for %d check-ins", len(res), len(cis))
		}
		if err != nil {
			g.out.ciFailed.Add(int64(len(cis)))
			ph.s.fails.Add(int64(len(cis)))
			for _, i := range devs {
				g.fl.state[i].Store(devIdle)
			}
			return
		}
		if g.traced {
			g.recordBatch(cis, res, ci)
		}
		var reps []pendingReport
		for k, r := range res {
			i := devs[k]
			switch {
			case r.Error != "":
				g.out.ciFailed.Add(1)
				ph.s.fails.Add(1)
				g.fl.state[i].Store(devIdle)
			case r.Assigned:
				g.out.ciAssigned.Add(1)
				g.fl.tasked[i].Store(true)
				g.fl.state[i].Store(devBusy)
				took := g.fl.taskDelay(i, r.JobID, r.Round, g.cfg.taskBase)
				reps = append(reps, pendingReport{due: g.reportSlot(t1.Add(took)), took: took, dev: i, jobID: r.JobID, client: ci})
			case g.cfg.dailyBudget && g.fl.tasked[i].Load():
				g.out.ciRefused.Add(1)
				g.fl.state[i].Store(devIdle)
			default:
				g.out.ciIdle.Add(1)
				g.fl.state[i].Store(devIdle)
			}
		}
		if len(reps) > 0 {
			g.repMu.Lock()
			for _, p := range reps {
				heap.Push(&g.reps, p)
			}
			g.repMu.Unlock()
		}
	}()
}

func (g *loadGen) recordBatch(cis []server.CheckIn, res []server.CheckInResult, via int) {
	const keep = 512
	g.spanMu.Lock()
	if len(g.rec.checkIns) < keep {
		g.rec.checkIns = append(g.rec.checkIns, cis)
		g.rec.results = append(g.rec.results, res)
		g.rec.via = append(g.rec.via, via)
	}
	g.spanMu.Unlock()
}

// reportSlot rounds a report's due time up to the generator's 1ms report
// grid, so devices finishing within the same millisecond report in one
// batch (and each batch is still timed from its due time).
func (g *loadGen) reportSlot(t time.Time) time.Time {
	const grid = time.Millisecond
	off := t.Sub(g.epoch)
	return g.epoch.Add((off + grid - 1) / grid * grid)
}

// openDemand is the registered task demand not yet assigned.
func (g *loadGen) openDemand() int64 {
	return g.out.jobsOK.Load()*int64(g.cfg.jobDemand*g.cfg.jobRounds) - g.out.ciAssigned.Load()
}

// nextReportDue is the earliest pending report's due time (zero if none).
func (g *loadGen) nextReportDue() time.Time {
	g.repMu.Lock()
	defer g.repMu.Unlock()
	if len(g.reps) == 0 {
		return time.Time{}
	}
	return g.reps[0].due
}

// dispatchReports sends every report due by now, in batches of at most
// cfg.batch per client, each timed from its oldest report's due time.
func (g *loadGen) dispatchReports(now time.Time, ph *phase) {
	var due []pendingReport
	g.repMu.Lock()
	for len(g.reps) > 0 && !g.reps[0].due.After(now) {
		due = append(due, heap.Pop(&g.reps).(pendingReport))
	}
	g.repMu.Unlock()
	for len(due) > 0 {
		ci := due[0].client
		var batch, rest []pendingReport
		for _, p := range due {
			if p.client == ci && len(batch) < g.cfg.batch {
				batch = append(batch, p)
			} else {
				rest = append(rest, p)
			}
		}
		due = rest
		g.sendReports(ph, batch)
	}
}

func (g *loadGen) sendReports(ph *phase, batch []pendingReport) {
	rs := make([]server.Report, len(batch))
	for k, p := range batch {
		rs[k] = server.Report{DeviceID: g.fl.ids[p.dev], JobID: p.jobID, OK: true, DurationSeconds: p.took.Seconds()}
	}
	c := g.clients[batch[0].client]
	g.inflight.Add(1)
	go func() {
		defer g.inflight.Add(-1)
		t0 := time.Now()
		res, err := c.ReportBatch(rs)
		t1 := time.Now()
		if ph != nil {
			ph.record(g.epoch, batch[0].due, t0, t1, true)
		}
		g.addSpan("report_batch", batch[0].due, t0, t1, len(rs), err)
		g.out.repSent.Add(int64(len(rs)))
		if err == nil && len(res) != len(rs) {
			err = fmt.Errorf("%d results for %d reports", len(res), len(rs))
		}
		for k, p := range batch {
			if err != nil || res[k].Error != "" {
				// The daemon may still hold the device busy: never draw it again.
				g.out.repFailed.Add(1)
				if ph != nil {
					ph.s.fails.Add(1)
				}
				continue
			}
			g.out.repOK.Add(1)
			g.fl.state[p.dev].Store(devIdle)
		}
	}()
}

// run plays one phase of the open-loop schedule on the calling (locked)
// thread, then waits for the phase's check-ins to finish while reports keep
// flowing. Batch and job arrival gaps are exponential draws from the
// generator's seeded RNG.
func (g *loadGen) run(ph *phase) {
	ph.start = time.Now()
	end := ph.start.Add(ph.dur)
	batchRate := ph.rate / float64(g.cfg.batch)
	gap := func(rate float64) time.Duration {
		return time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second))
	}
	nextCI := ph.start.Add(gap(batchRate))
	nextJob := end
	if ph.jobRate > 0 {
		nextJob = ph.start.Add(gap(ph.jobRate))
	}
	// Demand-sized job arrivals stop while a quarter second of demand is
	// still unassigned, so an overloaded step cannot leave a backlog of
	// jobs that turns the following steps into all-assignment traffic.
	demandCap := int64(math.MaxInt64)
	if g.cfg.assignFrac > 0 {
		demandCap = int64(g.cfg.assignFrac * ph.rate / 4)
	}
	seq := 0
	for {
		now := time.Now()
		for !nextCI.After(now) && nextCI.Before(end) {
			ph.s.late = append(ph.s.late, int64(now.Sub(nextCI)))
			g.sendCheckIns(ph, nextCI, seq)
			seq++
			nextCI = nextCI.Add(gap(batchRate))
		}
		for !nextJob.After(now) && nextJob.Before(end) {
			if g.openDemand() <= demandCap {
				g.registerJob(ph, nextJob)
			}
			nextJob = nextJob.Add(gap(ph.jobRate))
		}
		g.dispatchReports(now, ph)
		if !nextCI.Before(end) && !nextJob.Before(end) {
			break
		}
		wake := nextCI
		if nextJob.Before(wake) {
			wake = nextJob
		}
		if r := g.nextReportDue(); !r.IsZero() && r.Before(wake) {
			wake = r
		}
		sleepUntil(wake)
	}
	done := make(chan struct{})
	go func() { ph.wg.Wait(); close(done) }()
	g.pumpReports(ph, done, 10*time.Second)
}

// pumpReports keeps dispatching due reports until done closes (or the
// timeout passes).
func (g *loadGen) pumpReports(ph *phase, done <-chan struct{}, timeout time.Duration) bool {
	limit := time.Now().Add(timeout)
	for {
		select {
		case <-done:
			return true
		default:
		}
		now := time.Now()
		if now.After(limit) {
			return false
		}
		g.dispatchReports(now, ph)
		wake := now.Add(200 * time.Microsecond)
		if r := g.nextReportDue(); !r.IsZero() && r.Before(wake) {
			wake = r
		}
		sleepUntil(wake)
	}
}

// drain sends every outstanding report and waits for all requests to end.
func (g *loadGen) drain() bool {
	deadline := time.Now().Add(15 * time.Second)
	for {
		now := time.Now()
		g.dispatchReports(now, nil)
		next := g.nextReportDue()
		if next.IsZero() && g.inflight.Load() == 0 {
			return true
		}
		if now.After(deadline) {
			return false
		}
		wake := now.Add(200 * time.Microsecond)
		if !next.IsZero() && next.Before(wake) {
			wake = next
		}
		sleepUntil(wake)
	}
}
