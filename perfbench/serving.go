package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"venn/internal/server"
)

// servingCfg freezes one serving workload: fleet, offered rates, latency
// limit, and the scripted job arrivals. BENCHMARK.json repeats the rates
// and limits in each workload's rationale.
type servingCfg struct {
	name        string
	daemons     int
	fleet       int
	batch       int
	loRate      float64       // offered check-ins/s of the lo slices
	hiRate      float64       // offered check-ins/s of the hi slices
	limit       time.Duration // p99 limit of checkin_max_rate
	dailyBudget bool
	jobDemand   int
	jobRounds   int
	jobRate     float64 // fixed job arrivals/s (surplus-style)
	assignFrac  float64 // or: job arrivals sized so this fraction of check-ins is assigned
	initialJobs int
	taskBase    time.Duration
	// clusterProbe makes the traced run also drive this traffic through
	// two federated daemons, to measure the cluster layer.
	clusterProbe bool
}

func (c servingCfg) jobRateAt(rate float64) float64 {
	if c.assignFrac > 0 {
		return c.assignFrac * rate / float64(c.jobDemand*c.jobRounds)
	}
	return c.jobRate
}

var (
	surplusCfg = servingCfg{
		name: "surplus", daemons: 1, fleet: 300_000, batch: 64,
		loRate: 80_000, hiRate: 160_000, limit: 25 * time.Millisecond,
		dailyBudget: true, jobDemand: 32, jobRounds: 2, jobRate: 12, initialJobs: 4,
		taskBase: 10 * time.Millisecond, clusterProbe: true,
	}
	contendedCfg = servingCfg{
		name: "contended", daemons: 1, fleet: 20_000, batch: 64,
		loRate: 50_000, hiRate: 100_000, limit: 25 * time.Millisecond,
		dailyBudget: false, jobDemand: 128, jobRounds: 2, assignFrac: 0.4, initialJobs: 8,
		taskBase: 10 * time.Millisecond,
	}
)

// quickSimRuns is how many quick-scale sims a serving run carries for
// sim_wall_s (each takes a few milliseconds; the figure is their mean). A
// multiple of slices.
const quickSimRuns = 48

// setupReps is how many times a run sets the daemon up; setup_s is the
// median and the last instance serves the measurement.
const setupReps = 3

// instance is a started, warmed daemon set with its generator.
type instance struct {
	procs []*daemonProc
	g     *loadGen
}

// startInstance execs the daemon(s), warms the whole fleet and registers
// the initial jobs: everything setup_s covers.
func startInstance(b *bench, cfg servingCfg, fl *fleet, obsSample int, traced bool, tag string) (*instance, time.Duration, error) {
	for i := range fl.state {
		fl.state[i].Store(devIdle)
		fl.tasked[i].Store(false)
	}
	t0 := time.Now()
	procs, err := startDaemons(daemonSpec{
		bin: b.daemonBin, n: cfg.daemons, seed: b.seed, obsSample: obsSample,
		dailyBudget: cfg.dailyBudget, logDir: b.outDir, tag: tag,
	})
	if err != nil {
		return nil, 0, err
	}
	g := newLoadGen(cfg, fl, procs, b.seed, traced)
	inst := &instance{procs: procs, g: g}
	if err := g.warm(); err != nil {
		inst.stop(b)
		return nil, 0, fmt.Errorf("fleet warm-up: %w", err)
	}
	for i := 0; i < cfg.initialJobs; i++ {
		g.registerJob(nil, time.Now())
	}
	for g.inflight.Load() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if n := g.out.jobsFailed.Load(); n > 0 {
		inst.stop(b)
		return nil, 0, fmt.Errorf("%d initial job registrations failed", n)
	}
	return inst, time.Since(t0), nil
}

func (inst *instance) stop(b *bench) {
	inst.g.close()
	if err := stopDaemons(inst.procs); err != nil {
		b.fail("%v", err)
	}
}

func (inst *instance) rssMB() float64 {
	total := 0.0
	for _, p := range inst.procs {
		total += peakRSSMB(p.cmd.Process.Pid)
	}
	return total
}

// setupMedian sets the daemon up setupReps times and keeps the last
// instance running.
func setupMedian(b *bench, cfg servingCfg, fl *fleet, obsSample int, tag string) (*instance, float64, error) {
	var times []float64
	var inst *instance
	for k := 0; k < setupReps; k++ {
		var took time.Duration
		var err error
		inst, took, err = startInstance(b, cfg, fl, obsSample, false, fmt.Sprintf("%s-setup%d", tag, k))
		if err != nil {
			return nil, 0, err
		}
		times = append(times, took.Seconds())
		if k < setupReps-1 {
			inst.stop(b)
		}
	}
	return inst, median(times), nil
}

func secs(b *bench, frac float64) time.Duration {
	return time.Duration(frac * float64(b.seconds) * float64(time.Second))
}

// newPhase schedules dur at rate, sampling into s; the first fifth (at
// most 300ms) is warm-up, left out of the samples.
func (g *loadGen) newPhase(rate float64, dur time.Duration, s *series) *phase {
	return &phase{rate: rate, dur: dur, skip: min(dur/5, 300*time.Millisecond), jobRate: g.cfg.jobRateAt(rate), s: s}
}

// slices is how many alternating slices the lo and hi rates are each
// measured in: a few seconds of host interference then spoils a minority
// of each rate's windows instead of one whole phase.
const slices = 8

// interleave measures the lo and hi rates in alternating slices (lo, hi,
// lo, hi, ...) of loDur and hiDur in total, calling between (if non-nil)
// after each pair. With jct set, jobs registered during the hi slices count
// toward the JCT metrics.
func (g *loadGen) interleave(loDur, hiDur time.Duration, jct bool, between func(k int)) (lo, hi *series) {
	lo, hi = &series{}, &series{}
	for k := 0; k < slices; k++ {
		g.run(g.newPhase(g.cfg.loRate, loDur/slices, lo))
		ph := g.newPhase(g.cfg.hiRate, hiDur/slices, hi)
		ph.jct = jct
		g.run(ph)
		if between != nil {
			between(k)
		}
	}
	return lo, hi
}

func ms(ns float64) float64 { return ns / 1e6 }

// runServing measures one serving workload: setup, interleaved lo-rate and
// hi-rate open-loop slices, a capacity search, a drain, and the exact
// accounting.
func runServing(b *bench, cfg servingCfg) error {
	// Fewer generator GC cycles: mark assists on the dispatcher would show
	// as lateness. The daemons keep their defaults.
	debug.SetGCPercent(400)
	fl := newFleet(cfg.fleet, b.seed)
	if b.trace {
		return runServingTraced(b, cfg, fl)
	}
	inst, setupS, err := setupMedian(b, cfg, fl, 0, cfg.name)
	if err != nil {
		return err
	}
	g := inst.g
	// The quick sims run between the slices too, so they sample the host
	// across the whole run rather than in one burst at its end.
	var sims []simRun
	var simErr error
	lo, hi := g.interleave(secs(b, 0.25), secs(b, 0.4), true, func(k int) {
		if simErr == nil {
			var rs []simRun
			rs, simErr = quickSims(b.seed, k*quickSimRuns/slices, quickSimRuns/slices)
			sims = append(sims, rs...)
		}
	})
	if simErr != nil {
		inst.stop(b)
		return simErr
	}
	maxRate, steps := g.capacity(hi, secs(b, 0.35))
	for _, st := range steps {
		fmt.Printf("capacity step rate=%.0f p99=%.3fms lateness_p99=%.3fms fails=%d pass=%v %s\n",
			st.rate, ms(st.p99), ms(st.lateP99), st.fails, st.pass, st.why)
	}
	jct := g.finishJobs(b)
	if !g.drain() {
		b.fail("requests still outstanding 15s after the schedule ended")
	}
	g.account(b)
	g.checkGenerator(b, lo, hi)

	b.set("setup_s", setupS)
	b.set("checkin_p50_ms.lo", ms(lo.quantile(0.5, false)))
	b.set("checkin_p50_ms.hi", ms(hi.quantile(0.5, false)))
	b.set("report_p50_ms.hi", ms(hi.quantile(0.5, true)))
	// Measured and printed, but not bounded in BENCHMARK.json: see README.md.
	b.set("checkin_p90_ms.lo", ms(lo.quantile(0.9, false)))
	b.set("checkin_p90_ms.hi", ms(hi.quantile(0.9, false)))
	b.set("report_p90_ms.hi", ms(hi.quantile(0.9, true)))
	b.set("checkin_p99_ms.lo", ms(nsQuantile(lo.lat, 0.99)))
	b.set("checkin_p99_ms.hi", ms(nsQuantile(hi.lat, 0.99)))
	b.set("report_p99_ms.hi", ms(nsQuantile(hi.rlat, 0.99)))
	b.set("checkin_max_rate", maxRate)
	b.set("jct_avg_s", mean(jct))
	b.set("jct_p90_s", quantile(jct, 0.9))
	b.set("rss_peak_mb", inst.rssMB())
	inst.stop(b)
	b.set("sim_wall_s", summarizeSims(sims).wallMean)
	b.attempted, b.failed = g.out.total()
	b.set("ok_frac", 1-ratio(float64(b.failed), float64(b.attempted)))
	return nil
}

func (o *outcomes) total() (attempted, failed int64) {
	attempted = o.ciSent.Load() + o.repSent.Load() + o.jobsOK.Load() + o.jobsFailed.Load()
	failed = o.ciFailed.Load() + o.repFailed.Load() + o.jobsFailed.Load()
	return attempted, failed
}

// capStep is one probe of the capacity search.
type capStep struct {
	rate, p99, lateP99 float64
	fails              int64
	pass               bool
	why                string
}

// judge decides a capacity step. It passes when no request failed, the
// generator kept its schedule, the step's p99 meets the limit, and the
// backlog did not grow: the last window's p50 must stay under half the
// limit.
func judge(rate float64, s *series, limit time.Duration) capStep {
	st := capStep{rate: rate, p99: nsQuantile(s.lat, 0.99), lateP99: nsQuantile(s.late, 0.99), fails: s.fails.Load()}
	switch {
	case st.fails > 0:
		st.why = "failed requests"
	case st.lateP99 > float64(limit/2):
		st.why = "generator fell behind"
	case st.p99 > float64(limit):
		st.why = "p99 over limit"
	case s.lastWindowP50() > float64(limit/2):
		st.why = "backlog growing"
	default:
		st.pass = true
	}
	return st
}

// capacity searches for the highest offered rate whose p99 (timed from due,
// over the whole step)
// meets the limit with no failures and a punctual generator: it grows the
// rate 1.35x from the hi rate until a step fails, bisects geometrically,
// and interpolates the limit crossing in log(p99) between the best passing
// and the lowest failing step. A growing backlog shows as an unbounded p99.
func (g *loadGen) capacity(hi *series, budget time.Duration) (float64, []capStep) {
	const nSteps = 5
	steps := []capStep{judge(g.cfg.hiRate, hi, g.cfg.limit)}
	for i := 0; i < nSteps; i++ {
		pass, fail := bestSteps(steps)
		var r float64
		switch {
		case pass != nil && fail != nil:
			r = math.Sqrt(pass.rate * fail.rate)
		case fail == nil:
			r = pass.rate * 1.35
		default:
			r = fail.rate / 1.35
		}
		s := &series{}
		g.run(g.newPhase(r, budget/nSteps, s))
		steps = append(steps, judge(r, s, g.cfg.limit))
	}
	pass, fail := bestSteps(steps)
	switch {
	case pass == nil:
		// Nothing met the limit: report the slowest failure's rate scaled
		// down by its p99 overshoot.
		return fail.rate * math.Min(1, float64(g.cfg.limit)/fail.p99), steps
	case fail == nil:
		return pass.rate, steps
	}
	l, a, c := float64(g.cfg.limit), pass.p99, fail.p99
	if c <= l || a <= 0 {
		// The failure was not the p99 (backlog, lateness): no crossing to
		// interpolate, take the geometric midpoint.
		return math.Sqrt(pass.rate * fail.rate), steps
	}
	f := math.Max(0, math.Min(1, math.Log(l/a)/math.Log(c/a)))
	return pass.rate + f*(fail.rate-pass.rate), steps
}

// bestSteps returns the lowest failing step and the highest passing step
// below it (a pass above a failure is noise, not capacity).
func bestSteps(steps []capStep) (pass, fail *capStep) {
	for i := range steps {
		if st := &steps[i]; !st.pass && (fail == nil || st.rate < fail.rate) {
			fail = st
		}
	}
	for i := range steps {
		st := &steps[i]
		if st.pass && (fail == nil || st.rate < fail.rate) && (pass == nil || st.rate > pass.rate) {
			pass = st
		}
	}
	return pass, fail
}

// jobStatuses fetches every job's status from every daemon.
func (g *loadGen) jobStatuses() (map[[2]int]server.JobStatus, error) {
	out := map[[2]int]server.JobStatus{}
	for d, c := range g.clients {
		js, err := c.Jobs()
		if err != nil {
			return nil, err
		}
		for _, st := range js {
			out[[2]int{d, st.ID}] = st
		}
	}
	return out, nil
}

// finishJobs waits (serving trickle traffic at the lo rate, no new jobs)
// until every JCT-eligible job has completed, and returns their JCTs.
func (g *loadGen) finishJobs(b *bench) []float64 {
	for attempt := 0; ; attempt++ {
		sts, err := g.jobStatuses()
		if err != nil {
			b.fail("job statuses: %v", err)
			return nil
		}
		var jct []float64
		open := 0
		g.jobMu.Lock()
		for _, j := range g.jobs {
			if !j.jct {
				continue
			}
			if st := sts[[2]int{j.daemon, j.id}]; st.JCTSeconds > 0 {
				jct = append(jct, st.JCTSeconds)
			} else {
				open++
			}
		}
		g.jobMu.Unlock()
		if open == 0 {
			if len(jct) == 0 {
				b.fail("no job counted toward JCT")
			}
			return jct
		}
		if attempt == 5 {
			b.fail("%d JCT jobs still incomplete after the drain", open)
			return jct
		}
		ph := g.newPhase(g.cfg.loRate, 500*time.Millisecond, &series{})
		ph.jobRate = 0
		g.run(ph)
	}
}

// metrics fetches every daemon's metrics payload.
func (g *loadGen) metrics() ([]server.Metrics, error) {
	var ms []server.Metrics
	for d, c := range g.clients {
		m, err := c.Metrics()
		if err != nil {
			return nil, fmt.Errorf("metrics from daemon %d: %w", d, err)
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// account reconciles the generator's outcome counts with the daemons' own
// counters after the drain: assignments and admitted check-ins must match
// exactly; the report ratio is printed but not gated (the daemon does not
// count stale reports yet).
func (g *loadGen) account(b *bench) {
	ms, err := g.metrics()
	if err != nil {
		b.fail("%v", err)
		return
	}
	var asg, admitted, reports, failures int64
	for d, c := range g.clients {
		m := ms[d]
		st, err := c.Stats()
		if err != nil {
			b.fail("stats from daemon %d: %v", d, err)
			return
		}
		asg += m.Assignments
		admitted += m.CheckIns
		reports += m.Reports
		failures += int64(st.Failures)
	}
	o := &g.out
	acc := map[string]int64{
		"checkins_sent": o.ciSent.Load(), "checkins_ok": o.ciSent.Load() - o.ciFailed.Load(),
		"checkins_failed": o.ciFailed.Load(), "checkins_idle": o.ciIdle.Load(),
		"checkins_assigned": o.ciAssigned.Load(), "checkins_budget_refused": o.ciRefused.Load(),
		"reports_sent": o.repSent.Load(), "reports_accepted": o.repOK.Load(),
		"daemon_assignments_total": asg, "daemon_checkins_total": admitted,
		"daemon_reports_total": reports, "daemon_failures": failures,
	}
	line, _ := json.Marshal(acc)
	fmt.Printf("accounting %s reports_sent/(reports_total+failures)=%.4f\n",
		line, ratio(float64(o.repSent.Load()), float64(reports+failures)))
	if got := o.ciAssigned.Load(); got != asg {
		b.fail("client counted %d assignments, daemon assignments_total %d", got, asg)
	}
	if got := o.ciIdle.Load() + o.ciAssigned.Load(); got != admitted {
		b.fail("client counted %d admitted check-ins (idle+assigned), daemon checkins_total %d", got, admitted)
	}
}

// checkGenerator flags a run whose generator fell behind its schedule at
// a measured rate: its latencies would measure the generator, not the
// daemon.
func (g *loadGen) checkGenerator(b *bench, lo, hi *series) {
	for _, r := range []struct {
		name string
		rate float64
		s    *series
	}{{"lo", g.cfg.loRate, lo}, {"hi", g.cfg.hiRate, hi}} {
		late := nsQuantile(r.s.late, 0.99)
		fmt.Printf("generator rate=%s(%.0f/s) batches=%d lateness_p50=%.3fms lateness_p99=%.3fms conns=%d gomaxprocs=%d\n",
			r.name, r.rate, len(r.s.late), ms(nsQuantile(r.s.late, 0.5)), ms(late), g.conns(), b.host.LoaderGOMAXPROCS)
		if late > float64(g.cfg.limit/2) {
			b.fail("generator fell behind its schedule at the %s rate (lateness p99 %.3fms > %.3fms)",
				r.name, ms(late), ms(float64(g.cfg.limit/2)))
		}
	}
}
