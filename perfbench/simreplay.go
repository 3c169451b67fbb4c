package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"venn/internal/core"
	"venn/internal/device"
	"venn/internal/eval"
	"venn/internal/job"
	"venn/internal/sim"
	"venn/internal/simtime"
	"venn/internal/trace"
	"venn/internal/workload"
)

// timedSched wraps a sim.Scheduler and times calls into it from the
// benchmark's side of the interface: one Assign (a device check-in) in
// every assignEvery and every ObserveResponse (a report reaching the
// scheduler), bucketed by simulated hour of day, so the diurnal trough and
// peak of check-ins give the simulator's low and high offered check-in
// rates. Traced runs (full) time every call, lifecycle notifications
// included.
type timedSched struct {
	inner sim.Scheduler
	full  bool

	n           uint64
	callsByHour [24]int64
	assign      [24][]float64 // timed Assign ns, by hour of day
	observe     [24][]float64 // ObserveResponse ns, by hour of day
	assignNs    int64         // total timed Assign ns
	lifeNs      int64         // total timed lifecycle ns (full only)
	assignCalls int64
}

// assignEvery is the untraced Assign sampling stride.
const assignEvery = 4

func newTimedSched(inner sim.Scheduler, full bool) *timedSched {
	return &timedSched{inner: inner, full: full}
}

func hourOf(now simtime.Time) int { return int(now.TimeOfDay() / simtime.Hour) }

func (t *timedSched) Name() string      { return t.inner.Name() }
func (t *timedSched) Bind(env *sim.Env) { t.inner.Bind(env) }

func (t *timedSched) life(f func()) {
	if !t.full {
		f()
		return
	}
	t0 := time.Now()
	f()
	t.lifeNs += int64(time.Since(t0))
}

func (t *timedSched) OnJobArrival(j *job.Job, now simtime.Time) {
	t.life(func() { t.inner.OnJobArrival(j, now) })
}
func (t *timedSched) OnRequest(j *job.Job, now simtime.Time) {
	t.life(func() { t.inner.OnRequest(j, now) })
}
func (t *timedSched) OnRequestFulfilled(j *job.Job, now simtime.Time) {
	t.life(func() { t.inner.OnRequestFulfilled(j, now) })
}
func (t *timedSched) OnJobDone(j *job.Job, now simtime.Time) {
	t.life(func() { t.inner.OnJobDone(j, now) })
}

func (t *timedSched) Assign(d *device.Device, now simtime.Time) *job.Job {
	h := hourOf(now)
	t.assignCalls++
	t.callsByHour[h]++
	if t.n++; !t.full && t.n%assignEvery != 0 {
		return t.inner.Assign(d, now)
	}
	t0 := time.Now()
	j := t.inner.Assign(d, now)
	dt := time.Since(t0)
	t.assignNs += int64(dt)
	t.assign[h] = append(t.assign[h], float64(dt))
	return j
}

func (t *timedSched) ObserveResponse(j *job.Job, d *device.Device, dur simtime.Duration, now simtime.Time) {
	t0 := time.Now()
	t.inner.ObserveResponse(j, d, dur, now)
	dt := time.Since(t0)
	if t.full {
		t.lifeNs += int64(dt)
	}
	t.observe[hourOf(now)] = append(t.observe[hourOf(now)], float64(dt))
}

// simRun is what the benchmark keeps of one trace-driven simulation (not
// the result itself: a run's job records would pile up across setups).
type simRun struct {
	setup      time.Duration // fleet + workload generation
	wall       time.Duration // engine run
	ts         *timedSched
	ids        []job.ID  // completed jobs in ID order
	jcts       []float64 // their JCTs, seconds
	jobs       int
	finished   int
	schedDelay float64 // mean per-attempt scheduling delay, s
	respAvg    float64 // mean per-attempt response-collection time, s
}

// simInputs is one generated setup: a fleet and a job workload.
type simInputs struct {
	setup eval.Setup
	fleet *trace.Fleet
	wl    *workload.Workload
	took  time.Duration
}

// genSim generates setup i of a run: the fleet (and the engine's RNG) derive
// from the run seed, while the job trace is the i-th of a fixed canonical
// set, so every run replays the same job mixes on different fleets. Job
// totals are heavy-tailed, and seed-drawn job sets would swamp any change
// in scheduling with workload-to-workload variance.
func genSim(scale eval.Scale, seed int64, i int) simInputs {
	s := eval.NewSetup(scale, seed*1000+int64(i))
	s.Jobs.Seed = int64(i) + 1
	t0 := time.Now()
	fl := trace.GenerateFleet(s.Fleet)
	wl := workload.Generate(s.Jobs)
	return simInputs{setup: s, fleet: fl, wl: wl, took: time.Since(t0)}
}

// runSim replays the inputs under the Venn scheduler through the public sim
// API (eval.RunOne), timed by a timedSched wrapper.
func runSim(in simInputs, full bool) (simRun, error) {
	ts := newTimedSched(core.NewDefault(), full)
	t0 := time.Now()
	res, err := eval.RunOne(in.fleet, in.wl, func() sim.Scheduler { return ts }, in.setup.Seed+100, nil)
	wall := time.Since(t0)
	if err != nil {
		return simRun{}, err
	}
	r := simRun{setup: in.took, wall: wall, ts: ts, jobs: len(res.Completed) + len(res.Unfinished), finished: len(res.Completed),
		schedDelay: res.AvgSchedDelay.Seconds(), respAvg: res.AvgResponseTime.Seconds()}
	done := append([]*job.Job(nil), res.Completed...)
	sort.Slice(done, func(a, b int) bool { return done[a].ID < done[b].ID })
	for _, j := range done {
		r.ids = append(r.ids, j.ID)
		r.jcts = append(r.jcts, j.JCT().Seconds())
	}
	return r, nil
}

// jctDigest fingerprints the per-job JCT vectors of a set of runs, so two
// builds can be compared exactly.
func jctDigest(runs []simRun) string {
	h := sha256.New()
	var buf [8]byte
	for i, r := range runs {
		binary.LittleEndian.PutUint64(buf[:], uint64(i))
		h.Write(buf[:])
		for k, id := range r.ids {
			binary.LittleEndian.PutUint64(buf[:], uint64(id))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.jcts[k]))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// simSummary pools a set of runs into the workload's metrics.
type simSummary struct {
	setupS, wallS       float64 // medians per run
	wallMean            float64
	jctAvg, jctP90      float64
	loP50, loP90        float64 // Assign ns, quiet hours
	hiP50, hiP90        float64 // Assign ns, busy hours
	repP50, repP90      float64 // ObserveResponse ns, busy hours
	checkInsPerWallSec  float64
	jobs, finished      int
	schedDelay, respAvg float64
}

func summarizeSims(runs []simRun) simSummary {
	var s simSummary
	var setups, walls, jcts []float64
	var calls [24]int64
	var totalCalls int64
	var totalWall time.Duration
	for _, r := range runs {
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
		jcts = append(jcts, r.jcts...)
		for h := range calls {
			calls[h] += r.ts.callsByHour[h]
		}
		totalCalls += r.ts.assignCalls
		totalWall += r.wall
		s.jobs += r.jobs
		s.finished += r.finished
		s.schedDelay += r.schedDelay / float64(len(runs))
		s.respAvg += r.respAvg / float64(len(runs))
	}
	s.setupS, s.wallS, s.wallMean = median(setups), median(walls), mean(walls)
	s.jctAvg, s.jctP90 = mean(jcts), quantile(jcts, 0.9)
	s.checkInsPerWallSec = float64(totalCalls) / totalWall.Seconds()
	// Split the day into the 12 quietest and the 12 busiest check-in hours.
	hours := make([]int, 24)
	for h := range hours {
		hours[h] = h
	}
	sort.SliceStable(hours, func(a, b int) bool { return calls[hours[a]] < calls[hours[b]] })
	// Per setup, pool its quiet-hour and busy-hour samples; report the mean
	// over setups of each setup's quantile (individual calls time in whole
	// nanoseconds, so a pooled median would read the same integer often).
	var loP50, loP90, hiP50, hiP90, repP50, repP90 []float64
	for _, r := range runs {
		var lo, hi, rep []float64
		for k, h := range hours {
			if k < 12 {
				lo = append(lo, r.ts.assign[h]...)
			} else {
				hi = append(hi, r.ts.assign[h]...)
				rep = append(rep, r.ts.observe[h]...)
			}
		}
		loP50, loP90 = append(loP50, quantile(lo, 0.5)), append(loP90, quantile(lo, 0.9))
		hiP50, hiP90 = append(hiP50, quantile(hi, 0.5)), append(hiP90, quantile(hi, 0.9))
		repP50, repP90 = append(repP50, quantile(rep, 0.5)), append(repP90, quantile(rep, 0.9))
	}
	s.loP50, s.loP90 = mean(loP50), mean(loP90)
	s.hiP50, s.hiP90 = mean(hiP50), mean(hiP90)
	s.repP50, s.repP90 = mean(repP50), mean(repP90)
	return s
}

// quickSims runs quick-scale sim-replays first, first+1, ... first+n-1:
// the ones serving workloads carry for sim_wall_s.
func quickSims(seed int64, first, n int) ([]simRun, error) {
	var runs []simRun
	for i := first; i < first+n; i++ {
		r, err := runSim(genSim(eval.ScaleQuick, seed, i), false)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// simCount is how many generated setups a sim-replay run simulates: about
// one per second of the measurement budget (a full-scale run takes
// 0.4-0.7s), and at least three.
func simCount(seconds int) int { return max(3, seconds) }

// simPairs simulates n generated setups twice each, untraced and traced
// (alternating which goes first), and checks that tracing changed no
// scheduling decision.
func (b *bench) simPairs(scale eval.Scale, n int) (untraced, traced []simRun, err error) {
	for i := 0; i < n; i++ {
		in := genSim(scale, b.seed, i)
		var u, t simRun
		if i%2 == 0 {
			if u, err = runSim(in, false); err == nil {
				t, err = runSim(in, true)
			}
		} else {
			if t, err = runSim(in, true); err == nil {
				u, err = runSim(in, false)
			}
		}
		if err != nil {
			return nil, nil, err
		}
		if jctDigest([]simRun{u}) != jctDigest([]simRun{t}) {
			b.fail("tracing changed the per-job JCT vector of setup %d", i)
		}
		untraced, traced = append(untraced, u), append(traced, t)
	}
	return untraced, traced, nil
}

// setSimLayers sets the core and sim layer metrics from traced runs.
func (b *bench) setSimLayers(traced []simRun) simSummary {
	var assign, self, setup []float64
	var calls, life float64
	for _, r := range traced {
		for h := range r.ts.assign {
			assign = append(assign, r.ts.assign[h]...)
		}
		calls += float64(r.ts.assignCalls) / float64(len(traced))
		life += float64(r.ts.lifeNs) / float64(len(traced))
		self = append(self, float64(int64(r.wall)-r.ts.assignNs-r.ts.lifeNs))
		setup = append(setup, float64(r.setup))
	}
	s := summarizeSims(traced)
	b.set("core.assign_ns", quantile(assign, 0.5))
	b.set("core.assign_calls", calls)
	b.set("core.lifecycle_ns", life)
	b.set("core.sched_delay_avg_s", s.schedDelay)
	b.set("core.response_avg_s", s.respAvg)
	b.set("sim.self_ns", median(self))
	b.set("sim.setup_ns", median(setup))
	return s
}

// runSimReplay is the sim-replay workload: the paper's trace-driven
// evaluation at eval.ScaleFull under the Venn scheduler. Every job must
// complete, and the run prints a digest of the per-job JCT vectors.
func runSimReplay(b *bench) error {
	if b.trace {
		return runSimReplayTraced(b)
	}
	var runs []simRun
	for i := 0; i < simCount(b.seconds); i++ {
		r, err := runSim(genSim(eval.ScaleFull, b.seed, i), false)
		if err != nil {
			return err
		}
		if r.finished != r.jobs {
			b.fail("setup %d: %d of %d jobs unfinished", i, r.jobs-r.finished, r.jobs)
		}
		runs = append(runs, r)
	}
	s := summarizeSims(runs)
	fmt.Printf("sim-replay setups=%d jobs=%d completed=%d jct_digest=%s\n", len(runs), s.jobs, s.finished, jctDigest(runs))
	b.set("setup_s", s.setupS)
	b.set("checkin_p50_ms.lo", ms(s.loP50))
	b.set("checkin_p50_ms.hi", ms(s.hiP50))
	b.set("report_p50_ms.hi", ms(s.repP50))
	// Measured and printed, but not bounded in BENCHMARK.json.
	b.set("checkin_p90_ms.lo", ms(s.loP90))
	b.set("checkin_p90_ms.hi", ms(s.hiP90))
	b.set("report_p90_ms.hi", ms(s.repP90))
	b.set("checkin_max_rate", s.checkInsPerWallSec)
	b.set("jct_avg_s", s.jctAvg)
	b.set("jct_p90_s", s.jctP90)
	b.set("sim_wall_s", s.wallS)
	b.attempted, b.failed = int64(s.jobs), int64(s.jobs-s.finished)
	b.set("ok_frac", ratio(float64(s.finished), float64(s.jobs)))
	b.set("rss_peak_mb", peakRSSMB(0))
	return nil
}

// runSimReplayTraced simulates half the setups twice, untraced and with
// every scheduler call timed, and reports the core and sim layers plus the
// tracing overhead. The serving layers see no traffic here and report 0.
func runSimReplayTraced(b *bench) error {
	untraced, traced, err := b.simPairs(eval.ScaleFull, max(2, simCount(b.seconds)/2))
	if err != nil {
		return err
	}
	var uw, tw float64
	for i := range untraced {
		uw += untraced[i].wall.Seconds()
		tw += traced[i].wall.Seconds()
		if traced[i].finished != traced[i].jobs {
			b.fail("setup %d: %d of %d jobs unfinished", i, traced[i].jobs-traced[i].finished, traced[i].jobs)
		}
	}
	s := b.setSimLayers(traced)
	b.attempted, b.failed = int64(s.jobs), int64(s.jobs-s.finished)
	for _, d := range b.perLayer {
		if _, ok := b.values[d.Name]; !ok && !strings.HasPrefix(d.Name, "obs.") {
			b.set(d.Name, 0)
		}
	}
	b.set("gen.threads", float64(b.host.LoaderGOMAXPROCS))
	overhead := tw/uw - 1
	b.set("obs.trace_overhead", overhead)
	wall := s.wallS * 1e9
	coreSelf := b.values["core.lifecycle_ns"]
	for _, r := range traced {
		coreSelf += float64(r.ts.assignNs) / float64(len(traced))
	}
	b.emitLedger(ledger{
		EndToEnd:   "one full-scale simulation run",
		EndToEndNs: wall,
		Rows: []ledgerRow{
			{"core", int64(b.values["core.assign_calls"]), coreSelf, 0, "timed sim.Scheduler calls per run", false},
			{"sim", int64(len(traced)), b.values["sim.self_ns"], 0, "run wall minus core time", false},
		},
		Remainder:     "the timing wrapper's own clock reads",
		TraceOverhead: overhead,
	})
	return nil
}
