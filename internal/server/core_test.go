package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// driveCorePipeline replays a fixed traffic script — staggered job
// registrations, mixed eligible/surplus check-in batches, single check-ins,
// and reports — and returns every result the manager handed back, JSON
// encoded in arrival order. Two managers with the same seed and clock must
// produce byte-identical transcripts.
func driveCorePipeline(t *testing.T, m *Manager, clk *fakeClock) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	record := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	cats := []string{"General", "High-Perf", "Compute-Rich", "Memory-Rich"}
	for step := 0; step < 30; step++ {
		clk.advance(13 * time.Second)
		if step%5 == 0 {
			st, err := m.RegisterJob(JobSpec{
				Name:           fmt.Sprintf("j%d", step),
				Category:       cats[step%len(cats)],
				DemandPerRound: 2 + step%3,
				Rounds:         1 + step%2,
			})
			if err != nil {
				t.Fatal(err)
			}
			record(st)
		}
		// A batch whose device scores straddle the requirement tiers: some
		// items are surplus (answered off the snapshot), some enter the
		// core pipeline.
		cis := make([]CheckIn, 8)
		for i := range cis {
			n := (step*5 + i) % 40
			cis[i] = CheckIn{
				DeviceID: fmt.Sprintf("d%d", n),
				CPU:      float64(n%10) / 10,
				Mem:      float64((n+3)%10) / 10,
			}
		}
		res := m.CheckInBatch(cis)
		record(res)
		var reps []Report
		for i, r := range res {
			if r.Assigned {
				reps = append(reps, Report{
					DeviceID: cis[i].DeviceID, JobID: r.JobID,
					OK: i%5 != 0, DurationSeconds: 9,
				})
			}
		}
		if len(reps) > 0 {
			record(m.ReportBatch(reps))
		}
		sid := fmt.Sprintf("s%d", step%10)
		asg, err := m.DeviceCheckIn(CheckIn{DeviceID: sid, CPU: 0.95, Mem: 0.95})
		if err != nil {
			t.Fatal(err)
		}
		record(asg)
		if asg.Assigned {
			if err := m.DeviceReport(Report{DeviceID: sid, JobID: asg.JobID, OK: true, DurationSeconds: 4}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := m.StatsSnapshot()
	record([]int{st.CheckIns, st.Assignments, st.Reports, st.Failures, st.Aborts})
	return buf.Bytes()
}

// transcriptDigest is the SHA-256 of driveCorePipeline's seed-7 transcript
// (4248 bytes). It was recorded when the core still had three commit
// modes, all of which produced it byte for byte, so it pins the single core
// section to their shared behavior: assignments, batch replies, report
// replies and final counters.
const transcriptDigest = "8e46eaa78d78409c2de4dabace520517446df63a94d8bf36e52d7669c81c294c"

// TestCoreTranscriptPin replays the fixed traffic script and checks the
// transcript against the recorded digest.
func TestCoreTranscriptPin(t *testing.T) {
	clk := newFakeClock()
	m := NewManager(Config{Clock: clk.now, Seed: 7})
	got := driveCorePipeline(t, m, clk)
	if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != transcriptDigest {
		t.Errorf("transcript digest %s (%d bytes), want %s (4248 bytes)", sum, len(got), transcriptDigest)
	}
}

// TestCombinerConcurrentMixedLoad races concurrent mixed surplus/demand
// check-in and report traffic through the core section (run under -race in
// CI), with Tick, snapshot and health readers running alongside. Low-spec
// devices stay surplus for the High-Perf-only demand and are answered off
// the snapshot while high-spec devices enter the core; budget is disabled so
// demand stays contended for the whole run. The end-state invariants catch
// lost updates. The subtests keep the names of the core's former commit
// modes; both now run the one core section, "auto" with CheckInBatch and
// ReportBatch traffic and "combine" with per-device DeviceCheckIn and
// DeviceReport calls, the many-small-ops load the combiner used to group.
func TestCombinerConcurrentMixedLoad(t *testing.T) {
	t.Run("auto", func(t *testing.T) { raceCoreMixedLoad(t, true) })
	t.Run("combine", func(t *testing.T) { raceCoreMixedLoad(t, false) })
}

// raceCoreMixedLoad runs TestCombinerConcurrentMixedLoad's workload, batched
// or as single calls, and checks its invariants.
func raceCoreMixedLoad(t *testing.T, batched bool) {
	m := NewManager(Config{DisableDailyBudget: true})
	const (
		workers        = 64
		devicesPerWork = 32
		iterations     = 4
	)
	totalDemand := 0
	for i := 0; i < 8; i++ {
		d := 40 + i*10
		if _, err := m.RegisterJob(JobSpec{
			Name: fmt.Sprintf("hp-%d", i), Category: "High-Perf",
			DemandPerRound: d, Rounds: 2,
		}); err != nil {
			t.Fatal(err)
		}
		totalDemand += d * 2
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				cis := make([]CheckIn, devicesPerWork)
				for i := range cis {
					// Even items are high-spec (High-Perf eligible),
					// odd items are low-spec surplus.
					score := 0.95
					if i%2 == 1 {
						score = 0.05
					}
					cis[i] = CheckIn{
						DeviceID: fmt.Sprintf("w%d-d%d", w, i),
						CPU:      score, Mem: score,
					}
				}
				if !batched {
					for _, ci := range cis {
						asg, err := m.DeviceCheckIn(ci)
						if err != nil {
							t.Errorf("check-in error: %v", err)
							return
						}
						if asg.Assigned {
							if err := m.DeviceReport(Report{
								DeviceID: ci.DeviceID, JobID: asg.JobID,
								OK: true, DurationSeconds: 2,
							}); err != nil {
								t.Errorf("report error: %v", err)
							}
						}
					}
					continue
				}
				res := m.CheckInBatch(cis)
				var reps []Report
				for i, r := range res {
					if r.Error != "" {
						t.Errorf("batch item error: %s", r.Error)
						return
					}
					if r.Assigned {
						reps = append(reps, Report{
							DeviceID: cis[i].DeviceID, JobID: r.JobID,
							OK: true, DurationSeconds: 2,
						})
					}
				}
				if len(reps) > 0 {
					for _, rr := range m.ReportBatch(reps) {
						if rr.Error != "" {
							t.Errorf("report item error: %s", rr.Error)
						}
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				m.Tick()
				_ = m.StatsSnapshot()
				_ = m.MetricsSnapshot()
				_ = m.Health()
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()

	st := m.StatsSnapshot()
	mt := m.MetricsSnapshot()
	if st.CheckIns == 0 || st.Assignments == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
	if st.Assignments > totalDemand {
		t.Errorf("assignments %d exceed total demand %d", st.Assignments, totalDemand)
	}
	if st.Reports > st.Assignments {
		t.Errorf("more reports than assignments: %+v", st)
	}
	if mt.LockFreeCheckIns == 0 {
		t.Errorf("no surplus check-ins took the lock-free path")
	}
	if mt.LockFreeCheckIns >= int64(st.CheckIns) {
		t.Errorf("every check-in took the lock-free path; none entered the core: %+v", st)
	}
	busy := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, md := range sh.devices {
			if md.busy {
				busy++
			}
		}
		sh.mu.Unlock()
	}
	if got := m.busyDevices.Load(); got != int64(busy) {
		t.Errorf("busy gauge %d != actual busy %d", got, busy)
	}
}

// TestDisableDailyBudget proves the benchmark knob: with the budget lifted a
// device that reported back is assignable again the same day; with it in
// force (the default) the second check-in is refused without error.
func TestDisableDailyBudget(t *testing.T) {
	for _, disabled := range []bool{true, false} {
		clk := newFakeClock()
		m := NewManager(Config{Clock: clk.now, DisableDailyBudget: disabled})
		if _, err := m.RegisterJob(JobSpec{Name: "j", Category: "General", DemandPerRound: 10, Rounds: 1}); err != nil {
			t.Fatal(err)
		}
		ci := CheckIn{DeviceID: "dev", CPU: 0.9, Mem: 0.9}
		asg, err := m.DeviceCheckIn(ci)
		if err != nil || !asg.Assigned {
			t.Fatalf("disabled=%v: first check-in not assigned: %+v, %v", disabled, asg, err)
		}
		if err := m.DeviceReport(Report{DeviceID: "dev", JobID: asg.JobID, OK: true, DurationSeconds: 1}); err != nil {
			t.Fatal(err)
		}
		clk.advance(time.Minute)
		again, err := m.DeviceCheckIn(ci)
		if err != nil {
			t.Fatal(err)
		}
		if again.Assigned != disabled {
			t.Errorf("disabled=%v: same-day reassignment = %v, want %v", disabled, again.Assigned, disabled)
		}
	}
}

// TestHealthWedge drives Health's wedge branch: a held core section reports
// its hold time while still healthy, a hold older than coreWedgeAfter turns
// Health and /v1/healthz unhealthy (503), and unlocking clears both. Health
// must answer while the core mutex is held, or a wedged core would hang the
// probe instead of failing it.
func TestHealthWedge(t *testing.T) {
	m := NewManager(Config{})
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	healthz := func() int {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	m.lockCore(nil)
	time.Sleep(time.Millisecond)
	if h := m.Health(); !h.OK || h.CoreHeldSeconds <= 0 {
		t.Errorf("short hold: %+v, want OK with CoreHeldSeconds > 0", h)
	}
	m.coreHeldSince.Store(time.Now().Add(-2 * coreWedgeAfter).UnixNano())
	if h := m.Health(); h.OK || h.CoreHeldSeconds < coreWedgeAfter.Seconds() {
		t.Errorf("wedged hold: %+v, want not OK with CoreHeldSeconds past %v", h, coreWedgeAfter)
	}
	if code := healthz(); code != http.StatusServiceUnavailable {
		t.Errorf("wedged /v1/healthz = %d, want 503", code)
	}
	m.unlockCore()
	if h := m.Health(); !h.OK || h.CoreHeldSeconds != 0 {
		t.Errorf("after unlock: %+v, want OK with CoreHeldSeconds 0", h)
	}
	if code := healthz(); code != http.StatusOK {
		t.Errorf("after unlock /v1/healthz = %d, want 200", code)
	}
}
