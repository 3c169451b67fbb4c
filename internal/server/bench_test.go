package server

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// newBenchManager returns a manager with one General job whose demand is
// large enough that it never fills during the benchmark, so every check-in
// walks the full admission + scheduling path.
func newBenchManager(b *testing.B, shards int) *Manager {
	b.Helper()
	m := NewManager(Config{Shards: shards})
	if _, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: 1 << 30, Rounds: 1}); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkManagerCheckInSingleLock is the seed-equivalent serving path:
// one lock stripe, one check-in per call, concurrent callers.
func BenchmarkManagerCheckInSingleLock(b *testing.B) {
	benchmarkCheckInSingle(b, 1)
}

// BenchmarkManagerCheckInSharded is the same per-call path on the sharded
// manager.
func BenchmarkManagerCheckInSharded(b *testing.B) {
	benchmarkCheckInSingle(b, defaultShards)
}

func benchmarkCheckInSingle(b *testing.B, shards int) {
	m := newBenchManager(b, shards)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seq.Add(1)
			_, err := m.DeviceCheckIn(CheckIn{
				DeviceID: fmt.Sprintf("bench-%d", n),
				CPU:      float64(n%10) / 10,
				Mem:      float64(n%7) / 7,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkManagerCheckInBatchSharded measures the batched entry point:
// each op is one 64-item batch under a single core-lock acquisition. The
// custom checkins/s metric is directly comparable with the single-call
// benchmarks' ops/s.
func BenchmarkManagerCheckInBatchSharded(b *testing.B) {
	const batch = 64
	m := newBenchManager(b, defaultShards)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cis := make([]CheckIn, batch)
		for pb.Next() {
			for i := range cis {
				n := seq.Add(1)
				cis[i] = CheckIn{
					DeviceID: fmt.Sprintf("bench-%d", n),
					CPU:      float64(n%10) / 10,
					Mem:      float64(n%7) / 7,
				}
			}
			for _, r := range m.CheckInBatch(cis) {
				if r.Error != "" {
					b.Fatal(r.Error)
				}
			}
		}
	})
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)*batch/sec, "checkins/s")
	}
}

// BenchmarkCheckInContended measures the demand-heavy regime: an
// inexhaustible General job plus a lifted daily budget means every check-in
// is assignment-eligible and commits through the scheduler core, and every
// assignment is reported back so the same devices stay assignable.
func BenchmarkCheckInContended(b *testing.B) {
	const batch = 64
	m := NewManager(Config{DisableDailyBudget: true})
	if _, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: 1 << 30, Rounds: 1}); err != nil {
		b.Fatal(err)
	}
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := worker.Add(1)
		cis := make([]CheckIn, batch)
		for i := range cis {
			cis[i] = CheckIn{
				DeviceID: fmt.Sprintf("w%d-d%d", w, i),
				CPU:      0.5 + float64(i%5)/10,
				Mem:      0.5 + float64(i%4)/10,
			}
		}
		reps := make([]Report, 0, batch)
		for pb.Next() {
			reps = reps[:0]
			for i, r := range m.CheckInBatch(cis) {
				if r.Error != "" {
					b.Fatal(r.Error)
				}
				if r.Assigned {
					reps = append(reps, Report{
						DeviceID: cis[i].DeviceID, JobID: r.JobID,
						OK: true, DurationSeconds: 1,
					})
				}
			}
			if len(reps) > 0 {
				for _, rr := range m.ReportBatch(reps) {
					if rr.Error != "" {
						b.Fatal(rr.Error)
					}
				}
			}
		}
	})
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)*batch/sec, "checkins/s")
	}
}
