package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"venn/internal/stats"
	"venn/internal/trace"
)

// Device states in the generator's ledger. A device is drawn for a check-in
// only while idle, so the generator never provokes a busy rejection: it is
// in flight from the moment its batch is built until the verdict arrives,
// and busy from an assignment until its report is acknowledged.
const (
	devIdle uint32 = iota
	devInFlight
	devBusy
)

// fleet is the synthetic device population with the generator's per-device
// ledger. Scores come from the trace capacity model, so the requirement
// strata (and hence tier matching) see the same mix as the simulator.
type fleet struct {
	seed  uint64
	ids   []string
	cpu   []float64
	mem   []float64
	state []atomic.Uint32
	// tasked is the per-device day ledger: set once the device wins an
	// assignment. Runs last well under one daemon day, so with the daily
	// budget on every later check-in of a tasked device is a budget refusal.
	tasked []atomic.Bool
}

func newFleet(n int, seed int64) *fleet {
	rng := stats.NewRNG(seed)
	cm := trace.DefaultCapacityModel()
	f := &fleet{
		seed:   uint64(seed),
		ids:    make([]string, n),
		cpu:    make([]float64, n),
		mem:    make([]float64, n),
		state:  make([]atomic.Uint32, n),
		tasked: make([]atomic.Bool, n),
	}
	for i := range f.ids {
		f.ids[i] = fmt.Sprintf("dev-%07d", i)
		f.cpu[i], f.mem[i] = cm.Sample(rng)
	}
	return f
}

// draw reserves a random idle device, or returns -1 when a bounded number
// of tries finds none.
func (f *fleet) draw(rng *rand.Rand) int {
	for try := 0; try < 64; try++ {
		i := rng.Intn(len(f.ids))
		if f.state[i].CompareAndSwap(devIdle, devInFlight) {
			return i
		}
	}
	return -1
}

// splitmix64 is a stateless 64-bit mixer for seeded per-event draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// taskDelay is how long device i takes to report back on (job, round): a
// base time stretched for slow devices (capability 0.7·cpu + 0.3·mem, as
// device.Capability) with ±25% seeded jitter. Capability-dependent delays
// make the scheduler's tier matching visible in live JCT.
func (f *fleet) taskDelay(i, jobID, round int, base time.Duration) time.Duration {
	h := splitmix64(f.seed ^ uint64(i)<<24 ^ uint64(jobID)<<8 ^ uint64(round))
	u := float64(h>>11) / (1 << 53)
	capability := 0.7*f.cpu[i] + 0.3*f.mem[i]
	return time.Duration(float64(base) * (1 + 3*(1-capability)) * (0.75 + 0.5*u))
}
