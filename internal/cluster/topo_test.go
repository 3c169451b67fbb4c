package cluster_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"venn/internal/client"
	"venn/internal/cluster"
	"venn/internal/server"
)

// ringAware dials addr with ring-aware routing on and returns the concrete
// stream client (the topology API lives on *StreamClient).
func ringAware(t *testing.T, addr string) *client.StreamClient {
	t.Helper()
	c, ok := client.New(addr, client.WithTopology(true)).(*client.StreamClient)
	if !ok {
		t.Fatal("ring-aware client is not a StreamClient")
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func marshalResults(t *testing.T, res []server.CheckInResult) string {
	t.Helper()
	resp := server.CheckInBatchResponse{Results: res}
	buf, err := resp.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestStaleTopologyCorrection pins the staleness contract end to end over
// real transport: a client whose ring disagrees with the servers' (injected
// with a different vnode count, the worst realistic skew — every send is
// partitioned under one view, then lands on daemons running another)
// misroutes a large fraction of its items, the owners forward them
// server-side and flag the responses, and the client re-syncs from the flag.
// Correctness is asserted the strong way: the stale client's merged results
// are byte-identical to a fresh-topology client's for the same fleet, and
// after the re-sync its traffic stops producing forwards entirely.
//
// Run under -race in CI: batch sends race against the asynchronous
// markStale→fetch→install path and against server topology pushes.
func TestStaleTopologyCorrection(t *testing.T) {
	fedA := startFederation(t, 2) // serves the stale client
	fedB := startFederation(t, 2) // serves the fresh client

	membersA := []string{fedA[0].addr, fedA[1].addr}

	stale := ringAware(t, fedA[0].addr)
	fresh := ringAware(t, fedB[0].addr)

	// Inject a 1-vnode view at epoch 0: same members, materially different
	// ownership than the servers' 128-vnode ring, and older than any epoch
	// the servers will ever publish (they start at 1).
	stale.InjectTopologyForTest(0, 1, membersA)

	// The test is only meaningful if the rings actually disagree for this
	// fleet — verify rather than assume.
	staleRing := cluster.NewRing(membersA, 1)
	fleet := make([]server.CheckIn, 256)
	misroutes := 0
	for i := range fleet {
		id := fmt.Sprintf("stale-dev-%04d", i)
		fleet[i] = server.CheckIn{DeviceID: id, CPU: 0.5, Mem: 0.5}
		if staleRing.Owner(id) != fedA[0].clu.Ring().Owner(id) {
			misroutes++
		}
	}
	if misroutes == 0 {
		t.Fatal("1-vnode and 128-vnode rings agree on every device; stale view exercises nothing")
	}

	// No jobs are registered on either federation, so every check-in answers
	// the deterministic unassigned result — making cross-cluster comparison
	// exact instead of schedule-dependent.
	sendAll := func(c *client.StreamClient) []server.CheckInResult {
		out := make([]server.CheckInResult, len(fleet))
		var wg sync.WaitGroup
		errs := make([]error, len(fleet)/64)
		for lo := 0; lo < len(fleet); lo += 64 {
			wg.Add(1)
			go func(slot, lo int) {
				defer wg.Done()
				res, err := c.CheckInBatch(fleet[lo : lo+64])
				if err != nil {
					errs[slot] = err
					return
				}
				copy(out[lo:], res)
			}(lo/64, lo)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	// Warm the fresh client's view with one routed call: the first topology
	// fetch is single-flight, and concurrent callers that lose the race fall
	// back to plain seed routing (allowed to forward) by design.
	if _, err := fresh.CheckIn(server.CheckIn{DeviceID: "warmup", CPU: 0.1, Mem: 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.TopologyEpoch(); !ok {
		t.Fatal("fresh client has no topology view after first call")
	}

	staleRes := sendAll(stale)
	freshRes := sendAll(fresh)
	if marshalResults(t, staleRes) != marshalResults(t, freshRes) {
		t.Fatal("stale-topology client results differ from fresh-topology client results")
	}

	// The forwarded flag must have triggered a re-fetch; wait for the
	// corrected view (any server-published epoch, i.e. > the injected 0).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if epoch, ok := stale.TopologyEpoch(); ok && epoch > 0 {
			break
		}
		if time.Now().After(deadline) {
			epoch, ok := stale.TopologyEpoch()
			t.Fatalf("client never re-synced: epoch=%d active=%v", epoch, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// With the corrected ring the client and servers agree on every owner:
	// further traffic must produce zero new forwards.
	forwardsA := func() int64 {
		var total int64
		for _, nd := range fedA {
			_, out, _, _ := nd.clu.Counters()
			total += out
		}
		return total
	}
	before := forwardsA()
	if marshalResults(t, sendAll(stale)) != marshalResults(t, freshRes) {
		t.Fatal("post-correction results differ")
	}
	if after := forwardsA(); after != before {
		t.Fatalf("corrected client still causes forwards: %d -> %d", before, after)
	}

	// The fresh client, ring-aware from its first call, must never have
	// caused a forward at all — and its direct sub-batches are counted.
	var freshForwards, direct int64
	for _, nd := range fedB {
		_, out, _, _ := nd.clu.Counters()
		freshForwards += out
		direct += nd.clu.ClusterTelemetry().DirectRoutedBatches
	}
	if freshForwards != 0 {
		t.Fatalf("fresh-topology client caused %d forwards, want 0", freshForwards)
	}
	if direct == 0 {
		t.Fatal("no direct-routed batches counted on the fresh federation")
	}
}
