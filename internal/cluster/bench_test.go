package cluster_test

import (
	"fmt"
	"testing"

	"venn/internal/client"
	"venn/internal/server"
)

// BenchmarkForwardPath profiles the server-side federation hop: a plain
// (ring-unaware) client batches check-ins into one daemon of a two-member
// federation over real loopback transport, so roughly half of every batch
// crosses the forward path to its owner. ReportAllocs counts allocations
// process-wide — ingress handler, forward encode, peer handler, response
// merge — which is exactly the surface the relay and the frame-buffer pools
// attack.
//
//	relay/   zero-copy raw relay with pooled buffers
//
// Compare relay/ against a pre-pool checkout to see the buffer pools'
// effect.
func BenchmarkForwardPath(b *testing.B) {
	b.Run("relay", func(b *testing.B) {
		nodes := startFederation(b, 2)
		c := client.NewStream(nodes[0].addr)
		defer c.Close()

		batch := make([]server.CheckIn, 128)
		for i := range batch {
			batch[i] = server.CheckIn{DeviceID: fmt.Sprintf("bench-dev-%04d", i), CPU: 0.5, Mem: 0.5}
		}

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.CheckInBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		_, out, errs, _ := nodes[0].clu.Counters()
		if out == 0 || errs != 0 {
			b.Fatalf("forward path not exercised: out=%d errs=%d", out, errs)
		}
	})
}
