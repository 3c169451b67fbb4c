package transport_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"venn/internal/client"
	"venn/internal/server"
	"venn/internal/transport"
)

// startServer spins a manager + stream server on a loopback listener and
// returns the dial address plus a cleanup.
func startServer(t *testing.T, opts transport.Options) (*server.Manager, *transport.Server, string) {
	t.Helper()
	m := server.NewManager(server.Config{})
	ts := transport.NewServer(m, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ts.Serve(ln) }()
	t.Cleanup(func() { _ = ts.Close() })
	return m, ts, ln.Addr().String()
}

// TestStreamEndToEnd drives the whole agent protocol over one stream
// client: job registration, batched check-ins, batched reports, status
// polls, and telemetry.
func TestStreamEndToEnd(t *testing.T) {
	m, ts, addr := startServer(t, transport.Options{})
	c := client.NewStream(addr)
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	st, err := c.RegisterJob(server.JobSpec{Name: "j0", Category: "General", DemandPerRound: 3, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}

	cis := make([]server.CheckIn, 16)
	for i := range cis {
		cis[i] = server.CheckIn{DeviceID: fmt.Sprintf("dev-%02d", i), CPU: 0.9, Mem: 0.9}
	}
	results, err := c.CheckInBatch(cis)
	if err != nil {
		t.Fatal(err)
	}
	var reports []server.Report
	for i, res := range results {
		if res.Error != "" {
			t.Errorf("item %d rejected: %s", i, res.Error)
		}
		if res.Assigned {
			reports = append(reports, server.Report{
				DeviceID: cis[i].DeviceID, JobID: res.JobID, OK: true, DurationSeconds: 30,
			})
		}
	}
	if len(reports) != 3 {
		t.Fatalf("%d assignments, want 3", len(reports))
	}
	if _, err := c.ReportBatch(reports); err != nil {
		t.Fatal(err)
	}
	got, err := c.JobStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "done" {
		t.Errorf("job state %q after full round, want done", got.State)
	}
	if jobs, err := c.Jobs(); err != nil || len(jobs) != 1 {
		t.Errorf("Jobs() = %v, %v", jobs, err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}

	mt, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if mt.StreamConns < 1 || mt.StreamFramesIn == 0 || mt.StreamFramesOut == 0 {
		t.Errorf("stream telemetry not flowing: conns=%d in=%d out=%d",
			mt.StreamConns, mt.StreamFramesIn, mt.StreamFramesOut)
	}
	if mt.CheckInsPerSecByTransport != nil {
		if _, ok := mt.CheckInsPerSecByTransport[server.TransportHTTP]; ok {
			t.Error("no HTTP traffic was sent, http rate must be absent")
		}
	}
	// The writer counts a frame after its write returns, so the client can
	// read the last reply before the count lands; wait for it.
	tel := ts.StreamTelemetry()
	for deadline := time.Now().Add(2 * time.Second); tel.FramesIn != tel.FramesOut && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		tel = ts.StreamTelemetry()
	}
	if tel.FramesIn != tel.FramesOut {
		t.Errorf("every request frame must be answered: in=%d out=%d", tel.FramesIn, tel.FramesOut)
	}
	// Check-ins served over the stream share the manager with every other
	// transport.
	if s := m.StatsSnapshot(); s.CheckIns == 0 {
		t.Error("stream check-ins did not reach the manager")
	}
}

// TestStreamTypedErrors pins the error mapping across the wire: busy
// devices and unknown jobs come back as StreamError with the service
// layer's code.
func TestStreamTypedErrors(t *testing.T) {
	_, _, addr := startServer(t, transport.Options{})
	c := client.NewStream(addr)
	defer c.Close()

	if _, err := c.RegisterJob(server.JobSpec{Category: "General", DemandPerRound: 1, Rounds: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CheckIn(server.CheckIn{DeviceID: "d1", CPU: 0.9, Mem: 0.9}); err != nil {
		t.Fatal(err)
	}
	_, err := c.CheckIn(server.CheckIn{DeviceID: "d1", CPU: 0.9, Mem: 0.9})
	var se *client.StreamError
	if !errors.As(err, &se) || se.Code != server.CodeBusy {
		t.Errorf("busy device over stream: %v, want StreamError CodeBusy", err)
	}
	_, err = c.JobStatus(424242)
	if !errors.As(err, &se) || se.Code != server.CodeNotFound {
		t.Errorf("unknown job over stream: %v, want StreamError CodeNotFound", err)
	}
	if _, err := c.RegisterJob(server.JobSpec{Category: "bogus", DemandPerRound: 1, Rounds: 1}); err == nil {
		t.Error("bogus category must fail over stream")
	}
}

// TestStreamPipelinedConcurrency hammers one small connection pool from
// many goroutines — multiplexing, request-ID correlation, and the
// in-flight window all under the race detector.
func TestStreamPipelinedConcurrency(t *testing.T) {
	_, _, addr := startServer(t, transport.Options{Window: 8})
	c := client.NewStream(addr, client.WithStreamConns(2))
	defer c.Close()

	const goroutines = 24
	const perG = 40
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				cis := []server.CheckIn{
					{DeviceID: fmt.Sprintf("g%02d-i%03d-a", g, i), CPU: 0.5, Mem: 0.5},
					{DeviceID: fmt.Sprintf("g%02d-i%03d-b", g, i), CPU: 0.2, Mem: 0.8},
				}
				results, err := c.CheckInBatch(cis)
				if err != nil || len(results) != 2 {
					failures.Add(1)
					continue
				}
				if err := c.Ping(); err != nil {
					failures.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Errorf("%d of %d pipelined calls failed", n, goroutines*perG*2)
	}
}

// TestStreamReconnect kills the server mid-conversation and brings a new
// one up on the same address: the client must fail fast while the server
// is down and transparently redial once it is back.
func TestStreamReconnect(t *testing.T) {
	m := server.NewManager(server.Config{})
	ts := transport.NewServer(m, transport.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go func() { _ = ts.Serve(ln) }()

	c := client.NewStream(addr, client.WithTimeout(2*time.Second))
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	_ = ts.Close()
	// The dead connection must surface as an error, not a hang.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.Ping(); err != nil {
			break
		}
	}

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	ts2 := transport.NewServer(m, transport.Options{})
	go func() { _ = ts2.Serve(ln2) }()
	defer ts2.Close()

	var pingErr error
	for time.Now().Before(deadline) {
		if pingErr = c.Ping(); pingErr == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if pingErr != nil {
		t.Fatalf("client did not reconnect: %v", pingErr)
	}
}

// TestStreamShutdownMidStream checks the drain path: Shutdown under live
// pipelined load answers everything it already read, never wedges, and
// refuses new connections afterwards.
func TestStreamShutdownMidStream(t *testing.T) {
	_, ts, addr := startServer(t, transport.Options{Window: 16})

	const clients = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < clients; i++ {
		c := client.NewStream(addr, client.WithTimeout(2*time.Second))
		defer c.Close()
		wg.Add(1)
		go func(c *client.StreamClient, i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected once shutdown begins; the assertion
				// is that calls terminate (no deadlock) and the server
				// drains.
				_, _ = c.CheckInBatch([]server.CheckIn{
					{DeviceID: fmt.Sprintf("c%d-%d", i, n), CPU: 0.5, Mem: 0.5},
				})
			}
		}(c, i)
	}

	time.Sleep(100 * time.Millisecond) // let load build
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.Shutdown(ctx); err != nil {
		t.Errorf("graceful shutdown failed: %v", err)
	}
	close(stop)
	wg.Wait()

	if tel := ts.StreamTelemetry(); tel.Conns != 0 {
		t.Errorf("%d connections survived shutdown", tel.Conns)
	}
	// New connections must be refused.
	c2 := client.NewStream(addr, client.WithTimeout(500*time.Millisecond))
	defer c2.Close()
	if err := c2.Ping(); err == nil {
		t.Error("ping succeeded after shutdown")
	}
}

// TestStreamProtocolViolation sends garbage bytes: the server must drop the
// connection without answering, and stay healthy for well-formed peers.
func TestStreamProtocolViolation(t *testing.T) {
	_, _, addr := startServer(t, transport.Options{MaxPayload: 1024})

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("bad magic: read err %v, want EOF (connection closed)", err)
	}

	// A frame whose declared length exceeds the cap is also a violation.
	raw2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw2.Close()
	bw := bufio.NewWriter(raw2)
	if err := transport.WriteFrame(bw, transport.Version1, transport.OpCheckIn, 1, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	_ = bw.Flush()
	_ = raw2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw2.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("oversized frame: read err %v, want EOF", err)
	}

	// An unknown opcode inside a valid frame is answered with OpError and
	// the connection survives.
	raw3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw3.Close()
	bw3 := bufio.NewWriter(raw3)
	if err := transport.WriteFrame(bw3, transport.Version1, 0x70, 7, nil); err != nil {
		t.Fatal(err)
	}
	_ = bw3.Flush()
	fr, err := transport.ReadFrame(bufio.NewReader(raw3), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Op != transport.OpError || fr.ID != 7 {
		t.Errorf("unknown opcode answer: op %#x id %d, want OpError id 7", fr.Op, fr.ID)
	}
}
