package transport_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"venn/internal/client"
	"venn/internal/server"
	"venn/internal/transport"
)

// startShardedServer is startServer over N SO_REUSEPORT listeners.
func startShardedServer(t *testing.T, opts transport.Options, shards int) (*server.Manager, *transport.Server, string) {
	t.Helper()
	m := server.NewManager(server.Config{})
	ts := transport.NewServer(m, opts)
	lns, err := transport.ListenSharded("127.0.0.1:0", shards)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ts.ServeListeners(lns) }()
	t.Cleanup(func() { _ = ts.Close() })
	return m, ts, lns[0].Addr().String()
}

// exchange dials addr, writes frames as one burst, and reads back n
// response frames keyed by request ID.
func exchange(t *testing.T, addr string, n int, frames ...transport.Frame) map[uint32]transport.Frame {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	bw := bufio.NewWriter(raw)
	for _, fr := range frames {
		if err := transport.WriteFrame(bw, fr.Ver, fr.Op, fr.ID, fr.Payload); err != nil {
			t.Fatal(err)
		}
	}
	_ = bw.Flush()
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReader(raw)
	got := map[uint32]transport.Frame{}
	for i := 0; i < n; i++ {
		fr, err := transport.ReadFrame(br, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		got[fr.ID] = fr
	}
	return got
}

// helloFrame builds an OpHello request offering maxVersion.
func helloFrame(id uint32, maxVersion int) transport.Frame {
	payload, _ := json.Marshal(transport.HelloRequest{MaxVersion: maxVersion})
	return transport.Frame{Ver: transport.Version1, Op: transport.OpHello, ID: id, Payload: payload}
}

// errorOf decodes an OpError frame's payload per its frame version.
func errorOf(t *testing.T, fr transport.Frame) transport.ErrorPayload {
	t.Helper()
	if fr.Op != transport.OpError {
		t.Fatalf("frame %d: op %#x, want OpError", fr.ID, fr.Op)
	}
	var ep transport.ErrorPayload
	var err error
	if fr.Ver == transport.Version2 {
		err = ep.UnmarshalBinary(fr.Payload)
	} else {
		err = json.Unmarshal(fr.Payload, &ep)
	}
	if err != nil {
		t.Fatalf("frame %d: v%d error payload %q: %v", fr.ID, fr.Ver, fr.Payload, err)
	}
	return ep
}

// TestHello pins the handshake at the frame level: an offer of 2 or more is
// granted 2, and an offer below 2 is refused with CodeInvalid.
func TestHello(t *testing.T) {
	_, _, addr := startServer(t, transport.Options{})
	for _, ask := range []int{2, 7} {
		fr := exchange(t, addr, 1, helloFrame(9, ask))[9]
		if fr.Op != transport.OpHello|transport.RespFlag {
			t.Fatalf("ask %d: got op %#x", ask, fr.Op)
		}
		var hr transport.HelloResponse
		if err := json.Unmarshal(fr.Payload, &hr); err != nil {
			t.Fatal(err)
		}
		if hr.Version != 2 {
			t.Errorf("ask %d: granted %d, want 2", ask, hr.Version)
		}
	}
	for _, ask := range []int{0, 1} {
		fr := exchange(t, addr, 1, helloFrame(9, ask))[9]
		if ep := errorOf(t, fr); ep.Code != int(server.CodeInvalid) {
			t.Errorf("ask %d: error code %d, want CodeInvalid", ask, ep.Code)
		}
	}
}

// TestClientRefusesPreV2Daemon: a daemon that answers the hello with
// OpError, as one predating v2 does, fails the dial before any request is
// sent, so the caller sees a NotSentError.
func TestClientRefusesPreV2Daemon(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				fr, err := transport.ReadFrame(bufio.NewReader(c), 1<<20)
				if err != nil {
					return
				}
				payload, _ := json.Marshal(transport.ErrorPayload{Code: int(server.CodeInvalid), Error: "transport: unknown opcode"})
				bw := bufio.NewWriter(c)
				_ = transport.WriteFrame(bw, transport.Version1, transport.OpError, fr.ID, payload)
				_ = bw.Flush()
				_, _ = io.Copy(io.Discard, c)
			}(c)
		}
	}()
	c := client.NewStream(ln.Addr().String(), client.WithTimeout(2*time.Second))
	defer c.Close()
	_, err = c.CheckIn(server.CheckIn{DeviceID: "dev", CPU: 0.5, Mem: 0.5})
	var nse *client.NotSentError
	if !errors.As(err, &nse) {
		t.Fatalf("check-in against a pre-v2 daemon: err %v, want *client.NotSentError", err)
	}
}

// TestV2BinaryOnTheWire asserts a default client ↔ default server pair
// moves the serving opcodes as binary v2 frames (counted by the server),
// while typed errors come back binary too.
func TestV2BinaryOnTheWire(t *testing.T) {
	_, ts, addr := startServer(t, transport.Options{})
	c := client.NewStream(addr)
	defer c.Close()

	if _, err := c.CheckIn(server.CheckIn{DeviceID: "dev", CPU: 0.5, Mem: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CheckInBatch([]server.CheckIn{{DeviceID: "dev", CPU: 1, Mem: 1}}); err != nil {
		t.Fatal(err)
	}
	if tel := ts.StreamTelemetry(); tel.FramesInV2 < 2 {
		t.Errorf("server counted %d v2 frames, want >= 2", tel.FramesInV2)
	}
	// A service rejection over a v2 frame: binary error payload with the
	// stable code, decoded into the same typed StreamError.
	if _, err := c.CheckInBatch(make([]server.CheckIn, server.MaxBatch+1)); err == nil {
		t.Fatal("oversized batch accepted")
	} else if client.ErrCode(err) != server.CodeTooLarge {
		t.Errorf("v2 error code = %d, want CodeTooLarge", client.ErrCode(err))
	}
}

// TestServingOpsRequireV2Frames pins the per-frame rule on one connection:
// a check-in in a v1 frame is refused with a JSON CodeInvalid error — even
// when its payload is a well-formed binary check-in, so the frame version
// decides, not the payload — the same check-in in a v2 frame is answered
// in binary, a v1 OpTopology is refused the same way, and a control opcode
// in a v1 frame is still answered in JSON.
func TestServingOpsRequireV2Frames(t *testing.T) {
	_, _, addr := startServer(t, transport.Options{})
	ci := server.CheckIn{DeviceID: "mixed", CPU: 0.5, Mem: 0.5}
	jsonBody, _ := ci.MarshalJSON()
	binBody, _ := ci.MarshalBinary()
	got := exchange(t, addr, 5,
		transport.Frame{Ver: transport.Version1, Op: transport.OpCheckIn, ID: 1, Payload: jsonBody},
		transport.Frame{Ver: transport.Version2, Op: transport.OpCheckIn, ID: 2, Payload: binBody},
		transport.Frame{Ver: transport.Version1, Op: transport.OpJobs, ID: 3},
		transport.Frame{Ver: transport.Version1, Op: transport.OpCheckIn, ID: 4, Payload: binBody},
		transport.Frame{Ver: transport.Version1, Op: transport.OpTopology, ID: 5})
	for _, id := range []uint32{1, 4, 5} {
		if fr := got[id]; fr.Ver != transport.Version1 {
			t.Errorf("frame %d: v1 request answered in a v%d frame", id, fr.Ver)
		} else if ep := errorOf(t, fr); ep.Code != int(server.CodeInvalid) {
			t.Errorf("frame %d: v1 serving request: error code %d, want CodeInvalid", id, ep.Code)
		}
	}
	if fr := got[2]; fr.Ver != transport.Version2 || fr.Op != transport.OpCheckIn|transport.RespFlag {
		t.Errorf("v2 check-in answered ver %d op %#x", fr.Ver, fr.Op)
	} else {
		var asg server.Assignment
		if err := asg.UnmarshalBinary(fr.Payload); err != nil {
			t.Errorf("v2 response not binary: %v", err)
		}
	}
	if fr := got[3]; fr.Ver != transport.Version1 || fr.Op != transport.OpJobs|transport.RespFlag {
		t.Errorf("v1 jobs answered ver %d op %#x", fr.Ver, fr.Op)
	} else {
		var jobs []server.JobStatus
		if err := json.Unmarshal(fr.Payload, &jobs); err != nil {
			t.Errorf("v1 jobs response not JSON: %v", err)
		}
	}
}

// TestTraceFlagRejectedOnNonServingOp: only the four serving opcodes may
// carry a trace context. A sampled TraceFlag on a control opcode is refused
// with CodeInvalid (binary, since the frame is v2), and the connection keeps
// serving.
func TestTraceFlagRejectedOnNonServingOp(t *testing.T) {
	_, _, addr := startServer(t, transport.Options{})
	traced := transport.AppendTrace(nil, 0xfeed, true)
	ops := []byte{transport.OpStats, transport.OpPing, transport.OpJobs}
	frames := make([]transport.Frame, 0, len(ops)+1)
	for i, op := range ops {
		frames = append(frames, transport.Frame{Ver: transport.Version2, Op: op | transport.TraceFlag, ID: uint32(i + 1), Payload: traced})
	}
	frames = append(frames, transport.Frame{Ver: transport.Version2, Op: transport.OpPing, ID: 9})
	got := exchange(t, addr, len(frames), frames...)
	for i, op := range ops {
		fr := got[uint32(i+1)]
		if fr.Ver != transport.Version2 {
			t.Errorf("op %#x: answered in a v%d frame", op, fr.Ver)
		}
		if ep := errorOf(t, fr); ep.Code != int(server.CodeInvalid) {
			t.Errorf("op %#x with TraceFlag: error code %d, want CodeInvalid", op, ep.Code)
		}
	}
	if fr := got[9]; fr.Op != transport.OpPing|transport.RespFlag {
		t.Errorf("ping after rejected frames: op %#x", fr.Op)
	}
}

// TestShardedListeners serves concurrent batch traffic over per-core
// SO_REUSEPORT listeners and then exercises the multi-listener shutdown
// path. On platforms (or kernels) without SO_REUSEPORT, ListenSharded
// degrades to one listener and this still passes.
func TestShardedListeners(t *testing.T) {
	shards := runtime.GOMAXPROCS(0)
	if shards < 2 {
		shards = 2
	}
	m, ts, addr := startShardedServer(t, transport.Options{}, shards)
	if _, err := server.NewService(m, server.TransportStream).RegisterJob(server.JobSpec{Name: "j", Category: "General", DemandPerRound: 1, Rounds: 1}); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := client.NewStream(addr, client.WithStreamConns(1))
			defer c.Close()
			for i := 0; i < 20; i++ {
				cis := []server.CheckIn{{DeviceID: fmt.Sprintf("d-%d-%d", g, i), CPU: 0.5, Mem: 0.5}}
				if _, err := c.CheckInBatch(cis); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if tel := ts.StreamTelemetry(); tel.FramesIn < clients*20 {
		t.Errorf("frames_in = %d, want >= %d", tel.FramesIn, clients*20)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	// All listeners must actually be closed: a fresh dial fails.
	if c, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		// Accept queues may hold a connection briefly; a read distinguishes.
		_ = c.SetReadDeadline(time.Now().Add(time.Second))
		buf := make([]byte, 1)
		if _, rerr := c.Read(buf); rerr == nil {
			t.Error("post-Close listener still serving")
		}
		c.Close()
	}
}
