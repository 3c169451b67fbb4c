package transport

import (
	"bufio"
	"context"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"venn/internal/obs"
	"venn/internal/server"
)

// ErrServerClosed is returned by Serve after Shutdown or Close, mirroring
// http.ErrServerClosed.
var ErrServerClosed = errors.New("transport: server closed")

// Options parameterizes the stream server. The zero value takes defaults.
type Options struct {
	// Window bounds the in-flight (read but unanswered) requests per
	// connection (default 64). When a client pipelines past it, the server
	// simply stops reading that connection until responses drain —
	// backpressure propagates through TCP instead of growing queues.
	Window int
	// MaxPayload bounds one frame's payload (default server.MaxBatch KiB,
	// matching the HTTP adapter's batch body bound). A frame announcing
	// more is a protocol violation and closes the connection.
	MaxPayload int
}

func (o *Options) fillDefaults() {
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.MaxPayload <= 0 {
		o.MaxPayload = server.MaxBatch * 1024
	}
}

// Server serves the scheduler's Service over framed TCP streams. Each
// connection gets a read loop (frames → bounded handler window) and a write
// loop (responses → buffered writer, flushed when idle); responses carry
// the request's ID and may be answered out of order.
type Server struct {
	svc  *server.Service
	m    *server.Manager
	opts Options

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*srvConn]struct{}
	closed bool
	wg     sync.WaitGroup // one entry per active connection

	connsActive atomic.Int64
	framesIn    atomic.Int64
	framesInV2  atomic.Int64
	framesOut   atomic.Int64
}

// NewServer builds a stream server over m and registers its telemetry
// (stream_conns, stream_frames_*) with the manager's /v1/metrics; Shutdown
// and Close detach it again.
func NewServer(m *server.Manager, opts Options) *Server {
	opts.fillDefaults()
	s := &Server{
		svc:   server.NewService(m, server.TransportStream),
		m:     m,
		opts:  opts,
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[*srvConn]struct{}),
	}
	m.SetStreamTelemetrySource(s)
	m.SetTopologyPusher(s)
	return s
}

// PushTopology implements server.TopologyPusher: it enqueues an unsolicited
// OpTopology|RespFlag frame (request ID 0) to every connection that has
// fetched the topology, so ring-aware clients learn of membership changes
// without polling. The enqueue is non-blocking — a connection whose write
// window is full simply misses the push and re-syncs on the next forwarded
// response flag.
func (s *Server) PushTopology(info server.TopologyInfo) int {
	tp := TopologyPayload{Epoch: info.Epoch, VNodes: info.VNodes, Members: info.Members}
	payload, err := tp.MarshalBinary()
	if err != nil {
		return 0
	}
	s.mu.Lock()
	conns := make([]*srvConn, 0, len(s.conns))
	for sc := range s.conns {
		if sc.topoSub.Load() {
			conns = append(conns, sc)
		}
	}
	s.mu.Unlock()
	pushed := 0
	for _, sc := range conns {
		// The payload is shared across connections, so it is never pooled.
		if sc.tryPush(outFrame{ver: Version2, op: OpTopology | RespFlag, id: 0, payload: payload}) {
			pushed++
		}
	}
	return pushed
}

// StreamTelemetry snapshots the live stream counters (implements
// server.StreamTelemetrySource; reads only atomics, as that contract
// requires).
func (s *Server) StreamTelemetry() server.StreamTelemetry {
	return server.StreamTelemetry{
		Conns:      s.connsActive.Load(),
		FramesIn:   s.framesIn.Load(),
		FramesInV2: s.framesInV2.Load(),
		FramesOut:  s.framesOut.Load(),
	}
}

// Serve accepts connections on ln until the listener fails or the server is
// shut down (then it returns ErrServerClosed).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		sc := &srvConn{c: c, out: make(chan outFrame, s.opts.Window)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[sc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connsActive.Add(1)
		go s.serveConn(sc)
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown closes the listeners, stops reading new frames on every
// connection, and waits for in-flight requests to be answered and flushed.
// If ctx expires first, remaining connections are closed hard and ctx's
// error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	conns := make([]*srvConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	for _, sc := range conns {
		sc.beginDrain()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	defer s.m.ClearStreamTelemetrySource(s)
	defer s.m.ClearTopologyPusher(s)
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sc := range s.conns {
			sc.c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close shuts the server down without draining.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for sc := range s.conns {
		sc.c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.m.ClearStreamTelemetrySource(s)
	s.m.ClearTopologyPusher(s)
	return nil
}

type outFrame struct {
	ver     byte
	op      byte
	id      uint32
	payload []byte
	// pooled marks a payload owned by the frame buffer pool; the writer
	// returns it with PutBuf once the bytes are on the wire.
	pooled bool
	// sp is the request's observability span (nil when unsampled). The
	// writer attributes the out-queue wait plus the write syscall to its
	// write stage and finishes it once the bytes are on the wire (or the
	// connection died). enq is the enqueue instant, set only with a span.
	sp  *obs.Span
	enq time.Time
}

type srvConn struct {
	c   net.Conn
	out chan outFrame
	// draining flips when Shutdown asked this connection to stop reading;
	// the read loop then treats its (deadline-induced) read error as a
	// clean end-of-stream and lets in-flight responses flush.
	draining atomic.Bool
	// topoSub marks a connection that has fetched the topology (served an
	// OpTopology request) and therefore receives topology pushes.
	topoSub atomic.Bool
	// outMu/outClosed guard out against pushes racing the channel close:
	// handler sends are already ordered before the close by handlers.Wait,
	// but PushTopology arrives from the cluster health loop at any time.
	outMu     sync.RWMutex
	outClosed bool
}

// tryPush enqueues an unsolicited frame without blocking; it reports false
// when the connection is closing or its write window is full.
func (sc *srvConn) tryPush(fr outFrame) bool {
	sc.outMu.RLock()
	defer sc.outMu.RUnlock()
	if sc.outClosed {
		return false
	}
	select {
	case sc.out <- fr:
		return true
	default:
		return false
	}
}

// beginDrain stops the connection's read loop at the next frame boundary by
// expiring its read deadline.
func (sc *srvConn) beginDrain() {
	sc.draining.Store(true)
	_ = sc.c.SetReadDeadline(time.Unix(0, 1))
}

func (s *Server) serveConn(sc *srvConn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
		s.connsActive.Add(-1)
		s.wg.Done()
	}()

	// Writer loop: serializes response frames onto the socket. Queued
	// responses are drained into one writev-style vectored write
	// (net.Buffers.WriteTo — a single writev(2) on TCP), so a burst of
	// pipelined replies coalesces into one syscall without copying payloads
	// into an intermediate buffer. After a write error it keeps draining
	// the channel (dropping frames) so handler goroutines can never block
	// on a dead connection.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		const maxCoalesce = 64
		hdrs := make([]byte, maxCoalesce*HeaderSize)
		pending := make([]outFrame, 0, maxCoalesce)
		failed := false
		for {
			fr, ok := <-sc.out
			if !ok {
				return
			}
			pending = append(pending[:0], fr)
		gather:
			for len(pending) < maxCoalesce {
				select {
				case fr2, ok2 := <-sc.out:
					if !ok2 {
						break gather // write the batch; outer recv exits next
					}
					pending = append(pending, fr2)
				default:
					break gather
				}
			}
			if !failed {
				bufs := make(net.Buffers, 0, 2*len(pending))
				for i := range pending {
					f := &pending[i]
					h := hdrs[i*HeaderSize : (i+1)*HeaderSize]
					PutHeader(h, f.ver, f.op, f.id, len(f.payload))
					bufs = append(bufs, h)
					if len(f.payload) > 0 {
						bufs = append(bufs, f.payload)
					}
				}
				if _, err := bufs.WriteTo(sc.c); err != nil {
					failed = true
				} else {
					s.framesOut.Add(int64(len(pending)))
				}
			}
			// Written or dropped, pooled payloads are done with either way;
			// spans seal here — the write stage covers out-queue wait plus
			// the syscall, and a dropped frame records as an error.
			for i := range pending {
				f := &pending[i]
				if f.sp != nil {
					if failed {
						f.sp.SetError()
					} else {
						f.sp.Mark(obs.StageWrite, time.Since(f.enq))
					}
					f.sp.Finish()
				}
				if f.pooled {
					PutBuf(f.payload)
				}
			}
		}
	}()

	// Read loop: each frame is handled on its own goroutine, bounded by the
	// in-flight window. When the window is full the loop blocks before
	// reading further — pipelining depth is capped per connection, and
	// backpressure reaches the client through TCP flow control.
	br := bufio.NewReaderSize(sc.c, 64<<10)
	sem := make(chan struct{}, s.opts.Window)
	var handlers sync.WaitGroup
	for {
		fr, readNs, err := ReadFramePooledTimed(br, s.opts.MaxPayload)
		if err != nil {
			// EOF, peer reset, protocol violation, or the drain deadline:
			// all end the read loop; in-flight work still completes below.
			break
		}
		s.framesIn.Add(1)
		if fr.Ver >= Version2 {
			s.framesInV2.Add(1)
		}
		sem <- struct{}{}
		handlers.Add(1)
		go func(fr Frame, readNs int64) {
			defer handlers.Done()
			t0 := time.Now()
			op, payload, pooled, sp := s.handle(sc, fr.Ver, fr.Op, fr.Payload)
			// The request payload is pooled and nothing retains it past
			// handle (decoders copy; the relay copies item ranges before
			// returning), so it recycles here.
			PutBuf(fr.Payload)
			s.svc.Obs().ObserveTotal(obsOpOf(fr.Op), time.Since(t0))
			sp.Mark(obs.StageRead, time.Duration(readNs))
			of := outFrame{ver: fr.Ver, op: op, id: fr.ID, payload: payload, pooled: pooled, sp: sp}
			if sp != nil {
				of.enq = time.Now()
			}
			sc.out <- of
			<-sem
		}(fr, readNs)
	}
	handlers.Wait()
	sc.outMu.Lock()
	sc.outClosed = true
	sc.outMu.Unlock()
	close(sc.out)
	<-writerDone
	sc.c.Close()
}

// obsOpOf maps an opcode (flag bits ignored) to its observability op.
func obsOpOf(op byte) obs.Op {
	switch op &^ (HopFlag | TraceFlag) {
	case OpCheckIn:
		return obs.OpCheckIn
	case OpCheckInBatch:
		return obs.OpCheckInBatch
	case OpReport:
		return obs.OpReport
	case OpReportBatch:
		return obs.OpReportBatch
	case OpRegisterJob, OpJobs, OpJobStatus:
		return obs.OpJobs
	default:
		return obs.OpOther
	}
}

// handle peels the optional trace context off a request frame, starts the
// request's observability span, and dispatches. A TraceFlag-marked frame
// carries a 9-byte trace prefix and is legal only on the four serving
// opcodes in v2 frames (dispatch rejects v1 serving frames; handle rejects
// the flag on every other opcode): when its sampled bit is set the
// span is forced with the origin's trace ID — the receiving side of a
// federation hop records the same trace the origin did, which is what lets
// a slow hop in the origin's flight recorder be joined against the remote's
// record. Unsampled requests get the regular 1-in-N sampler; hop requests
// whose origin did not sample never start a span of their own.
func (s *Server) handle(sc *srvConn, ver, op byte, payload []byte) (byte, []byte, bool, *obs.Span) {
	var trace uint64
	if op&TraceFlag != 0 {
		op &^= TraceFlag
		if !servingOp(op &^ HopFlag) {
			b, p, pl := errFrame(ver, server.CodeInvalid, errors.New("transport: trace flag on non-serving opcode"))
			return b, p, pl, nil
		}
		id, sampled, rest, err := PeelTrace(payload)
		if err != nil {
			b, p, pl := errFrame(ver, server.CodeInvalid, err)
			return b, p, pl, nil
		}
		payload = rest
		if sampled {
			trace = id
		}
	}
	obsOp := obsOpOf(op)
	var sp *obs.Span
	if trace != 0 {
		sp = s.svc.Obs().StartTraced(obsOp, trace)
	} else if op&HopFlag == 0 {
		sp = s.svc.Obs().Sample(obsOp)
	}
	ro, rp, pooled := s.dispatch(sc, ver, op, payload, sp)
	if ro == OpError {
		sp.SetError()
	}
	return ro, rp, pooled, sp
}

// servingOp reports whether op (flags stripped) is one of the four serving
// opcodes — the only ones that may carry HopFlag or TraceFlag, and which,
// like OpTopology, exist only in v2 frames.
func servingOp(op byte) bool {
	switch op {
	case OpCheckIn, OpCheckInBatch, OpReport, OpReportBatch:
		return true
	}
	return false
}

// dispatch routes one request frame to the service layer and encodes the
// response. Decode errors and service errors both become OpError frames;
// only framing violations (handled in the read loop) close the connection.
// A serving opcode or OpTopology in a v1 frame is answered with a JSON
// CodeInvalid error.
//
// A hop-flagged frame was already forwarded once by a peer daemon: it is
// dispatched to the local service unconditionally — the hop guard — so a
// stale ring on a peer can never make a request ping-pong between daemons.
// Its receipt (and payload size, for forward_bytes_in) is recorded with the
// attached federation router, and the flag is echoed on the response opcode.
// The flag is only legal on the four serving opcodes; anything else is
// rejected as invalid.
//
// On a *non-hop* batch request, HopFlag on the response opcode means
// something different: the router forwarded at least one item to a peer
// ("forwarded flag"). Ring-aware clients treat it as a stale-topology signal
// and re-fetch the ring.
//
// The returned bool marks a pooled response payload (the writer recycles it
// after the write).
func (s *Server) dispatch(sc *srvConn, ver, op byte, payload []byte, sp *obs.Span) (byte, []byte, bool) {
	forwarded := op&HopFlag != 0
	serving := servingOp(op &^ HopFlag)
	if forwarded && !serving {
		return errFrame(ver, server.CodeInvalid, errors.New("transport: hop flag on non-forwardable opcode"))
	}
	if ver < Version2 && (serving || op == OpTopology) {
		return errFrame(ver, server.CodeInvalid, errors.New("transport: opcode requires a v2 frame"))
	}
	if forwarded {
		s.svc.NoteForwardedIn(len(payload))
	}
	// Each serving arm calls decoded right after its binary decode, marking
	// the span's decode stage since t0. The clock reads are span-gated, so
	// the unsampled path pays nothing extra.
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	decoded := func() {
		if sp != nil {
			sp.Mark(obs.StageDecode, time.Since(t0))
		}
	}
	switch op &^ HopFlag {
	case OpCheckIn:
		var ci server.CheckIn
		err := ci.UnmarshalBinary(payload)
		decoded()
		if err != nil {
			return svcErrFrame(ver, err)
		}
		var asg server.Assignment
		if forwarded {
			asg, err = s.svc.CheckInLocal(ci, sp)
		} else {
			asg, err = s.svc.CheckIn(ci, sp)
		}
		if err != nil {
			return svcErrFrame(ver, err)
		}
		return respFrameSpan(ver, op, &asg, sp)
	case OpCheckInBatch:
		var req server.CheckInBatchRequest
		if forwarded {
			err := req.UnmarshalBinary(payload)
			decoded()
			if err != nil {
				return svcErrFrame(ver, err)
			}
			resp, err := s.svc.CheckInBatchLocal(req, sp)
			if err != nil {
				return svcErrFrame(ver, err)
			}
			return respFrameSpan(ver, op, &resp, sp)
		}
		bounds, err := req.UnmarshalBinaryBounds(payload)
		decoded()
		if err != nil {
			return svcErrFrame(ver, err)
		}
		resp, fwd, err := s.svc.CheckInBatchRouted(req, server.RawItems{Data: payload, Bounds: bounds}, sp)
		if err != nil {
			return svcErrFrame(ver, err)
		}
		if fwd {
			op |= HopFlag
		}
		return respFrameSpan(ver, op, &resp, sp)
	case OpReport:
		var rep server.Report
		err := rep.UnmarshalBinary(payload)
		decoded()
		if err != nil {
			return svcErrFrame(ver, err)
		}
		if forwarded {
			err = s.svc.ReportLocal(rep, sp)
		} else {
			err = s.svc.Report(rep, sp)
		}
		if err != nil {
			return svcErrFrame(ver, err)
		}
		return op | RespFlag, nil, false
	case OpReportBatch:
		var req server.ReportBatchRequest
		if forwarded {
			err := req.UnmarshalBinary(payload)
			decoded()
			if err != nil {
				return svcErrFrame(ver, err)
			}
			resp, err := s.svc.ReportBatchLocal(req, sp)
			if err != nil {
				return svcErrFrame(ver, err)
			}
			return respFrameSpan(ver, op, &resp, sp)
		}
		bounds, err := req.UnmarshalBinaryBounds(payload)
		decoded()
		if err != nil {
			return svcErrFrame(ver, err)
		}
		resp, fwd, err := s.svc.ReportBatchRouted(req, server.RawItems{Data: payload, Bounds: bounds}, sp)
		if err != nil {
			return svcErrFrame(ver, err)
		}
		if fwd {
			op |= HopFlag
		}
		return respFrameSpan(ver, op, &resp, sp)
	case OpRegisterJob:
		var spec server.JobSpec
		if err := json.Unmarshal(payload, &spec); err != nil {
			return errFrame(ver, server.CodeInvalid, err)
		}
		st, err := s.svc.RegisterJob(spec)
		if err != nil {
			return svcErrFrame(ver, err)
		}
		return respFrame(ver, op, st)
	case OpJobs:
		return respFrame(ver, op, s.svc.Jobs())
	case OpJobStatus:
		var req JobIDRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return errFrame(ver, server.CodeInvalid, err)
		}
		st, err := s.svc.JobStatusByID(req.ID)
		if err != nil {
			return svcErrFrame(ver, err)
		}
		return respFrame(ver, op, st)
	case OpStats:
		return respFrame(ver, op, s.svc.Stats())
	case OpMetrics:
		return respFrame(ver, op, s.svc.Metrics())
	case OpPing:
		return op | RespFlag, nil, false
	case OpTopology:
		// Serving it flags the connection for topology pushes.
		src := s.m.TopologySourceRef()
		if src == nil {
			return errFrame(ver, server.CodeUnavailable, errors.New("transport: no federation topology attached"))
		}
		info := src.Topology()
		sc.topoSub.Store(true)
		tp := TopologyPayload{Epoch: info.Epoch, VNodes: info.VNodes, Members: info.Members}
		return respFrame(ver, op, &tp)
	case OpHello:
		// The handshake: grant 2, or refuse an offer below it. The reply is
		// JSON whatever the frame version.
		var req HelloRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return errFrame(ver, server.CodeInvalid, err)
		}
		if req.MaxVersion < int(Version2) {
			return errFrame(ver, server.CodeInvalid, fmt.Errorf("transport: hello offers version %d, server requires 2", req.MaxVersion))
		}
		return respFrame(Version1, op, HelloResponse{Version: int(Version2)})
	default:
		return errFrame(ver, server.CodeInvalid, errors.New("transport: unknown opcode"))
	}
}

// binaryAppender is the pooled-encode fast path: types that can append their
// v2 wire form onto a caller-owned buffer, skipping the per-response
// allocation MarshalBinary would make.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// respFrame encodes a success response: the binary codec when the frame is
// v2 and the type has one (into a pooled buffer when the type supports
// appending), else the hand-rolled JSON marshaler, else encoding/json.
// Only the serving responses and TopologyPayload have a binary codec; the
// control opcodes keep JSON payloads in either frame version — they are
// off the hot path. The returned bool marks a pooled payload.
func respFrame(ver, op byte, v any) (byte, []byte, bool) {
	if ver >= Version2 {
		if m, ok := v.(binaryAppender); ok {
			buf, err := m.AppendBinary(GetBuf(64))
			if err != nil {
				PutBuf(buf)
				return errFrame(ver, server.CodeInvalid, err)
			}
			return op | RespFlag, buf, true
		}
	}
	var buf []byte
	var err error
	if m, ok := v.(encoding.BinaryMarshaler); ok && ver >= Version2 {
		buf, err = m.MarshalBinary()
	} else if m, ok := v.(json.Marshaler); ok {
		buf, err = m.MarshalJSON()
	} else {
		buf, err = json.Marshal(v)
	}
	if err != nil {
		return errFrame(ver, server.CodeInvalid, err)
	}
	return op | RespFlag, buf, false
}

// respFrameSpan is respFrame with the span's encode-stage mark (clock reads
// span-gated; a nil span takes the plain path).
func respFrameSpan(ver, op byte, v any, sp *obs.Span) (byte, []byte, bool) {
	if sp == nil {
		return respFrame(ver, op, v)
	}
	t0 := time.Now()
	ro, payload, pooled := respFrame(ver, op, v)
	sp.Mark(obs.StageEncode, time.Since(t0))
	return ro, payload, pooled
}

func svcErrFrame(ver byte, err error) (byte, []byte, bool) {
	return errFrame(ver, server.ErrCode(err), err)
}

func errFrame(ver byte, code server.Code, err error) (byte, []byte, bool) {
	ep := ErrorPayload{Code: int(code), Error: err.Error()}
	if ver >= Version2 {
		buf, _ := ep.MarshalBinary()
		return OpError, buf, false
	}
	buf, mErr := json.Marshal(ep)
	if mErr != nil {
		buf = []byte(`{"code":1,"error":"transport: unencodable error"}`)
	}
	return OpError, buf, false
}
