package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"venn/internal/server"
	"venn/internal/transport"
)

// StreamClient talks to a venndaemon stream listener (venndaemon
// -stream-addr) over the persistent framed protocol of internal/transport.
// It exposes the same surface as the HTTP Client — CheckIn/CheckInBatch,
// Report/ReportBatch, job registration and lookup, Stats, Metrics — but
// amortizes connection setup and HTTP framing away entirely: requests from
// any number of goroutines are multiplexed over a small pool of persistent
// connections, correlated by pipelined request IDs, and a connection that
// dies is redialed transparently on the next call.
//
// With WithTopology(true) the client is additionally *ring-aware*: it
// fetches the federation topology (OpTopology) from its seed daemon, builds
// the same consistent-hash ring the daemons use (internal/hashring), and
// partitions every call by device owner onto pooled per-member connections —
// so in a healthy cluster no request needs a server-side federation hop.
// See topo.go for the routing, staleness, and failover contract.
//
// All methods are safe for concurrent use.
type StreamClient struct {
	conns []*streamConn
	next  atomic.Uint64
	topo  *topoState // nil unless WithTopology(true)
}

// Stream defaults.
const (
	DefaultStreamConns      = 2
	DefaultStreamTimeout    = 10 * time.Second
	defaultClientMaxPayload = 64 << 20 // responses can carry full batch + metrics payloads
)

// NewStream creates a stream client for the daemon's stream listener at
// addr (e.g. "localhost:8081"). Connections are dialed lazily on first use
// and redialed automatically after failures; each dial opens with a hello
// that requires the daemon to grant wire version 2.
//
// Deprecated: use New — a bare host:port address (or
// WithTransport(TransportStream)) selects this same transport. NewStream
// remains for callers that need the concrete *StreamClient.
func NewStream(addr string, opts ...Option) *StreamClient {
	cfg := defaultClientConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return newStreamClient(addr, cfg)
}

func newStreamClient(addr string, cfg config) *StreamClient {
	sc := &StreamClient{conns: make([]*streamConn, cfg.streamConns)}
	for i := range sc.conns {
		sc.conns[i] = &streamConn{addr: addr, timeout: cfg.timeout}
	}
	if cfg.topology {
		sc.topo = newTopoState(sc, addr, cfg)
		for _, c := range sc.conns {
			c.onPush = sc.topo.applyPush
		}
	}
	return sc
}

// Close tears down every pooled connection (and, in topology mode, the
// per-member sub-clients); in-flight calls fail.
func (s *StreamClient) Close() error {
	if s.topo != nil {
		s.topo.close()
	}
	for _, c := range s.conns {
		c.close(errors.New("client: stream client closed"))
	}
	return nil
}

// Ping round-trips an empty frame — a cheap reachability and liveness
// probe.
func (s *StreamClient) Ping() error {
	return s.doJSON(transport.OpPing, nil, nil)
}

// CheckIn announces device availability and returns the assignment.
func (s *StreamClient) CheckIn(ci server.CheckIn) (server.Assignment, error) {
	if s.topo != nil {
		return s.topo.checkIn(ci)
	}
	asg, _, err := s.checkInOp(transport.OpCheckIn, ci, 0)
	return asg, err
}

func (s *StreamClient) checkInOp(op byte, ci server.CheckIn, trace uint64) (server.Assignment, bool, error) {
	var asg server.Assignment
	resp, fwd, err := s.do(op, trace, transport.Version2, func() ([]byte, error) {
		return ci.AppendBinary(transport.GetBuf(64))
	})
	if err != nil {
		return asg, fwd, err
	}
	return asg, fwd, asg.UnmarshalBinary(resp)
}

// CheckInBatch announces availability for a whole batch of devices in one
// frame. Results[i] answers cis[i]; per-item rejections surface in each
// result's Error field, not as a Go error.
func (s *StreamClient) CheckInBatch(cis []server.CheckIn) ([]server.CheckInResult, error) {
	if s.topo != nil {
		return s.topo.checkInBatch(cis)
	}
	res, _, err := s.checkInBatchOp(transport.OpCheckInBatch, cis, 0)
	return res, err
}

func (s *StreamClient) checkInBatchOp(op byte, cis []server.CheckIn, trace uint64) ([]server.CheckInResult, bool, error) {
	req := server.CheckInBatchRequest{CheckIns: cis}
	buf, fwd, err := s.do(op, trace, transport.Version2, func() ([]byte, error) {
		return req.AppendBinary(transport.GetBuf(256))
	})
	if err != nil {
		return nil, fwd, err
	}
	var resp server.CheckInBatchResponse
	if err := resp.UnmarshalBinary(buf); err != nil {
		return nil, fwd, err
	}
	if len(resp.Results) != len(cis) {
		return nil, fwd, fmt.Errorf("client: batch reply has %d results for %d check-ins", len(resp.Results), len(cis))
	}
	return resp.Results, fwd, nil
}

// Report submits a task result.
func (s *StreamClient) Report(r server.Report) error {
	if s.topo != nil {
		return s.topo.report(r)
	}
	_, err := s.reportOp(transport.OpReport, r, 0)
	return err
}

func (s *StreamClient) reportOp(op byte, r server.Report, trace uint64) (bool, error) {
	_, fwd, err := s.do(op, trace, transport.Version2, func() ([]byte, error) {
		return r.AppendBinary(transport.GetBuf(64))
	})
	return fwd, err
}

// ReportBatch submits a batch of task results in one frame. Results[i]
// answers rs[i].
func (s *StreamClient) ReportBatch(rs []server.Report) ([]server.ReportResult, error) {
	if s.topo != nil {
		return s.topo.reportBatch(rs)
	}
	res, _, err := s.reportBatchOp(transport.OpReportBatch, rs, 0)
	return res, err
}

func (s *StreamClient) reportBatchOp(op byte, rs []server.Report, trace uint64) ([]server.ReportResult, bool, error) {
	req := server.ReportBatchRequest{Reports: rs}
	buf, fwd, err := s.do(op, trace, transport.Version2, func() ([]byte, error) {
		return req.AppendBinary(transport.GetBuf(256))
	})
	if err != nil {
		return nil, fwd, err
	}
	var resp server.ReportBatchResponse
	if err := resp.UnmarshalBinary(buf); err != nil {
		return nil, fwd, err
	}
	if len(resp.Results) != len(rs) {
		return nil, fwd, fmt.Errorf("client: batch reply has %d results for %d reports", len(resp.Results), len(rs))
	}
	return resp.Results, fwd, nil
}

// RegisterJob submits a new CL job and returns its status (including ID).
func (s *StreamClient) RegisterJob(spec server.JobSpec) (server.JobStatus, error) {
	var st server.JobStatus
	err := s.doJSON(transport.OpRegisterJob, spec, &st)
	return st, err
}

// Jobs lists all jobs.
func (s *StreamClient) Jobs() ([]server.JobStatus, error) {
	var out []server.JobStatus
	err := s.doJSON(transport.OpJobs, nil, &out)
	return out, err
}

// JobStatus fetches one job's status.
func (s *StreamClient) JobStatus(id int) (server.JobStatus, error) {
	var st server.JobStatus
	err := s.doJSON(transport.OpJobStatus, transport.JobIDRequest{ID: id}, &st)
	return st, err
}

// Stats fetches the daemon's monitoring snapshot.
func (s *StreamClient) Stats() (server.Stats, error) {
	var st server.Stats
	err := s.doJSON(transport.OpStats, nil, &st)
	return st, err
}

// Metrics fetches the daemon's serving-throughput and latency metrics.
func (s *StreamClient) Metrics() (server.Metrics, error) {
	var mt server.Metrics
	err := s.doJSON(transport.OpMetrics, nil, &mt)
	return mt, err
}

// WaitForJob polls until the job completes or the timeout elapses.
func (s *StreamClient) WaitForJob(id int, poll, timeout time.Duration) (server.JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := s.JobStatus(id)
		if err != nil {
			return st, err
		}
		if st.State == "done" {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("client: job %d not done after %v", id, timeout)
		}
		time.Sleep(poll)
	}
}

// doJSON is do for the control ops: reflective encode of in (nil for an
// empty payload), reflective decode into out. These opcodes have no binary
// layout and ride in v1 (JSON) frames.
func (s *StreamClient) doJSON(op byte, in, out any) error {
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return err
		}
	}
	buf, _, err := s.do(op, 0, transport.Version1, func() ([]byte, error) { return payload, nil })
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(buf, out)
}

// do sends one request frame of version ver over a pooled connection and
// waits for its response, returning the response payload and whether the
// response carried the forwarded flag (HopFlag on a non-hop request's
// response: the daemon federation-hopped at least one item, i.e. a
// ring-aware caller's topology is stale) — or the decoded error frame.
//
// enc builds the request payload. Ownership of the payload passes to the
// send path: once the frame is written (or the write fails) the buffer is
// recycled into the transport's frame pool, so encoders should build into
// transport.GetBuf and must not retain the slice.
//
// A nonzero trace (the forwarding daemon's sampled span ID) is prepended to
// the payload and announced via TraceFlag on the opcode, so the receiving
// daemon records the hop under the same trace ID; only the serving opcodes
// may carry one.
func (s *StreamClient) do(op byte, trace uint64, ver byte, enc func() ([]byte, error)) ([]byte, bool, error) {
	c := s.conns[s.next.Add(1)%uint64(len(s.conns))]
	return c.do(op, trace, ver, enc)
}

// streamConn is one pooled connection: a lazily dialed socket, a reader
// goroutine that dispatches response frames to waiters by request ID, and
// a write path serialized by mu. gen guards against a stale teardown (a
// reader from a previous dial) clobbering a fresh connection.
type streamConn struct {
	addr    string
	timeout time.Duration
	// onPush, when set, receives unsolicited OpTopology|RespFlag frames
	// (request ID 0) — the server's topology-change notifications. Called on
	// the read-loop goroutine; must not block.
	onPush func(transport.TopologyPayload)

	mu      sync.Mutex
	c       net.Conn
	bw      *bufio.Writer
	pending map[uint32]chan streamResp
	nextID  uint32
	gen     uint64
}

type streamResp struct {
	ver     byte
	op      byte
	payload []byte
	err     error
}

// connectLocked dials under mu if needed, runs the hello, and starts the
// reader for the new connection.
func (sc *streamConn) connectLocked() error {
	if sc.c != nil {
		return nil
	}
	c, err := net.DialTimeout("tcp", sc.addr, sc.timeout)
	if err != nil {
		return &NotSentError{Err: fmt.Errorf("client: dial stream %s: %w", sc.addr, err)}
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	br, err := hello(c, sc.timeout)
	if err != nil {
		c.Close()
		// The hello never became a caller-visible request, so this is a
		// pre-send failure: safe to retry elsewhere — and a daemon that
		// refuses v2 is refused here, before any request is sent.
		return &NotSentError{Err: fmt.Errorf("client: stream hello %s: %w", sc.addr, err)}
	}
	sc.c = c
	sc.bw = bufio.NewWriterSize(c, 64<<10)
	sc.pending = make(map[uint32]chan streamResp)
	sc.gen++
	go sc.readLoop(sc.gen, c, br)
	return nil
}

// hello performs the synchronous OpHello exchange on a fresh connection,
// before any pipelined traffic: it offers version 2 and requires the server
// to grant exactly that. Any other answer — a refusal, or a pre-v2 daemon's
// OpError for an unknown opcode — fails. The returned reader carries any
// bytes buffered past the hello response and must be handed to the read
// loop.
func hello(c net.Conn, timeout time.Duration) (*bufio.Reader, error) {
	br := bufio.NewReaderSize(c, 64<<10)
	_ = c.SetDeadline(time.Now().Add(timeout))
	defer func() { _ = c.SetDeadline(time.Time{}) }()
	payload, err := json.Marshal(transport.HelloRequest{MaxVersion: int(transport.Version2)})
	if err != nil {
		return nil, err
	}
	buf := make([]byte, transport.HeaderSize, transport.HeaderSize+len(payload))
	transport.PutHeader(buf, transport.Version1, transport.OpHello, 0, len(payload))
	if _, err := c.Write(append(buf, payload...)); err != nil {
		return nil, err
	}
	fr, err := transport.ReadFrame(br, defaultClientMaxPayload)
	if err != nil {
		return nil, err
	}
	switch fr.Op {
	case transport.OpHello | transport.RespFlag:
		var hr transport.HelloResponse
		if err := json.Unmarshal(fr.Payload, &hr); err != nil {
			return nil, fmt.Errorf("malformed hello response: %w", err)
		}
		if hr.Version != int(transport.Version2) {
			return nil, fmt.Errorf("server granted wire version %d, want 2", hr.Version)
		}
		return br, nil
	case transport.OpError:
		return nil, fmt.Errorf("server refused the v2 hello: %w", decodeStreamError(fr.Ver, fr.Payload))
	default:
		return nil, fmt.Errorf("unexpected hello response opcode %#x", fr.Op)
	}
}

// readLoop dispatches response frames to their waiters until the
// connection dies, then fails every pending request so callers can retry
// (the next call redials).
func (sc *streamConn) readLoop(gen uint64, c net.Conn, br *bufio.Reader) {
	for {
		fr, err := transport.ReadFrame(br, defaultClientMaxPayload)
		if err != nil {
			sc.teardown(gen, fmt.Errorf("client: stream connection lost: %w", err))
			return
		}
		if fr.ID == 0 && fr.Op == transport.OpTopology|transport.RespFlag {
			// Unsolicited topology push (ID 0 never collides with a request:
			// request IDs start at 1).
			if sc.onPush != nil {
				var tp transport.TopologyPayload
				if tp.UnmarshalBinary(fr.Payload) == nil {
					sc.onPush(tp)
				}
			}
			continue
		}
		sc.mu.Lock()
		var ch chan streamResp
		if gen == sc.gen {
			ch = sc.pending[fr.ID]
			delete(sc.pending, fr.ID)
		}
		sc.mu.Unlock()
		if ch != nil {
			ch <- streamResp{ver: fr.Ver, op: fr.Op, payload: fr.Payload}
		}
		// A response nobody waits for (timed-out request) is dropped.
	}
}

// teardown closes the socket of generation gen and fails its pending
// requests; a newer generation is left untouched.
func (sc *streamConn) teardown(gen uint64, err error) {
	sc.mu.Lock()
	if gen != sc.gen || sc.c == nil {
		sc.mu.Unlock()
		return
	}
	c := sc.c
	pending := sc.pending
	sc.c, sc.bw, sc.pending = nil, nil, nil
	sc.mu.Unlock()
	c.Close()
	for _, ch := range pending {
		ch <- streamResp{err: err}
	}
}

// close hard-closes the connection, failing pending requests with err.
func (sc *streamConn) close(err error) {
	sc.mu.Lock()
	gen := sc.gen
	sc.mu.Unlock()
	sc.teardown(gen, err)
}

func (sc *streamConn) do(op byte, trace uint64, ver byte, enc func() ([]byte, error)) ([]byte, bool, error) {
	ch := make(chan streamResp, 1)

	sc.mu.Lock()
	if err := sc.connectLocked(); err != nil {
		sc.mu.Unlock()
		return nil, false, err
	}
	// The payload is built under mu, after connect, so a failed dial never
	// pays for an encode. Keep it here: moving the encode ahead of the lock
	// read slower on perfbench's contended check-in p50. The codecs are
	// allocation-light appends; the write syscall below dominates.
	payload, err := enc()
	if err != nil {
		sc.mu.Unlock()
		return nil, false, err
	}
	// TraceFlag rides only on the wire opcode: the server strips it before
	// building the response, so response matching below uses the bare op.
	wireOp := op
	if trace != 0 {
		payload = transport.PrependTrace(payload, trace, true)
		wireOp |= transport.TraceFlag
	}
	gen := sc.gen
	sc.nextID++
	id := sc.nextID
	sc.pending[id] = ch
	// Write under mu: frames from concurrent callers interleave whole, and
	// the shared buffered writer coalesces them. The write deadline keeps a
	// wedged peer from holding the lock forever.
	_ = sc.c.SetWriteDeadline(time.Now().Add(sc.timeout))
	err = transport.WriteFrame(sc.bw, ver, wireOp, id, payload)
	if err == nil {
		err = sc.bw.Flush()
	}
	sc.mu.Unlock()
	// The buffered writer has copied (or directly written) the payload by
	// now, success or not — recycle it per do's encoder contract.
	transport.PutBuf(payload)
	if err != nil {
		sc.teardown(gen, fmt.Errorf("client: stream write: %w", err))
		// teardown already delivered the failure to ch (buffered), but be
		// defensive about ordering: prefer the write error.
		select {
		case <-ch:
		default:
		}
		return nil, false, &NotSentError{Err: fmt.Errorf("client: stream write: %w", err)}
	}

	timer := time.NewTimer(sc.timeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		if resp.err != nil {
			return nil, false, resp.err
		}
		if resp.op == transport.OpError {
			return nil, false, decodeStreamError(resp.ver, resp.payload)
		}
		// On a non-hop request, HopFlag on the response opcode is the
		// forwarded flag: the daemon federation-hopped at least one item.
		// (Hop requests echo the flag in op|RespFlag already.)
		forwarded := false
		if op&transport.HopFlag == 0 && resp.op == op|transport.RespFlag|transport.HopFlag {
			forwarded = true
		} else if resp.op != op|transport.RespFlag {
			return nil, false, fmt.Errorf("client: stream response opcode %#x for request %#x", resp.op, op)
		}
		return resp.payload, forwarded, nil
	case <-timer.C:
		sc.mu.Lock()
		if gen == sc.gen && sc.pending != nil {
			delete(sc.pending, id)
		}
		sc.mu.Unlock()
		return nil, false, fmt.Errorf("client: stream request timed out after %v", sc.timeout)
	}
}

// decodeStreamError parses an OpError payload per the frame version into
// the typed StreamError.
func decodeStreamError(ver byte, payload []byte) error {
	var ep transport.ErrorPayload
	if ver >= transport.Version2 {
		if ep.UnmarshalBinary(payload) == nil && ep.Error != "" {
			return &StreamError{Code: server.Code(ep.Code), Msg: ep.Error}
		}
	} else if json.Unmarshal(payload, &ep) == nil && ep.Error != "" {
		return &StreamError{Code: server.Code(ep.Code), Msg: ep.Error}
	}
	return errors.New("client: malformed stream error frame")
}

// StreamError is a typed server-side rejection carried over the stream
// transport; Code mirrors the service layer's error codes.
type StreamError struct {
	Code server.Code
	Msg  string
}

func (e *StreamError) Error() string {
	return fmt.Sprintf("client: %s (stream code %d)", e.Msg, e.Code)
}

// NotSentError wraps a transport failure that happened before the request
// frame could have been processed by the daemon: the dial failed, or the
// frame's write/flush failed (a partially written frame is unparseable, so
// the server never dispatches it). Callers with side-effecting requests —
// the federation forwarder above all — may safely retry or re-apply
// elsewhere. Failures after a complete send (timeout waiting for the
// response, connection lost mid-flight) are NOT wrapped: their outcome is
// unknown and re-applying could double-apply.
type NotSentError struct{ Err error }

func (e *NotSentError) Error() string { return e.Err.Error() }
func (e *NotSentError) Unwrap() error { return e.Err }
