// Package transport serves the scheduler's Service layer over a persistent
// binary streaming protocol: length-prefixed frames on a raw TCP
// connection. Compared to the HTTP adapter it removes per-request framing,
// header parsing, and connection churn — an agent (or a peer daemon) holds
// one connection open and pipelines requests over it, correlating replies
// by request ID.
//
// Frame layout (all integers big-endian):
//
//	offset size  field
//	0      2     magic 0x56 0x4E ("VN")
//	2      1     payload encoding (1 = JSON, 2 = binary)
//	3      1     opcode
//	4      4     request ID (echoed verbatim in the response)
//	8      4     payload length N
//	12     N     payload
//
// The version byte declares the payload encoding of this one frame. The
// four serving opcodes (check-in, report, and their batch forms) and
// OpTopology exist only in version 2 frames, with the fixed-layout binary
// codec; a version 1 frame carrying one of them is answered with a
// CodeInvalid error and the connection keeps serving. The low-volume
// control opcodes (RegisterJob, Jobs, JobStatus, Stats, Metrics, Ping,
// Hello) carry JSON payloads in either version. A response echoes the
// request frame's version, and OpError's payload follows it: JSON in a
// version 1 frame, binary in a version 2 frame.
//
// After dialing, a client sends OpHello (a version 1 JSON frame) offering
// its highest version; the server grants 2, or refuses an offer below 2
// with a CodeInvalid error. See README "Wire protocol" for the spec.
//
// A response reuses the request's opcode with RespFlag set, or OpError with
// an ErrorPayload body. Request IDs are chosen by the client; responses may
// arrive out of order (the server answers each frame as its handler
// finishes), which is what makes pipelining pay.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// Protocol constants.
const (
	Magic0 = 0x56 // 'V'
	Magic1 = 0x4E // 'N'
	// Version1 frames carry JSON payloads; Version2 frames carry the
	// fixed-layout binary codec. MaxVersion is the highest frame version a
	// reader accepts.
	Version1   byte = 1
	Version2   byte = 2
	MaxVersion byte = Version2
	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 12
)

// Opcodes. Response opcode = request opcode | RespFlag on success; OpError
// carries an ErrorPayload on failure.
const (
	OpCheckIn      byte = 0x01
	OpCheckInBatch byte = 0x02
	OpReport       byte = 0x03
	OpReportBatch  byte = 0x04
	OpRegisterJob  byte = 0x05
	OpJobs         byte = 0x06
	OpJobStatus    byte = 0x07
	OpStats        byte = 0x08
	OpMetrics      byte = 0x09
	OpPing         byte = 0x0A
	// OpHello is the handshake opcode. The request payload is a
	// HelloRequest, the response a HelloResponse, both JSON; the client
	// sends it in a v1 frame. The server grants version 2 and refuses an
	// offer below 2 with a CodeInvalid error, which the client turns into a
	// failed dial.
	OpHello byte = 0x0B
	// OpTopology requests the federation topology: the ring's member
	// addresses, vnode count, and an epoch that advances whenever the live
	// membership changes. The request payload is empty; the response is a
	// TopologyPayload in the fixed binary layout. Like the serving opcodes
	// it must ride in a v2 frame (a v1 frame is rejected as invalid). The
	// server additionally *pushes* an unsolicited OpTopology|RespFlag frame
	// with request ID 0 to every connection that has fetched the topology
	// whenever the epoch advances, so ring-aware clients re-partition
	// without polling. A daemon with no federation layer attached answers
	// OpError with CodeUnavailable.
	OpTopology byte = 0x0C

	// HopFlag marks a request frame as already forwarded once by a peer
	// daemon (federation hop guard). A server must answer a hop-flagged
	// frame itself — served locally or rejected — and never re-forward it,
	// so two daemons with disagreeing (stale) rings cannot ping-pong a
	// request between each other. Only the four serving opcodes (check-in,
	// report, and their batch forms) may carry it. Responses echo the flag.
	HopFlag byte = 0x40
	// TraceFlag marks a v2 request frame as carrying a trace context: the
	// payload begins with a TraceContextSize-byte prefix (see AppendTrace /
	// PeelTrace) that the server strips before decoding. Only the four
	// serving opcodes may carry it — the server rejects it on any other
	// opcode with CodeInvalid — and it never appears on responses, which
	// carry their timing in the origin's span instead of on the wire. The
	// federation layer sets it on hop frames whose origin request was
	// sampled, which is what lets the owning daemon attribute its time to
	// the same trace ID the origin records for the hop stage.
	TraceFlag byte = 0x20
	// RespFlag marks a frame as a response to the same opcode.
	RespFlag byte = 0x80
	// OpError is the error-response opcode; its payload is an ErrorPayload
	// (JSON in v1 frames, binary in v2 frames).
	OpError byte = 0xFF
)

// HelloRequest is the OpHello request body (always JSON): the highest
// protocol version the client can speak. The server refuses anything
// below 2.
type HelloRequest struct {
	MaxVersion int `json:"max_version"`
}

// HelloResponse is the OpHello response body (always JSON): the version the
// server granted, always 2.
type HelloResponse struct {
	Version int `json:"version"`
}

// ErrorPayload is the body of an OpError response frame. Code carries the
// service layer's error code (server.Code) so clients can classify without
// string matching. In a v1 frame it is JSON; in a v2 frame it is
// `uvarint code | uvarint len | len bytes of message`.
type ErrorPayload struct {
	Code  int    `json:"code"`
	Error string `json:"error"`
}

// MarshalBinary encodes the v2 wire form of the error payload.
func (e *ErrorPayload) MarshalBinary() ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(uint(e.Code)))
	b = binary.AppendUvarint(b, uint64(len(e.Error)))
	return append(b, e.Error...), nil
}

// UnmarshalBinary decodes the v2 wire form of the error payload.
func (e *ErrorPayload) UnmarshalBinary(data []byte) error {
	code, n := binary.Uvarint(data)
	if n <= 0 {
		return &ErrProtocol{msg: "error payload: bad code"}
	}
	data = data[n:]
	slen, n := binary.Uvarint(data)
	if n <= 0 || slen > uint64(len(data[n:])) {
		return &ErrProtocol{msg: "error payload: bad message length"}
	}
	data = data[n:]
	if uint64(len(data)) != slen {
		return &ErrProtocol{msg: "error payload: trailing bytes"}
	}
	e.Code = int(code)
	e.Error = string(data)
	return nil
}

// TopologyPayload is the OpTopology response body: everything a client
// needs to rebuild the federation's ownership ring locally (hashring.New
// over Members with VNodes points each) plus the epoch it was published at.
//
// Binary layout (always; OpTopology never rides in v1 frames):
//
//	uvarint epoch | uvarint vnodes | uvarint count | count × (uvarint len | bytes)
//
// Members lists the *live* members (self plus peers currently passing
// health probes), sorted; a member marked down by the health loop drops off
// the payload and the epoch advances, so ring-aware clients stop routing
// batches at a daemon its own peers consider dead.
type TopologyPayload struct {
	Epoch   uint64   `json:"epoch"`
	VNodes  int      `json:"vnodes"`
	Members []string `json:"members"`
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (t *TopologyPayload) MarshalBinary() ([]byte, error) {
	n := 12
	for _, m := range t.Members {
		n += 5 + len(m)
	}
	b := binary.AppendUvarint(make([]byte, 0, n), t.Epoch)
	b = binary.AppendUvarint(b, uint64(uint(t.VNodes)))
	b = binary.AppendUvarint(b, uint64(len(t.Members)))
	for _, m := range t.Members {
		b = binary.AppendUvarint(b, uint64(len(m)))
		b = append(b, m...)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Like every v2
// decoder it rejects lying counts and trailing bytes, and an accepted
// payload re-encodes byte-identically (pinned by FuzzTopologyRoundTrip).
func (t *TopologyPayload) UnmarshalBinary(data []byte) error {
	*t = TopologyPayload{}
	uv := func(what string) (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, &ErrProtocol{msg: "topology payload: bad " + what}
		}
		data = data[n:]
		return v, nil
	}
	epoch, err := uv("epoch")
	if err != nil {
		return err
	}
	vnodes, err := uv("vnodes")
	if err != nil {
		return err
	}
	count, err := uv("member count")
	if err != nil {
		return err
	}
	// Every member costs at least one length byte, so a lying count cannot
	// balloon the allocation past the payload it arrived in.
	if count > uint64(len(data)) {
		return &ErrProtocol{msg: "topology payload: member count exceeds payload"}
	}
	members := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		slen, err := uv("member length")
		if err != nil {
			return err
		}
		if slen > uint64(len(data)) {
			return &ErrProtocol{msg: "topology payload: member length exceeds payload"}
		}
		members = append(members, string(data[:slen]))
		data = data[slen:]
	}
	if len(data) != 0 {
		return &ErrProtocol{msg: "topology payload: trailing bytes"}
	}
	t.Epoch = epoch
	t.VNodes = int(vnodes)
	if len(members) > 0 {
		t.Members = members
	}
	return nil
}

// TraceContextSize is the length of the trace prefix a TraceFlag frame's
// payload starts with: a big-endian uint64 trace ID followed by one flags
// byte (bit 0 = sampled).
const TraceContextSize = 9

// traceSampledBit is the sampled flag in a trace context's flags byte.
const traceSampledBit = 0x01

// AppendTrace appends a trace context to b — used by forwarders to build
// `trace prefix | payload` bodies for TraceFlag frames.
func AppendTrace(b []byte, traceID uint64, sampled bool) []byte {
	var ctx [TraceContextSize]byte
	binary.BigEndian.PutUint64(ctx[:8], traceID)
	if sampled {
		ctx[8] = traceSampledBit
	}
	return append(b, ctx[:]...)
}

// PrependTrace shifts payload right by TraceContextSize bytes and writes the
// trace context at the front, returning the grown slice. The payload is
// typically a pooled buffer mid-build; the copy is the price of keeping the
// encoders trace-unaware.
func PrependTrace(payload []byte, traceID uint64, sampled bool) []byte {
	payload = append(payload, make([]byte, TraceContextSize)...)
	copy(payload[TraceContextSize:], payload[:len(payload)-TraceContextSize])
	binary.BigEndian.PutUint64(payload[:8], traceID)
	payload[8] = 0
	if sampled {
		payload[8] = traceSampledBit
	}
	return payload
}

// PeelTrace splits a TraceFlag frame's payload into its trace context and
// the real payload that follows. The returned rest aliases data — callers
// recycling a pooled payload must recycle the original slice, not rest.
func PeelTrace(data []byte) (traceID uint64, sampled bool, rest []byte, err error) {
	if len(data) < TraceContextSize {
		return 0, false, nil, &ErrProtocol{msg: "trace context shorter than its fixed size"}
	}
	traceID = binary.BigEndian.Uint64(data[:8])
	return traceID, data[8]&traceSampledBit != 0, data[TraceContextSize:], nil
}

// JobIDRequest is the OpJobStatus request body.
type JobIDRequest struct {
	ID int `json:"id"`
}

// Frame is one decoded frame.
type Frame struct {
	Ver     byte
	Op      byte
	ID      uint32
	Payload []byte
}

// ErrProtocol reports a framing violation (bad magic or version); the
// connection cannot be trusted past it and must be closed.
type ErrProtocol struct{ msg string }

func (e *ErrProtocol) Error() string { return "transport: " + e.msg }

// PutHeader encodes a frame header into hdr, which must be at least
// HeaderSize bytes.
func PutHeader(hdr []byte, ver, op byte, id uint32, payloadLen int) {
	hdr[0], hdr[1], hdr[2], hdr[3] = Magic0, Magic1, ver, op
	binary.BigEndian.PutUint32(hdr[4:8], id)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(payloadLen))
}

// WriteFrame writes one frame to w (typically a *bufio.Writer; the caller
// owns flushing).
func WriteFrame(w io.Writer, ver, op byte, id uint32, payload []byte) error {
	var hdr [HeaderSize]byte
	PutHeader(hdr[:], ver, op, id, len(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readHeader reads and validates one frame header: the magic, a version in
// [Version1, MaxVersion], and a payload length no larger than maxPayload —
// a correct peer never sends more, and honoring the prefix would let a
// malformed length balloon memory. It returns the frame (without payload)
// and the payload length still to be read.
func readHeader(br *bufio.Reader, maxPayload int) (Frame, int, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return Frame{}, 0, err
	}
	if hdr[0] != Magic0 || hdr[1] != Magic1 {
		return Frame{}, 0, &ErrProtocol{msg: "bad magic"}
	}
	if hdr[2] < Version1 || hdr[2] > MaxVersion {
		return Frame{}, 0, &ErrProtocol{msg: fmt.Sprintf("unsupported version %d", hdr[2])}
	}
	n := binary.BigEndian.Uint32(hdr[8:12])
	if int64(n) > int64(maxPayload) {
		return Frame{}, 0, &ErrProtocol{msg: fmt.Sprintf("payload %d exceeds limit %d", n, maxPayload)}
	}
	return Frame{Ver: hdr[2], Op: hdr[3], ID: binary.BigEndian.Uint32(hdr[4:8])}, int(n), nil
}

// ReadFrame reads and validates one frame (see readHeader for what a
// protocol violation is). The returned payload is freshly allocated (it may
// outlive the reader).
func ReadFrame(br *bufio.Reader, maxPayload int) (Frame, error) {
	fr, n, err := readHeader(br, maxPayload)
	if err != nil || n == 0 {
		return fr, err
	}
	fr.Payload = make([]byte, n)
	if _, err := io.ReadFull(br, fr.Payload); err != nil {
		return Frame{}, err
	}
	return fr, nil
}

// ReadFramePooled is ReadFrame with the payload read into a pooled buffer
// (GetBuf). The caller owns the payload and must return it with PutBuf once
// the frame is fully handled — which also means the payload must not escape
// the handler (decoders copy what they keep).
func ReadFramePooled(br *bufio.Reader, maxPayload int) (Frame, error) {
	fr, _, err := ReadFramePooledTimed(br, maxPayload)
	return fr, err
}

// ReadFramePooledTimed is ReadFramePooled, additionally reporting the time
// spent reading the payload bytes (after the header completed) in
// nanoseconds. The header wait is deliberately excluded: between requests it
// measures client idle time, which would poison any latency attribution.
// readNs is 0 for empty payloads and whenever the payload was already
// buffered.
func ReadFramePooledTimed(br *bufio.Reader, maxPayload int) (fr Frame, readNs int64, err error) {
	fr, n, err := readHeader(br, maxPayload)
	if err != nil || n == 0 {
		return fr, 0, err
	}
	fr.Payload = GetBuf(n)[:n]
	var t0 time.Time
	// Fast path: the payload is already in the read buffer; a clock read
	// per frame here would cost more than the copy it times.
	timed := br.Buffered() < n
	if timed {
		t0 = time.Now()
	}
	if _, err := io.ReadFull(br, fr.Payload); err != nil {
		PutBuf(fr.Payload)
		return Frame{}, 0, err
	}
	if timed {
		readNs = int64(time.Since(t0))
	}
	return fr, readNs, nil
}
