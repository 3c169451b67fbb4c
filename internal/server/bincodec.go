// Wire protocol v2: fixed-layout binary codecs for the high-volume wire
// types. The JSON codecs in codec.go serve the HTTP API; these are the only
// encoding of the stream transport's four serving opcodes (check-in,
// report, and their batch forms), which ride exclusively in v2 frames — see
// internal/transport and the README "Wire protocol" spec.
//
// Layout conventions (the spec; frozen once shipped):
//
//	uvarint = unsigned LEB128 (encoding/binary AppendUvarint)
//	varint  = zigzag LEB128 (encoding/binary AppendVarint)
//	str     = uvarint length | raw bytes
//	f64     = 8 bytes IEEE-754, big-endian
//	bool    = 1 byte, 0 or 1 (other values rejected)
//
//	CheckIn              = str device_id | f64 cpu | f64 mem
//	Assignment           = u8 flags | tail?
//	                       flags bit0 = assigned, bit1 = tail present
//	                       tail  = varint job_id | varint round |
//	                               str job_name | str policy
//	CheckInResult        = u8 flags | tail? | str error?
//	                       flags bit0 = assigned, bit1 = tail present,
//	                       bit2 = error present
//	Report               = str device_id | varint job_id | bool ok |
//	                       f64 duration_seconds
//	ReportResult         = u8 flags (bit0 = error present) | str error?
//	CheckInBatchRequest  = uvarint count | count × CheckIn
//	CheckInBatchResponse = uvarint count | count × CheckInResult
//	ReportBatchRequest   = uvarint count | count × Report
//	ReportBatchResponse  = uvarint count | count × ReportResult
//
// The flags-plus-optional-tail shape exists for the same reason Assignment
// uses omitempty in JSON: at load-test rates the overwhelmingly common
// reply is "no work", which encodes as a single zero byte. Unknown flag
// bits are rejected so future revisions cannot be silently misparsed.
// Decoders reject trailing bytes; encode∘decode is a fixed point (pinned by
// bincodec_test.go and FuzzCodecV2RoundTrip).
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// --- encoding helpers ---

func appendBinString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBinF64(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

func appendBinBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// --- decoding helper ---

// bdec is a bounds-checked cursor over a binary payload. Methods record the
// first error and return zero values afterwards, so call sites read
// straight-line and check err once per item.
//
// When shared is set (one string conversion of the whole payload, done by
// the batch-request decoders), str returns substrings of it instead of
// allocating per field — the dominant allocation in the v2 serving profile
// (BenchmarkForwardPath). The substrings share the payload-sized backing
// array, so any site that RETAINS a decoded string beyond the request (the
// device registry, in-flight maps, shadow events) must strings.Clone it;
// transient uses (map lookups, comparisons, re-encoding) need nothing.
type bdec struct {
	b      []byte
	shared string
	i      int
	err    error
}

func (d *bdec) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("server: malformed binary body: %s", msg)
	}
}

func (d *bdec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.i:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.i += n
	return v
}

func (d *bdec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.i:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.i += n
	return v
}

func (d *bdec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.i) {
		d.fail("string length exceeds payload")
		return ""
	}
	var s string
	if d.shared != "" {
		s = d.shared[d.i : d.i+int(n)]
	} else {
		s = string(d.b[d.i : d.i+int(n)])
	}
	d.i += int(n)
	return s
}

func (d *bdec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.i < 8 {
		d.fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.BigEndian.Uint64(d.b[d.i:]))
	d.i += 8
	return f
}

func (d *bdec) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.i >= len(d.b) {
		d.fail("truncated byte")
		return 0
	}
	c := d.b[d.i]
	d.i++
	return c
}

func (d *bdec) bool() bool {
	c := d.u8()
	if c > 1 {
		d.fail("bad bool")
	}
	return c == 1
}

// count reads a batch length and bounds it: never above the bytes left in
// the payload (every item is at least one byte, so a lying prefix cannot
// balloon the allocation), and never above MaxBatch — the latter as the
// service layer's typed too-large error, so an oversized batch classifies
// identically over v1 JSON (where the service does the check) and v2
// binary.
func (d *bdec) count() int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)-d.i) {
		d.fail("batch count exceeds payload")
		return 0
	}
	if n > MaxBatch {
		if d.err == nil {
			d.err = svcErr(CodeTooLarge, fmt.Errorf("server: batch of %d exceeds limit %d", n, MaxBatch))
		}
		return 0
	}
	return int(n)
}

// finish asserts full consumption; trailing bytes are a framing bug.
func (d *bdec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.i != len(d.b) {
		return errors.New("server: malformed binary body: trailing bytes")
	}
	return nil
}

// --- CheckIn ---

func (c *CheckIn) appendBinary(b []byte) []byte {
	b = appendBinString(b, c.DeviceID)
	b = appendBinF64(b, c.CPU)
	return appendBinF64(b, c.Mem)
}

// AppendBinary appends the v2 wire form to b (pooled-scratch variant of
// MarshalBinary).
func (c *CheckIn) AppendBinary(b []byte) ([]byte, error) { return c.appendBinary(b), nil }

// MarshalBinary implements encoding.BinaryMarshaler (wire protocol v2).
func (c *CheckIn) MarshalBinary() ([]byte, error) {
	return c.appendBinary(make([]byte, 0, 2+len(c.DeviceID)+16)), nil
}

func (c *CheckIn) decodeBinary(d *bdec) {
	c.DeviceID = d.str()
	c.CPU = d.f64()
	c.Mem = d.f64()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler (wire protocol v2).
func (c *CheckIn) UnmarshalBinary(data []byte) error {
	d := bdec{b: data}
	*c = CheckIn{}
	c.decodeBinary(&d)
	return d.finish()
}

// --- Assignment ---

const (
	binFlagAssigned = 1 << 0
	binFlagTail     = 1 << 1
	binFlagError    = 1 << 2
)

// assignmentFlags computes the flag byte; the tail bit is set whenever any
// tail field is non-zero, so encoding is lossless even for shapes the
// manager never emits (e.g. a policy name on an unassigned reply).
func (a *Assignment) assignmentFlags() byte {
	var fl byte
	if a.Assigned {
		fl |= binFlagAssigned
	}
	if a.JobID != 0 || a.Round != 0 || a.JobName != "" || a.Policy != "" {
		fl |= binFlagTail
	}
	return fl
}

func (a *Assignment) appendTail(b []byte) []byte {
	b = binary.AppendVarint(b, int64(a.JobID))
	b = binary.AppendVarint(b, int64(a.Round))
	b = appendBinString(b, a.JobName)
	return appendBinString(b, a.Policy)
}

// AppendBinary appends the v2 wire form to b (pooled-scratch variant of
// MarshalBinary).
func (a *Assignment) AppendBinary(b []byte) ([]byte, error) {
	fl := a.assignmentFlags()
	b = append(b, fl)
	if fl&binFlagTail != 0 {
		b = a.appendTail(b)
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler (wire protocol v2).
func (a *Assignment) MarshalBinary() ([]byte, error) {
	return a.AppendBinary(make([]byte, 0, 16+len(a.JobName)+len(a.Policy)))
}

func (a *Assignment) decodeTail(d *bdec) {
	a.JobID = int(d.varint())
	a.Round = int(d.varint())
	a.JobName = d.str()
	a.Policy = d.str()
}

func (a *Assignment) decodeBinary(d *bdec, allowedFlags byte) byte {
	fl := d.u8()
	if fl&^allowedFlags != 0 {
		d.fail("unknown flag bits")
		return 0
	}
	a.Assigned = fl&binFlagAssigned != 0
	if fl&binFlagTail != 0 {
		a.decodeTail(d)
	}
	return fl
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler (wire protocol v2).
func (a *Assignment) UnmarshalBinary(data []byte) error {
	d := bdec{b: data}
	*a = Assignment{}
	a.decodeBinary(&d, binFlagAssigned|binFlagTail)
	return d.finish()
}

// --- CheckInResult ---

func (r *CheckInResult) appendBinary(b []byte) []byte {
	fl := r.assignmentFlags()
	if r.Error != "" {
		fl |= binFlagError
	}
	b = append(b, fl)
	if fl&binFlagTail != 0 {
		b = r.appendTail(b)
	}
	if fl&binFlagError != 0 {
		b = appendBinString(b, r.Error)
	}
	return b
}

// MarshalBinary implements encoding.BinaryMarshaler (wire protocol v2).
func (r *CheckInResult) MarshalBinary() ([]byte, error) {
	return r.appendBinary(make([]byte, 0, 16+len(r.JobName)+len(r.Policy)+len(r.Error))), nil
}

func (r *CheckInResult) decodeBinary(d *bdec) {
	fl := r.Assignment.decodeBinary(d, binFlagAssigned|binFlagTail|binFlagError)
	if fl&binFlagError != 0 {
		r.Error = d.str()
	}
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler (wire protocol v2).
func (r *CheckInResult) UnmarshalBinary(data []byte) error {
	d := bdec{b: data}
	*r = CheckInResult{}
	r.decodeBinary(&d)
	return d.finish()
}

// --- Report ---

func (r *Report) appendBinary(b []byte) []byte {
	b = appendBinString(b, r.DeviceID)
	b = binary.AppendVarint(b, int64(r.JobID))
	b = appendBinBool(b, r.OK)
	return appendBinF64(b, r.DurationSeconds)
}

// AppendBinary appends the v2 wire form to b (pooled-scratch variant of
// MarshalBinary).
func (r *Report) AppendBinary(b []byte) ([]byte, error) { return r.appendBinary(b), nil }

// MarshalBinary implements encoding.BinaryMarshaler (wire protocol v2).
func (r *Report) MarshalBinary() ([]byte, error) {
	return r.appendBinary(make([]byte, 0, 2+len(r.DeviceID)+19)), nil
}

func (r *Report) decodeBinary(d *bdec) {
	r.DeviceID = d.str()
	r.JobID = int(d.varint())
	r.OK = d.bool()
	r.DurationSeconds = d.f64()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler (wire protocol v2).
func (r *Report) UnmarshalBinary(data []byte) error {
	d := bdec{b: data}
	*r = Report{}
	r.decodeBinary(&d)
	return d.finish()
}

// --- ReportResult ---

func (r *ReportResult) appendBinary(b []byte) []byte {
	if r.Error == "" {
		return append(b, 0)
	}
	b = append(b, binFlagAssigned) // bit0 doubles as "error present" here
	return appendBinString(b, r.Error)
}

// MarshalBinary implements encoding.BinaryMarshaler (wire protocol v2).
func (r *ReportResult) MarshalBinary() ([]byte, error) {
	return r.appendBinary(make([]byte, 0, 2+len(r.Error))), nil
}

func (r *ReportResult) decodeBinary(d *bdec) {
	fl := d.u8()
	switch fl {
	case 0:
	case 1:
		r.Error = d.str()
	default:
		d.fail("unknown flag bits")
	}
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler (wire protocol v2).
func (r *ReportResult) UnmarshalBinary(data []byte) error {
	d := bdec{b: data}
	*r = ReportResult{}
	r.decodeBinary(&d)
	return d.finish()
}

// --- batch types ---

// AppendBinary appends the v2 wire form to b and returns the extended
// slice. The Append variants exist so hot paths (transport response
// encoding, client request encoding) can reuse pooled scratch buffers
// instead of allocating per call; MarshalBinary wraps them.
func (r *CheckInBatchRequest) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(r.CheckIns)))
	for i := range r.CheckIns {
		b = r.CheckIns[i].appendBinary(b)
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler (wire protocol v2).
func (r *CheckInBatchRequest) MarshalBinary() ([]byte, error) {
	return r.AppendBinary(make([]byte, 0, 8+24*len(r.CheckIns)))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler (wire protocol v2).
func (r *CheckInBatchRequest) UnmarshalBinary(data []byte) error {
	d := bdec{b: data, shared: string(data)}
	*r = CheckInBatchRequest{}
	if n := d.count(); n > 0 {
		r.CheckIns = make([]CheckIn, n)
		for i := range r.CheckIns {
			r.CheckIns[i].decodeBinary(&d)
		}
	}
	return d.finish()
}

// UnmarshalBinaryBounds is UnmarshalBinary plus the item byte boundaries:
// item i of the decoded batch occupies data[bounds[i]:bounds[i+1]] (bounds
// has count+1 entries; nil for an empty batch). The federation relay uses
// the boundaries to splice still-encoded items into forward frames without
// re-encoding them.
func (r *CheckInBatchRequest) UnmarshalBinaryBounds(data []byte) ([]uint32, error) {
	d := bdec{b: data, shared: string(data)}
	*r = CheckInBatchRequest{}
	var bounds []uint32
	if n := d.count(); n > 0 {
		r.CheckIns = make([]CheckIn, n)
		bounds = make([]uint32, n+1)
		for i := range r.CheckIns {
			bounds[i] = uint32(d.i)
			r.CheckIns[i].decodeBinary(&d)
		}
		bounds[n] = uint32(d.i)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return bounds, nil
}

// AppendBinary appends the v2 wire form to b (see CheckInBatchRequest).
func (r *CheckInBatchResponse) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(r.Results)))
	for i := range r.Results {
		b = r.Results[i].appendBinary(b)
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler (wire protocol v2).
func (r *CheckInBatchResponse) MarshalBinary() ([]byte, error) {
	return r.AppendBinary(make([]byte, 0, 8+2*len(r.Results)))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler (wire protocol v2).
func (r *CheckInBatchResponse) UnmarshalBinary(data []byte) error {
	d := bdec{b: data}
	*r = CheckInBatchResponse{}
	if n := d.count(); n > 0 {
		r.Results = make([]CheckInResult, n)
		for i := range r.Results {
			r.Results[i].decodeBinary(&d)
		}
	}
	return d.finish()
}

// AppendBinary appends the v2 wire form to b (see CheckInBatchRequest).
func (r *ReportBatchRequest) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(r.Reports)))
	for i := range r.Reports {
		b = r.Reports[i].appendBinary(b)
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler (wire protocol v2).
func (r *ReportBatchRequest) MarshalBinary() ([]byte, error) {
	return r.AppendBinary(make([]byte, 0, 8+27*len(r.Reports)))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler (wire protocol v2).
func (r *ReportBatchRequest) UnmarshalBinary(data []byte) error {
	d := bdec{b: data, shared: string(data)}
	*r = ReportBatchRequest{}
	if n := d.count(); n > 0 {
		r.Reports = make([]Report, n)
		for i := range r.Reports {
			r.Reports[i].decodeBinary(&d)
		}
	}
	return d.finish()
}

// UnmarshalBinaryBounds is UnmarshalBinary plus item byte boundaries (see
// CheckInBatchRequest.UnmarshalBinaryBounds).
func (r *ReportBatchRequest) UnmarshalBinaryBounds(data []byte) ([]uint32, error) {
	d := bdec{b: data, shared: string(data)}
	*r = ReportBatchRequest{}
	var bounds []uint32
	if n := d.count(); n > 0 {
		r.Reports = make([]Report, n)
		bounds = make([]uint32, n+1)
		for i := range r.Reports {
			bounds[i] = uint32(d.i)
			r.Reports[i].decodeBinary(&d)
		}
		bounds[n] = uint32(d.i)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return bounds, nil
}

// AppendBinary appends the v2 wire form to b (see CheckInBatchRequest).
func (r *ReportBatchResponse) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(r.Results)))
	for i := range r.Results {
		b = r.Results[i].appendBinary(b)
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler (wire protocol v2).
func (r *ReportBatchResponse) MarshalBinary() ([]byte, error) {
	return r.AppendBinary(make([]byte, 0, 8+2*len(r.Results)))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler (wire protocol v2).
func (r *ReportBatchResponse) UnmarshalBinary(data []byte) error {
	d := bdec{b: data}
	*r = ReportBatchResponse{}
	if n := d.count(); n > 0 {
		r.Results = make([]ReportResult, n)
		for i := range r.Results {
			r.Results[i].decodeBinary(&d)
		}
	}
	return d.finish()
}
