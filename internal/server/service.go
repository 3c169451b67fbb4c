// The transport-neutral service layer. Service holds every piece of
// request-handling logic the daemon exposes — check-in, report, their batch
// variants, job registration and lookup, stats, metrics — operating purely
// on the wire structs and returning typed errors. Transport adapters (the
// HTTP handler in http.go, the framed stream server in internal/transport)
// reduce to decode → Service call → encode: they own bytes and status
// codes, never scheduling or manager logic. The package compiles the
// service without net/http; the split is what lets one scheduler core be
// served over multiple transports and, later, daemon-to-daemon federation.
package server

import (
	"errors"
	"fmt"

	"venn/internal/obs"
)

// Transport labels, used for per-transport serving telemetry.
const (
	TransportHTTP   = "http"
	TransportStream = "stream"
)

// transportLabels is the fixed set of per-transport rate counters the
// metrics recorder pre-allocates.
var transportLabels = []string{TransportHTTP, TransportStream}

// Code classifies a service-layer failure so each transport adapter can map
// it to its native status space (HTTP statuses, stream error frames)
// without inspecting error strings.
//
// The numeric values are part of the wire protocol: they ride verbatim in
// stream OpError frames (the JSON `code` field in a v1 frame, the binary
// error payload in a v2 frame) and in HTTP error bodies, and clients
// classify failures by them alone. They are frozen — never renumber or reuse a value; add new codes
// at the end. codes_test.go pins them.
type Code int

const (
	// CodeInvalid is a malformed or unacceptable request.
	CodeInvalid Code = 1
	// CodeNotFound is a lookup of a resource that does not exist.
	CodeNotFound Code = 2
	// CodeBusy is a check-in for a device that already holds a task.
	CodeBusy Code = 3
	// CodeTooLarge is a payload over the transport's configured bound.
	CodeTooLarge Code = 4
	// CodeUnavailable is a request that could not be served right now and
	// should be retried — e.g. a federation forward whose outcome is
	// unknown (timeout mid-flight), where neither answering nor silently
	// applying locally would be honest.
	CodeUnavailable Code = 5
)

// Error is the service layer's typed error: a Code for the adapter plus the
// underlying cause for the wire message and errors.Is chains.
type Error struct {
	Code Code
	Err  error
}

func (e *Error) Error() string { return e.Err.Error() }

// Unwrap exposes the cause so errors.Is(err, ErrDeviceBusy) etc. keep
// working through the service layer.
func (e *Error) Unwrap() error { return e.Err }

// ErrCode extracts the service code from an error chain; errors that did
// not come from the service layer classify as CodeInvalid.
func ErrCode(err error) Code {
	var se *Error
	if errors.As(err, &se) {
		return se.Code
	}
	return CodeInvalid
}

func svcErr(code Code, err error) error { return &Error{Code: code, Err: err} }

// Router intercepts the four serving-path entry points when a federation
// layer is attached to the Manager (SetRouter). The router owns the
// ownership decision: it applies locally-owned requests to the Manager
// directly and forwards the rest to the owning peer daemon, returning the
// merged result. Implemented by internal/cluster; the interface lives here
// so the server package never imports the federation (or client) packages.
//
// Errors returned by a Router may be pre-typed *Error values (remote
// rejections arrive with their wire code); anything untyped is classified
// exactly like a local Manager error.
// Every entry point carries the request's observability span (nil when
// unsampled): the router attributes forward round-trips to its hop stage
// and propagates its trace ID across the wire.
type Router interface {
	CheckIn(ci CheckIn, sp *obs.Span) (Assignment, error)
	// The batch entry points additionally report whether any item was
	// forwarded to a peer. The transport layer reflects that bit back to
	// the client on the response opcode (the `forwarded` flag), which is
	// what tells a ring-aware client its topology is stale and it should
	// re-fetch before the next batch.
	CheckInBatch(cis []CheckIn, sp *obs.Span) ([]CheckInResult, bool)
	Report(r Report, sp *obs.Span) error
	ReportBatch(rs []Report, sp *obs.Span) ([]ReportResult, bool)
	// ForwardedIn records receipt of one peer-forwarded request frame of
	// the given payload size, so the receiving node's metrics count
	// forwards_in and forward_bytes_in without the transport layer knowing
	// any federation internals.
	ForwardedIn(bytes int)
}

// RawItems carries the still-encoded form of a v2 batch alongside its
// decoded items: Data is the request payload and item i occupies
// Data[Bounds[i]:Bounds[i+1]] (Bounds has len(items)+1 entries). A router
// that also implements RawRouter splices those byte ranges directly into
// outgoing forward frames — the v2 fixed layout makes the boundaries known
// at decode time, so misrouted items are relayed without a decode→re-encode
// round trip. Data is only valid for the duration of the call: the
// transport recycles the buffer when the handler returns, so implementations
// must copy any ranges they keep.
type RawItems struct {
	Data   []byte
	Bounds []uint32
}

// RawRouter is the zero-copy fast path of Router, taken by the transport
// layer for v2 batch frames when the attached router supports it. Semantics
// match CheckInBatch/ReportBatch exactly; raw is advisory (an implementation
// may ignore it).
type RawRouter interface {
	CheckInBatchRaw(cis []CheckIn, raw RawItems, sp *obs.Span) ([]CheckInResult, bool)
	ReportBatchRaw(rs []Report, raw RawItems, sp *obs.Span) ([]ReportResult, bool)
}

// Service is the transport-neutral serving core. One Service is
// instantiated per transport (the label feeds the per-transport check-in
// rates of /v1/metrics); all instances share the same Manager, so state and
// cumulative counters are transport-agnostic.
type Service struct {
	m    *Manager
	rate *rateCounter // served check-ins attributed to this transport
}

// NewService creates the serving facade for one transport. The transport
// label should be one of TransportHTTP or TransportStream; unknown labels
// still work but share the HTTP rate bucket.
func NewService(m *Manager, transport string) *Service {
	return &Service{m: m, rate: m.metrics.transportRate(transport)}
}

// Manager exposes the underlying manager (tick loops, telemetry hooks).
func (s *Service) Manager() *Manager { return s.m }

// Obs exposes the manager's observability registry. Transport adapters
// sample request spans from it and feed the always-on per-op total
// histograms; the histograms are shared across transports — they measure
// service time, which is transport-independent.
func (s *Service) Obs() *obs.Registry { return s.m.obs }

// RegisterJob admits a new CL job.
func (s *Service) RegisterJob(spec JobSpec) (JobStatus, error) {
	st, err := s.m.RegisterJob(spec)
	if err != nil {
		return JobStatus{}, svcErr(CodeInvalid, err)
	}
	return st, nil
}

// Jobs lists all jobs, active first.
func (s *Service) Jobs() []JobStatus { return s.m.Jobs() }

// JobStatusByID looks up one job.
func (s *Service) JobStatusByID(id int) (JobStatus, error) {
	st, err := s.m.JobStatusByID(id)
	if err != nil {
		return JobStatus{}, svcErr(CodeNotFound, err)
	}
	return st, nil
}

// checkInErr types a check-in failure. Errors already carrying a service
// code (remote rejections relayed by a federation router) pass through.
func checkInErr(err error) error {
	var se *Error
	if errors.As(err, &se) {
		return se
	}
	code := CodeInvalid
	if errors.Is(err, ErrDeviceBusy) {
		code = CodeBusy
	}
	return svcErr(code, err)
}

// reportErr types a report failure (see checkInErr).
func reportErr(err error) error {
	var se *Error
	if errors.As(err, &se) {
		return se
	}
	code := CodeInvalid
	if errors.Is(err, ErrUnknownDevice) {
		code = CodeNotFound
	}
	return svcErr(code, err)
}

// CheckIn processes a single device availability announcement. With a
// federation router attached the request is served by the device's owning
// daemon (forwarded transparently when that is a peer); otherwise it is
// applied locally.
func (s *Service) CheckIn(ci CheckIn, sp *obs.Span) (Assignment, error) {
	if r := s.m.router(); r != nil {
		asg, err := r.CheckIn(ci, sp)
		if err != nil {
			return Assignment{}, checkInErr(err)
		}
		s.rate.Add(s.m.nowSec(), 1)
		return asg, nil
	}
	return s.CheckInLocal(ci, sp)
}

// CheckInLocal applies ci to this node's manager unconditionally, bypassing
// any federation router. Transport adapters call it for requests that
// arrived with the forwarded (hop) mark — the hop guard that keeps a stale
// peer ring from bouncing a request back and forth.
func (s *Service) CheckInLocal(ci CheckIn, sp *obs.Span) (Assignment, error) {
	asg, err := s.m.DeviceCheckInSpan(ci, sp)
	if err != nil {
		return Assignment{}, checkInErr(err)
	}
	s.rate.Add(s.m.nowSec(), 1)
	return asg, nil
}

// CheckInBatch processes a batch of check-ins; Results[i] answers
// CheckIns[i], with per-item rejections in each result's Error field. With a
// federation router attached the batch is split by device owner, forwarded
// per owner concurrently, and merged back in order.
func (s *Service) CheckInBatch(req CheckInBatchRequest) (CheckInBatchResponse, error) {
	resp, _, err := s.CheckInBatchRouted(req, RawItems{}, nil)
	return resp, err
}

// CheckInBatchRouted is CheckInBatch for transports that care whether the
// batch was (partly) forwarded to a peer: the bool is true when any item
// took a federation hop. raw optionally carries the batch's still-encoded
// v2 payload for the router's zero-copy relay (see RawItems); pass the zero
// value when unavailable.
func (s *Service) CheckInBatchRouted(req CheckInBatchRequest, raw RawItems, sp *obs.Span) (CheckInBatchResponse, bool, error) {
	if len(req.CheckIns) > MaxBatch {
		return CheckInBatchResponse{}, false, svcErr(CodeInvalid, fmt.Errorf("server: batch exceeds %d items", MaxBatch))
	}
	if r := s.m.router(); r != nil {
		var results []CheckInResult
		var forwarded bool
		if rr, ok := r.(RawRouter); ok && raw.Data != nil {
			results, forwarded = rr.CheckInBatchRaw(req.CheckIns, raw, sp)
		} else {
			results, forwarded = r.CheckInBatch(req.CheckIns, sp)
		}
		s.countServed(results)
		return CheckInBatchResponse{Results: results}, forwarded, nil
	}
	resp, err := s.CheckInBatchLocal(req, sp)
	return resp, false, err
}

// CheckInBatchLocal applies the batch to this node's manager, bypassing any
// federation router (see CheckInLocal).
func (s *Service) CheckInBatchLocal(req CheckInBatchRequest, sp *obs.Span) (CheckInBatchResponse, error) {
	if len(req.CheckIns) > MaxBatch {
		return CheckInBatchResponse{}, svcErr(CodeInvalid, fmt.Errorf("server: batch exceeds %d items", MaxBatch))
	}
	results := s.m.CheckInBatchSpan(req.CheckIns, sp)
	s.countServed(results)
	return CheckInBatchResponse{Results: results}, nil
}

// countServed attributes a batch's accepted items to this transport's
// served-check-in rate.
func (s *Service) countServed(results []CheckInResult) {
	served := 0
	for i := range results {
		if results[i].Error == "" {
			served++
		}
	}
	s.rate.Add(s.m.nowSec(), int64(served))
}

// Report records a single task result, routed to the device's owner when a
// federation router is attached.
func (s *Service) Report(r Report, sp *obs.Span) error {
	if rt := s.m.router(); rt != nil {
		if err := rt.Report(r, sp); err != nil {
			return reportErr(err)
		}
		return nil
	}
	return s.ReportLocal(r, sp)
}

// ReportLocal applies r to this node's manager unconditionally (see
// CheckInLocal).
func (s *Service) ReportLocal(r Report, sp *obs.Span) error {
	if err := s.m.DeviceReportSpan(r, sp); err != nil {
		return reportErr(err)
	}
	return nil
}

// ReportBatch records a batch of task results; Results[i] answers
// Reports[i]. Routed per device owner when a federation router is attached.
func (s *Service) ReportBatch(req ReportBatchRequest) (ReportBatchResponse, error) {
	resp, _, err := s.ReportBatchRouted(req, RawItems{}, nil)
	return resp, err
}

// ReportBatchRouted is ReportBatch with the forwarded bit and optional raw
// relay payload (see CheckInBatchRouted).
func (s *Service) ReportBatchRouted(req ReportBatchRequest, raw RawItems, sp *obs.Span) (ReportBatchResponse, bool, error) {
	if len(req.Reports) > MaxBatch {
		return ReportBatchResponse{}, false, svcErr(CodeInvalid, fmt.Errorf("server: batch exceeds %d items", MaxBatch))
	}
	if r := s.m.router(); r != nil {
		var results []ReportResult
		var forwarded bool
		if rr, ok := r.(RawRouter); ok && raw.Data != nil {
			results, forwarded = rr.ReportBatchRaw(req.Reports, raw, sp)
		} else {
			results, forwarded = r.ReportBatch(req.Reports, sp)
		}
		return ReportBatchResponse{Results: results}, forwarded, nil
	}
	resp, err := s.ReportBatchLocal(req, sp)
	return resp, false, err
}

// ReportBatchLocal applies the batch to this node's manager, bypassing any
// federation router (see CheckInLocal).
func (s *Service) ReportBatchLocal(req ReportBatchRequest, sp *obs.Span) (ReportBatchResponse, error) {
	if len(req.Reports) > MaxBatch {
		return ReportBatchResponse{}, svcErr(CodeInvalid, fmt.Errorf("server: batch exceeds %d items", MaxBatch))
	}
	return ReportBatchResponse{Results: s.m.ReportBatchSpan(req.Reports, sp)}, nil
}

// NoteForwardedIn records receipt of one peer-forwarded request frame of
// the given payload size with the attached federation router's counters; a
// no-op without one.
func (s *Service) NoteForwardedIn(bytes int) {
	if r := s.m.router(); r != nil {
		r.ForwardedIn(bytes)
	}
}

// Stats returns the monitoring snapshot.
func (s *Service) Stats() Stats { return s.m.StatsSnapshot() }

// Metrics returns the serving-telemetry snapshot.
func (s *Service) Metrics() Metrics { return s.m.MetricsSnapshot() }
