package client

import (
	"encoding/binary"
	"fmt"

	"venn/internal/server"
	"venn/internal/transport"
)

// Forwarded-request variants of the serving calls, used by the federation
// layer (internal/cluster) when relaying a request to the daemon that owns
// its device. They are identical to their plain counterparts except that the
// request opcode carries transport.HopFlag, which tells the receiving daemon
// to serve the request itself and never forward it again (the hop guard
// against routing loops between daemons with disagreeing rings). The same
// multiplexing connection pool carries forwarded and first-hand traffic.
//
// trace is the forwarding daemon's sampled span ID (0 when the originating
// request is unsampled): a nonzero trace rides ahead of the payload under
// transport.TraceFlag, so the receiving daemon records the hop under the
// same trace ID and the two flight-recorder entries can be joined.

// CheckInForward relays a check-in to its owning daemon.
func (s *StreamClient) CheckInForward(ci server.CheckIn, trace uint64) (server.Assignment, error) {
	asg, _, err := s.checkInOp(transport.OpCheckIn|transport.HopFlag, ci, trace)
	return asg, err
}

// CheckInBatchForward relays an owner-split check-in batch to its owning
// daemon. Results[i] answers cis[i].
func (s *StreamClient) CheckInBatchForward(cis []server.CheckIn, trace uint64) ([]server.CheckInResult, error) {
	res, _, err := s.checkInBatchOp(transport.OpCheckInBatch|transport.HopFlag, cis, trace)
	return res, err
}

// ReportForward relays a task report to its owning daemon.
func (s *StreamClient) ReportForward(r server.Report, trace uint64) error {
	_, err := s.reportOp(transport.OpReport|transport.HopFlag, r, trace)
	return err
}

// ReportBatchForward relays an owner-split report batch to its owning
// daemon. Results[i] answers rs[i].
func (s *StreamClient) ReportBatchForward(rs []server.Report, trace uint64) ([]server.ReportResult, error) {
	res, _, err := s.reportBatchOp(transport.OpReportBatch|transport.HopFlag, rs, trace)
	return res, err
}

// rawForwardEncoder frames a pre-encoded batch: uvarint item count followed
// by the already-encoded items, exactly the canonical v2 batch-request
// layout — built into a pooled buffer, relayed without decoding.
func rawForwardEncoder(items []byte, n int) func() ([]byte, error) {
	return func() ([]byte, error) {
		payload := binary.AppendUvarint(transport.GetBuf(len(items)+binary.MaxVarintLen64), uint64(n))
		return append(payload, items...), nil
	}
}

// CheckInBatchForwardRaw relays n already-encoded check-in items (the
// concatenated v2 wire bytes) to their owning daemon in one hop frame.
// Results[i] answers item i in buffer order.
func (s *StreamClient) CheckInBatchForwardRaw(items []byte, n int, trace uint64) ([]server.CheckInResult, error) {
	buf, _, err := s.do(transport.OpCheckInBatch|transport.HopFlag, trace, transport.Version2, rawForwardEncoder(items, n))
	if err != nil {
		return nil, err
	}
	var resp server.CheckInBatchResponse
	if err := resp.UnmarshalBinary(buf); err != nil {
		return nil, err
	}
	if len(resp.Results) != n {
		return nil, fmt.Errorf("client: raw forward reply has %d results for %d items", len(resp.Results), n)
	}
	return resp.Results, nil
}

// ReportBatchForwardRaw relays n already-encoded report items to their
// owning daemon in one hop frame. Results[i] answers item i in buffer order.
func (s *StreamClient) ReportBatchForwardRaw(items []byte, n int, trace uint64) ([]server.ReportResult, error) {
	buf, _, err := s.do(transport.OpReportBatch|transport.HopFlag, trace, transport.Version2, rawForwardEncoder(items, n))
	if err != nil {
		return nil, err
	}
	var resp server.ReportBatchResponse
	if err := resp.UnmarshalBinary(buf); err != nil {
		return nil, err
	}
	if len(resp.Results) != n {
		return nil, fmt.Errorf("client: raw forward reply has %d results for %d items", len(resp.Results), n)
	}
	return resp.Results, nil
}
