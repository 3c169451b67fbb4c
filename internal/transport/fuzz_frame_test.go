package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// fuzzMaxPayload is the payload bound FuzzFrameRead reads with: small, so
// the fuzzer reaches the oversized-length rejection with short inputs.
const fuzzMaxPayload = 64

// FuzzFrameRead drives arbitrary bytes through the frame reader every
// stream connection starts with, and through PeelTrace for trace-flagged
// frames:
//
//  1. ReadFrame and ReadFramePooled never panic and agree frame by frame
//     with an independent parse of the header: bad magic, an unsupported
//     version or a length above maxPayload is an *ErrProtocol, input that
//     ends mid-frame is an EOF error, and an accepted frame carries exactly
//     the bytes its header announced. An accepted frame re-written by
//     WriteFrame reproduces its input bytes.
//  2. PeelTrace rejects payloads shorter than the trace prefix, and what it
//     accepts survives a PrependTrace→PeelTrace round trip.
//
// CI runs this with a short -fuzztime as a smoke pass; grow the corpus
// locally with `go test -fuzz=FuzzFrameRead ./internal/transport/`.
func FuzzFrameRead(f *testing.F) {
	frame := func(ver, op byte, id uint32, payload []byte) []byte {
		var b bytes.Buffer
		_ = WriteFrame(&b, ver, op, id, payload)
		return b.Bytes()
	}
	traced := AppendTrace(nil, 0xDEADBEEF, true)
	f.Add([]byte{})
	f.Add(frame(Version1, OpPing, 1, nil))
	f.Add(frame(Version1, OpCheckIn, 7, []byte(`{"device_id":"d1","cpu":0.5,"mem":0.5}`)))
	f.Add(frame(Version2, OpCheckInBatch|TraceFlag, 9, append(traced, 1, 2, 3)))
	f.Add(frame(Version2, OpReport|TraceFlag|HopFlag, 2, traced[:TraceContextSize-1]))
	f.Add(append(frame(Version2, OpPing, 3, nil), frame(Version1, OpStats, 4, []byte("{}"))...))
	f.Add(frame(Version2, OpPing, 5, make([]byte, fuzzMaxPayload+1)))
	f.Add(frame(MaxVersion+1, OpPing, 6, nil))
	f.Add([]byte{'X', 'N', 1, OpPing, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(frame(Version1, OpPing, 8, []byte("abcd"))[:HeaderSize+2])
	f.Add([]byte{Magic0, Magic1, Version1})
	f.Fuzz(func(t *testing.T, data []byte) {
		plain := bufio.NewReader(bytes.NewReader(data))
		pooled := bufio.NewReader(bytes.NewReader(data))
		for rest := data; ; {
			want, wantErr := parseFrame(rest)
			fr, err := ReadFrame(plain, fuzzMaxPayload)
			pfr, perr := ReadFramePooled(pooled, fuzzMaxPayload)
			checkFrameRead(t, "ReadFrame", fr, err, want, wantErr)
			checkFrameRead(t, "ReadFramePooled", pfr, perr, want, wantErr)
			if wantErr != nil {
				return
			}
			n := HeaderSize + len(want.Payload)
			if got := frameBytes(t, fr); !bytes.Equal(got, rest[:n]) {
				t.Fatalf("re-written frame %x, read from %x", got, rest[:n])
			}
			if fr.Op&TraceFlag != 0 {
				checkPeelTrace(t, fr.Payload)
			}
			if pfr.Payload != nil {
				PutBuf(pfr.Payload)
			}
			rest = rest[n:]
		}
	})
}

// errShort marks input that ends before the frame it starts does.
var errShort = errors.New("short input")

// parseFrame is the reference parse FuzzFrameRead holds the readers to.
func parseFrame(data []byte) (Frame, error) {
	if len(data) < HeaderSize {
		return Frame{}, errShort
	}
	if data[0] != Magic0 || data[1] != Magic1 {
		return Frame{}, &ErrProtocol{msg: "bad magic"}
	}
	if data[2] < Version1 || data[2] > MaxVersion {
		return Frame{}, &ErrProtocol{msg: "unsupported version"}
	}
	n := binary.BigEndian.Uint32(data[8:12])
	if n > fuzzMaxPayload {
		return Frame{}, &ErrProtocol{msg: "oversized payload"}
	}
	if uint32(len(data)-HeaderSize) < n {
		return Frame{}, errShort
	}
	fr := Frame{Ver: data[2], Op: data[3], ID: binary.BigEndian.Uint32(data[4:8])}
	if n > 0 {
		fr.Payload = data[HeaderSize : HeaderSize+n]
	}
	return fr, nil
}

func checkFrameRead(t *testing.T, name string, got Frame, err error, want Frame, wantErr error) {
	t.Helper()
	var pe *ErrProtocol
	switch {
	case errors.Is(wantErr, errShort):
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s on short input: err %v, want EOF", name, err)
		}
	case wantErr != nil:
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err %v, want a protocol error (%v)", name, err, wantErr)
		}
	case err != nil:
		t.Fatalf("%s rejected a well-formed frame: %v", name, err)
	case got.Ver != want.Ver || got.Op != want.Op || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload):
		t.Fatalf("%s: frame %+v, want %+v", name, got, want)
	}
}

// frameBytes re-encodes fr with WriteFrame.
func frameBytes(t *testing.T, fr Frame) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteFrame(&b, fr.Ver, fr.Op, fr.ID, fr.Payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func checkPeelTrace(t *testing.T, payload []byte) {
	t.Helper()
	id, sampled, rest, err := PeelTrace(payload)
	if len(payload) < TraceContextSize {
		if err == nil {
			t.Fatalf("PeelTrace accepted a %d-byte payload", len(payload))
		}
		return
	}
	if err != nil {
		t.Fatalf("PeelTrace rejected a %d-byte payload: %v", len(payload), err)
	}
	again := PrependTrace(append([]byte(nil), rest...), id, sampled)
	id2, sampled2, rest2, err := PeelTrace(again)
	if err != nil || id2 != id || sampled2 != sampled || !bytes.Equal(rest2, rest) {
		t.Fatalf("PrependTrace→PeelTrace: (%x, %v, %x, %v), want (%x, %v, %x)", id2, sampled2, rest2, err, id, sampled, rest)
	}
}
