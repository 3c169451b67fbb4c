package server

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestBinCodecRoundTrip pins value-level round trips through the v2 binary
// codec for representative shapes of every wire type, including the ones
// the manager never emits (lossless encoding is what makes the codec safe
// to extend).
func TestBinCodecRoundTrip(t *testing.T) {
	vals := []binCodec{
		&CheckIn{},
		&CheckIn{DeviceID: "dev-0042", CPU: 0.75, Mem: 0.5},
		&CheckIn{DeviceID: strings.Repeat("x", 300), CPU: math.Inf(1), Mem: -0},
		&Assignment{},
		&Assignment{Assigned: true, JobID: 12, Round: 3, JobName: "resnet", Policy: "venn"},
		&Assignment{Assigned: true}, // assigned with zero tail: flags-only
		&Assignment{JobID: -5},      // tail without assigned
		&CheckInResult{},
		&CheckInResult{Assignment: Assignment{Assigned: true, JobID: 1, JobName: "j", Policy: "fifo"}},
		&CheckInResult{Error: "device busy"},
		&Report{DeviceID: "d", JobID: -1, OK: false, DurationSeconds: 0.001},
		&Report{DeviceID: "", JobID: 1 << 40, OK: true},
		&ReportResult{},
		&ReportResult{Error: "unknown job 9"},
		&CheckInBatchRequest{},
		&CheckInBatchRequest{CheckIns: []CheckIn{{DeviceID: "a", CPU: 1}, {DeviceID: "b", Mem: 1}}},
		&CheckInBatchResponse{Results: []CheckInResult{{}, {Error: "busy"}, {Assignment: Assignment{Assigned: true, JobID: 2}}}},
		&ReportBatchRequest{Reports: []Report{{DeviceID: "d", JobID: 7, OK: true, DurationSeconds: 3.5}}},
		&ReportBatchResponse{Results: []ReportResult{{}, {Error: "x"}}},
	}
	for _, v := range vals {
		buf, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("%T marshal: %v", v, err)
		}
		got := reflect.New(reflect.TypeOf(v).Elem()).Interface().(binCodec)
		if err := got.UnmarshalBinary(buf); err != nil {
			t.Fatalf("%T unmarshal %x: %v", v, buf, err)
		}
		if !reflect.DeepEqual(v, got) {
			t.Errorf("%T round trip:\nwant %+v\ngot  %+v", v, v, got)
		}
	}
}

// TestBinCodecMatchesJSON pins cross-codec equivalence: a value carried
// over a v2 binary stream frame must re-marshal to exactly the JSON the
// HTTP API carries, so both transports answer with the same values.
func TestBinCodecMatchesJSON(t *testing.T) {
	resp := CheckInBatchResponse{Results: []CheckInResult{
		{},
		{Assignment: Assignment{Assigned: true, JobID: 3, Round: 1, JobName: "mobilenet", Policy: "venn"}},
		{Error: "device busy"},
	}}
	wantJSON, err := resp.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := resp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var decoded CheckInBatchResponse
	if err := decoded.UnmarshalBinary(bin); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := decoded.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("binary hop changed the payload:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
}

// TestBinCodecCompactUnassigned pins the size property the layout was
// designed around: the overwhelmingly common "no work" batch reply costs
// one byte per device.
func TestBinCodecCompactUnassigned(t *testing.T) {
	resp := CheckInBatchResponse{Results: make([]CheckInResult, 1000)}
	buf, err := resp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + 1000; len(buf) != want { // uvarint(1000) = 2 bytes + 1 flag byte each
		t.Fatalf("unassigned batch encoded to %d bytes, want %d", len(buf), want)
	}
	js, err := resp.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf)*3 >= len(js) {
		t.Fatalf("binary (%dB) should be >3x smaller than JSON (%dB)", len(buf), len(js))
	}
}

// TestBinCodecRejects pins the decoder's defenses: trailing bytes, lying
// batch counts, oversized strings, truncation, unknown flag bits, and
// non-boolean bools are all errors, never panics or huge allocations.
func TestBinCodecRejects(t *testing.T) {
	ci := CheckIn{DeviceID: "a", CPU: 1, Mem: 1}
	good, err := ci.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"trailing bytes":  append(append([]byte{}, good...), 0),
		"truncated":       good[:len(good)-1],
		"oversized str":   {0xFF, 0xFF, 0x03, 'a'},
		"empty":           {},
		"bad count":       {0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		"overflow varint": {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	}
	for name, data := range cases {
		var v CheckIn
		if err := v.UnmarshalBinary(data); err == nil && name != "empty" {
			t.Errorf("CheckIn accepted %s input %x", name, data)
		}
		var b CheckInBatchRequest
		if err := b.UnmarshalBinary(data); err == nil {
			t.Errorf("CheckInBatchRequest accepted %s input %x", name, data)
		}
	}
	// A count above MaxBatch is rejected before allocation even if the
	// payload is long enough to look plausible.
	big := make([]byte, 4+MaxBatch+10)
	big[0], big[1], big[2] = 0x81, 0xC0, 0x01 // uvarint(24577) > MaxBatch
	var b CheckInBatchRequest
	if err := b.UnmarshalBinary(big); err == nil {
		t.Error("batch count above MaxBatch accepted")
	}
	// Unknown flag bits must be rejected (forward-compatibility guard).
	var a Assignment
	if err := a.UnmarshalBinary([]byte{0x80}); err == nil {
		t.Error("Assignment accepted unknown flag bit")
	}
	var rr ReportResult
	if err := rr.UnmarshalBinary([]byte{0x02}); err == nil {
		t.Error("ReportResult accepted unknown flag bit")
	}
	// Report.OK must be exactly 0 or 1.
	rep := Report{DeviceID: "d", OK: true}
	buf, _ := rep.MarshalBinary()
	okOff := len(buf) - 9 // bool sits 9 bytes from the end (1 + 8-byte f64)
	buf[okOff] = 2
	var r2 Report
	if err := r2.UnmarshalBinary(buf); err == nil {
		t.Error("Report accepted bool byte 2")
	}
}

// TestBinCodecEmptyCheckIn: a CheckIn with all-zero fields must still parse
// (the service layer, not the codec, decides whether an empty device_id is
// acceptable — exactly like the JSON codec).
func TestBinCodecEmptyCheckIn(t *testing.T) {
	var ci CheckIn
	buf, err := ci.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got CheckIn
	if err := got.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if got != ci {
		t.Fatalf("empty CheckIn round trip: %+v", got)
	}
}
