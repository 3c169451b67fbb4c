package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestRateCounter(t *testing.T) {
	var rc rateCounter
	// 5 events/s for the 10 seconds preceding "now" (second 100).
	for s := int64(90); s < 100; s++ {
		rc.Add(s, 5)
	}
	if got := rc.PerSec(100); got != 5 {
		t.Errorf("PerSec = %v, want 5", got)
	}
	// The current, still-filling second is excluded.
	rc.Add(100, 1000)
	if got := rc.PerSec(100); got != 5 {
		t.Errorf("PerSec with open second = %v, want 5", got)
	}
	// A quiet window decays to zero once the buckets fall out of range.
	if got := rc.PerSec(100 + rateRingSeconds + 1); got != 0 {
		t.Errorf("stale PerSec = %v, want 0", got)
	}
	// Bucket reuse after the ring wraps.
	rc.Add(100+rateRingSeconds, 7)
	if got := rc.PerSec(101 + rateRingSeconds); got != 0.7 {
		t.Errorf("reused-bucket PerSec = %v, want 0.7", got)
	}
}

func TestMetricsSnapshotAndEndpoint(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(clk)
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	resp := postJSON(t, srv, "/v1/jobs", JobSpec{Category: "General", DemandPerRound: 2, Rounds: 1})
	resp.Body.Close()
	resp = postJSON(t, srv, "/v1/checkin", CheckIn{DeviceID: "m0", CPU: 0.6, Mem: 0.6})
	resp.Body.Close()
	resp = postJSON(t, srv, "/v1/checkin/batch", CheckInBatchRequest{CheckIns: []CheckIn{
		{DeviceID: "m1", CPU: 0.7, Mem: 0.7},
		{DeviceID: "m2", CPU: 0.4, Mem: 0.4},
	}})
	resp.Body.Close()

	r, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mt Metrics
	if err := json.NewDecoder(r.Body).Decode(&mt); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	if mt.CheckIns != 3 {
		t.Errorf("checkins_total = %d, want 3", mt.CheckIns)
	}
	if mt.Assignments != 2 {
		t.Errorf("assignments_total = %d, want 2", mt.Assignments)
	}
	if mt.KnownDevices != 3 || mt.BusyDevices != 2 {
		t.Errorf("devices: known=%d busy=%d", mt.KnownDevices, mt.BusyDevices)
	}
	if mt.Shards != defaultShards {
		t.Errorf("shards = %d", mt.Shards)
	}
	if mt.ActiveJobs != 1 || mt.CollectingJobs != 1 {
		t.Errorf("job depths: %+v", mt)
	}
	ci, ok := mt.HandlerLatencyMs[RouteCheckIn]
	if !ok || ci.Count != 1 {
		t.Errorf("checkin latency: %+v (ok=%v)", ci, ok)
	}
	cb, ok := mt.HandlerLatencyMs[RouteCheckInBatch]
	if !ok || cb.Count != 1 || cb.P99 < 0 {
		t.Errorf("checkin_batch latency: %+v (ok=%v)", cb, ok)
	}
	if _, ok := mt.HandlerLatencyMs[RouteReport]; ok {
		t.Error("untouched route must be omitted from the latency map")
	}

	// Rates: feed the counters directly at a known clock second.
	sec := clk.now().Unix()
	m.metrics.checkins.Add(sec-1, 30)
	mt2 := m.MetricsSnapshot()
	if mt2.CheckInsPerSec < 3.0-1e-9 {
		t.Errorf("checkins_per_sec = %v, want >= 3", mt2.CheckInsPerSec)
	}
}

func TestMetricsMethodNotAllowed(t *testing.T) {
	m := newTestManager(newFakeClock())
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/metrics", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST metrics status %d", resp.StatusCode)
	}
}
