// Package client is the Go SDK for the venndaemon HTTP API: CL job owners
// use it to register jobs and poll status; device agents use it to check in
// and report task results. High-volume callers (fleets, load generators)
// should prefer the batch methods, which amortize one HTTP round trip and
// one scheduler-lock acquisition over many devices.
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"venn/internal/server"
)

// Defaults for the configurable knobs.
const (
	DefaultTimeout    = 10 * time.Second
	DefaultRetryDelay = 100 * time.Millisecond
)

// Client talks to one venndaemon instance.
type Client struct {
	base       string
	http       *http.Client
	retries    int           // extra attempts for idempotent GETs
	retryDelay time.Duration // backoff base, doubled per attempt, jittered
}

func newHTTPClient(baseURL string, cfg config) *Client {
	h := cfg.httpClient
	if h == nil {
		h = &http.Client{Timeout: cfg.timeout}
	} else if cfg.timeoutSet {
		h.Timeout = cfg.timeout
	}
	return &Client{
		base:       baseURL,
		http:       h,
		retries:    cfg.retries,
		retryDelay: cfg.retryDelay,
	}
}

// RegisterJob submits a new CL job and returns its status (including ID).
func (c *Client) RegisterJob(spec server.JobSpec) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.post("/v1/jobs", spec, &st)
	return st, err
}

// JobStatus fetches one job's status.
func (c *Client) JobStatus(id int) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.get(fmt.Sprintf("/v1/jobs/%d", id), &st)
	return st, err
}

// Jobs lists all jobs.
func (c *Client) Jobs() ([]server.JobStatus, error) {
	var out []server.JobStatus
	err := c.get("/v1/jobs", &out)
	return out, err
}

// CheckIn announces device availability and returns the assignment.
func (c *Client) CheckIn(ci server.CheckIn) (server.Assignment, error) {
	var asg server.Assignment
	err := c.post("/v1/checkin", ci, &asg)
	return asg, err
}

// CheckInBatch announces availability for a whole batch of devices in one
// request. Results[i] answers cis[i]; per-item rejections surface in each
// result's Error field, not as a Go error.
func (c *Client) CheckInBatch(cis []server.CheckIn) ([]server.CheckInResult, error) {
	var resp server.CheckInBatchResponse
	if err := c.post("/v1/checkin/batch", server.CheckInBatchRequest{CheckIns: cis}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(cis) {
		return nil, fmt.Errorf("client: batch reply has %d results for %d check-ins", len(resp.Results), len(cis))
	}
	return resp.Results, nil
}

// Report submits a task result.
func (c *Client) Report(r server.Report) error {
	return c.post("/v1/report", r, &struct{}{})
}

// ReportBatch submits a batch of task results in one request. Results[i]
// answers rs[i].
func (c *Client) ReportBatch(rs []server.Report) ([]server.ReportResult, error) {
	var resp server.ReportBatchResponse
	if err := c.post("/v1/report/batch", server.ReportBatchRequest{Reports: rs}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(rs) {
		return nil, fmt.Errorf("client: batch reply has %d results for %d reports", len(resp.Results), len(rs))
	}
	return resp.Results, nil
}

// Stats fetches the daemon's monitoring snapshot.
func (c *Client) Stats() (server.Stats, error) {
	var st server.Stats
	err := c.get("/v1/stats", &st)
	return st, err
}

// Metrics fetches the daemon's serving-throughput and latency metrics.
func (c *Client) Metrics() (server.Metrics, error) {
	var mt server.Metrics
	err := c.get("/v1/metrics", &mt)
	return mt, err
}

// Ping probes daemon reachability with the cheapest idempotent request.
func (c *Client) Ping() error {
	return c.get("/v1/stats", &struct{}{})
}

// Close releases idle connections held by the underlying HTTP transport.
func (c *Client) Close() error {
	c.http.CloseIdleConnections()
	return nil
}

// WaitForJob polls until the job completes or the timeout elapses.
func (c *Client) WaitForJob(id int, poll, timeout time.Duration) (server.JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.JobStatus(id)
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

func (c *Client) post(path string, body, out any) error {
	var buf []byte
	var err error
	// The hot batch wire types marshal themselves (see server/codec.go);
	// calling them directly skips encoding/json's re-validation pass.
	if m, ok := body.(json.Marshaler); ok {
		buf, err = m.MarshalJSON()
	} else {
		buf, err = json.Marshal(body)
	}
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

// get fetches an idempotent resource, retrying transient failures (network
// errors and 5xx statuses) up to the configured retry budget with jittered
// exponential backoff.
func (c *Client) get(path string, out any) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := c.http.Get(c.base + path)
		if err == nil && resp.StatusCode < 500 {
			err := decodeResponse(resp, out)
			resp.Body.Close()
			return err
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("client: status %d", resp.StatusCode)
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		}
		if attempt >= c.retries {
			return lastErr
		}
		time.Sleep(backoff(c.retryDelay, attempt))
	}
}

// maxBackoff caps one retry wait; it also keeps the doubling shift far
// from int64 overflow for large retry budgets.
const maxBackoff = 30 * time.Second

// backoff returns base*2^attempt plus up to 50% jitter, capped at
// maxBackoff. The global math/rand source is goroutine-safe and fine for
// jitter — unlike the simulator's seeded RNGs, there is no reproducibility
// requirement here.
func backoff(base time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

func decodeResponse(resp *http.Response, out any) error {
	if resp.StatusCode >= 300 {
		var apiErr struct {
			Error string `json:"error"`
			Code  int    `json:"code"`
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(body, &apiErr) == nil && apiErr.Error != "" {
			return &APIError{Code: server.Code(apiErr.Code), Status: resp.StatusCode, Msg: apiErr.Error}
		}
		return fmt.Errorf("client: status %d", resp.StatusCode)
	}
	// Hand-rolled unmarshalers get the raw bytes directly: a json.Decoder
	// would tokenize the value once to find its extent and then have the
	// custom unmarshaler parse it a second time.
	if u, ok := out.(json.Unmarshaler); ok {
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		return u.UnmarshalJSON(body)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
