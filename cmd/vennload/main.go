// Command vennload is the serving-path load generator: it spins up N
// thousand synthetic device agents against a live venndaemon (or a whole
// federation of them), drives registered jobs to completion, and writes
// throughput and latency percentiles to a BENCH_serve.json artifact. It is
// the repo's continuous measurement of the wall-clock serving path — CI runs
// a short smoke pass on every PR, and the -compare mode records the ladder:
// the single-lock one-request-per-check-in baseline, the batched+sharded
// HTTP path, the binary stream transport, the same stream under
// demand-heavy traffic (stream-v2-contended: a feeder keeps a
// target fraction of check-ins winning assignments, so the run measures the
// contended core commit pipeline instead of the lock-free surplus path), a
// two-daemon federation over that stream transport — all pinned to
// GOMAXPROCS=1 so the rungs measure protocol cost, not core count — plus,
// on multi-core hosts, a stream-mc rung at full GOMAXPROCS with per-core
// SO_REUSEPORT listener shards that measures how the stream path scales
// with cores.
//
// Against a running daemon:
//
//	venndaemon -addr :8080 -stream-addr :8081 &
//	vennload -daemon http://localhost:8080 -agents 2000 -duration 10s
//	vennload -transport stream -stream-daemon localhost:8081 -agents 2000 -duration 10s
//
// Against a running federation (one lane of agents per member; agents land
// on an arbitrary member, exercising the forwarding path):
//
//	vennload -cluster-daemons 10.0.0.1:8081,10.0.0.2:8081 -agents 2000 -duration 10s
//
// Self-hosted (spins in-process daemons; no external setup):
//
//	vennload -agents 2000 -duration 10s -out BENCH_serve.json
//	vennload -cluster 2 -agents 2000 -duration 10s
//	vennload -compare -agents 2000 -duration 5s -out BENCH_serve.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"venn/internal/client"
	"venn/internal/cluster"
	"venn/internal/policy"
	"venn/internal/server"
	"venn/internal/stats"
	"venn/internal/transport"
)

// apiClient is the client surface one load lane drives; both the HTTP
// client and the stream client satisfy it.
type apiClient interface {
	RegisterJob(server.JobSpec) (server.JobStatus, error)
	JobStatus(int) (server.JobStatus, error)
	CheckIn(server.CheckIn) (server.Assignment, error)
	CheckInBatch([]server.CheckIn) ([]server.CheckInResult, error)
	Report(server.Report) error
	ReportBatch([]server.Report) ([]server.ReportResult, error)
	Stats() (server.Stats, error)
	Metrics() (server.Metrics, error)
}

func main() {
	var (
		daemon      = flag.String("daemon", "", "venndaemon base URL; empty self-hosts an in-process daemon")
		streamDmn   = flag.String("stream-daemon", "", "venndaemon stream address (host:port) for -transport stream against a live daemon")
		clusterDmns = flag.String("cluster-daemons", "", "comma-separated stream addresses of live federated daemons to drive (one agent lane per member)")
		clusterN    = flag.Int("cluster", 0, "self-host a federation of N daemons (stream transport) and drive all of them")
		transp      = flag.String("transport", "http", "transport to drive: http | stream")
		agents      = flag.Int("agents", 2000, "number of synthetic device agents")
		duration    = flag.Duration("duration", 10*time.Second, "load duration per run")
		batch       = flag.Int("batch", 64, "check-ins per batch request (1 = unbatched single endpoint)")
		conns       = flag.Int("conns", 0, "concurrent load workers (0 = 4x CPUs, capped at 64)")
		streamCns   = flag.Int("stream-conns", 0, "stream connections to multiplex workers over (0 = workers/2, min 1)")
		streamShrds = flag.Int("stream-shards", 0, "SO_REUSEPORT accept shards for self-hosted stream listeners (0 = 1 listener)")
		topology    = flag.Bool("topology", true, "ring-aware clients in cluster modes: fetch the daemons' topology and send each batch item straight to its owner (false = seed-only clients, exercising the server-side forward path)")
		jobs        = flag.Int("jobs", 8, "CL jobs to register (per federation member in cluster mode)")
		demand      = flag.Int("demand", 0, "demand per round (0 = auto-size to the fleet)")
		demandFrac  = flag.Float64("demand-frac", 0, "demand-heavy mode: keep job arrivals flowing so roughly this fraction of check-ins wins an assignment (0 disables; self-hosted runs also lift the daily task budget so the contention is sustained)")
		rounds      = flag.Int("rounds", 1, "rounds per job")
		category    = flag.String("category", "", "pin every job to one requirement category (default: cycle the standard strata)")
		shards      = flag.Int("shards", 0, "manager lock shards for self-hosted runs (0 = server default)")
		polName     = flag.String("policy", "", "scheduling policy for self-hosted daemons (empty = server default: "+policy.Default+")")
		shadowPols  = flag.String("shadow-policies", "", "comma-separated shadow policies for self-hosted daemons (observed, never applied)")
		abFlag      = flag.String("ab", "", "policyA,policyB: sequential self-hosted A/B replay of identical seeded traffic with a JCT/throughput/fairness delta table")
		seed        = flag.Int64("seed", 1, "random seed for the synthetic fleet")
		out         = flag.String("out", "", "write a JSON benchmark report to this file")
		compare     = flag.Bool("compare", false, "self-host and record the ladder: single-lock HTTP, batched+sharded HTTP, stream, demand-heavy stream, 2-daemon federation (all at GOMAXPROCS=1), plus a multi-core stream rung on multi-core hosts")
		obsSample   = flag.Int("obs-sample", 0, "request-span sampling for self-hosted daemons: 1 in N requests (0 = server default 64, negative disables spans)")
		pprofSrv    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile of the load run(s) to this file")
		mutexProf   = flag.String("mutexprofile", "", "write a mutex contention profile to this file at exit")
		blockProf   = flag.String("blockprofile", "", "write a goroutine blocking profile to this file at exit")
	)
	flag.Parse()

	if *transp != "http" && *transp != "stream" {
		fmt.Fprintf(os.Stderr, "vennload: unknown -transport %q (want http or stream)\n", *transp)
		os.Exit(2)
	}
	if *streamDmn != "" && *transp != "stream" {
		fmt.Fprintln(os.Stderr, "vennload: -stream-daemon requires -transport stream")
		os.Exit(2)
	}
	if *clusterDmns != "" && *clusterN > 0 {
		fmt.Fprintln(os.Stderr, "vennload: -cluster (self-hosted) and -cluster-daemons (live) are mutually exclusive")
		os.Exit(2)
	}
	if *polName != "" && !policy.Valid(*polName) {
		fmt.Fprintf(os.Stderr, "vennload: unknown -policy %q (have: %s)\n", *polName, strings.Join(policy.Names(), ", "))
		os.Exit(2)
	}
	if *demandFrac < 0 || *demandFrac > 1 {
		fmt.Fprintf(os.Stderr, "vennload: -demand-frac %v out of range [0,1]\n", *demandFrac)
		os.Exit(2)
	}
	var shadowList []string
	if *shadowPols != "" {
		for _, name := range strings.Split(*shadowPols, ",") {
			name = strings.TrimSpace(name)
			if !policy.Valid(name) {
				fmt.Fprintf(os.Stderr, "vennload: unknown shadow policy %q (have: %s)\n", name, strings.Join(policy.Names(), ", "))
				os.Exit(2)
			}
			shadowList = append(shadowList, name)
		}
	}
	if *conns <= 0 {
		*conns = 4 * runtime.NumCPU()
		if *conns > 64 {
			*conns = 64
		}
	}
	if *pprofSrv != "" {
		go func() {
			if err := http.ListenAndServe(*pprofSrv, nil); err != nil {
				fmt.Fprintln(os.Stderr, "vennload: pprof server:", err)
			}
		}()
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vennload: cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "vennload: cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}
	if *mutexProf != "" {
		runtime.SetMutexProfileFraction(mutexProfileFraction)
		defer writeProfile("mutex", *mutexProf)
	}
	if *blockProf != "" {
		runtime.SetBlockProfileRate(blockProfileRateNs)
		defer writeProfile("block", *blockProf)
	}

	report := benchReport{
		Schema:    "venn/bench_serve/v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		UnixTime:  time.Now().Unix(),
	}

	base := loadConfig{
		Agents: *agents, Conns: *conns, StreamConns: *streamCns, Duration: *duration,
		Jobs: *jobs, Demand: *demand, DemandFrac: *demandFrac, Rounds: *rounds,
		Category: *category, Seed: *seed,
		Policy: *polName, Shadow: shadowList,
		StreamShards: *streamShrds, ObsSample: *obsSample,
	}
	switch {
	case *abFlag != "":
		names := strings.Split(*abFlag, ",")
		if len(names) != 2 {
			fmt.Fprintln(os.Stderr, "vennload: -ab wants exactly two policies, e.g. -ab venn,fifo")
			os.Exit(2)
		}
		for i, name := range names {
			names[i] = strings.TrimSpace(name)
			if !policy.Valid(names[i]) {
				fmt.Fprintf(os.Stderr, "vennload: unknown -ab policy %q (have: %s)\n", names[i], strings.Join(policy.Names(), ", "))
				os.Exit(2)
			}
		}
		// Both arms replay the same seeded fleet against the same scripted
		// job set: demands descend steeply across the registration order, so
		// an arrival-ordered policy head-of-line blocks the small jobs that a
		// demand-aware one retires first; supply trickles in (each device
		// checks in once, paced across the duration) so that blocking costs
		// wall-clock JCT. Only the policy differs between the arms.
		for _, name := range names {
			cfg := base
			cfg.Mode, cfg.Transport, cfg.Shards, cfg.Batch = "ab:"+name, *transp, *shards, 1
			cfg.Policy, cfg.DemandSpread, cfg.Trickle = name, true, true
			if cfg.Category == "" {
				cfg.Category = "General"
			}
			report.Runs = append(report.Runs, runSelfHosted(cfg))
		}
		printABDelta(report.Runs[len(report.Runs)-2], report.Runs[len(report.Runs)-1])
	case *compare:
		if *daemon != "" {
			fmt.Fprintln(os.Stderr, "vennload: -compare self-hosts all runs; -daemon is ignored")
		}
		// The protocol rungs all pin GOMAXPROCS=1 so they measure per-core
		// protocol cost; only the final stream-mc rung opens the core count
		// back up. Only the contended rung runs demand-heavy — a global
		// -demand-frac must not corrupt the surplus rungs' lock-free
		// measurements.
		base.DemandFrac = 0
		// Rung 1: one lock stripe and one HTTP request per check-in — the
		// seed serving path.
		single := base
		single.Mode, single.Transport, single.Shards, single.Batch, single.Gomaxprocs = "single", "http", 1, 1, 1
		report.Runs = append(report.Runs, runSelfHosted(single))
		// Rung 2: sharded manager, batched HTTP API.
		batched := base
		batched.Mode, batched.Transport, batched.Shards, batched.Batch, batched.Gomaxprocs = "batched", "http", *shards, max(*batch, 2), 1
		report.Runs = append(report.Runs, runSelfHosted(batched))
		// Rung 3: same batching over the persistent binary stream.
		stream := base
		stream.Mode, stream.Transport, stream.Shards, stream.Batch, stream.Gomaxprocs = "stream", "stream", *shards, max(*batch, 2), 1
		report.Runs = append(report.Runs, runSelfHosted(stream))
		// Rung 3b: the same stream under demand-heavy traffic. A feeder
		// keeps fresh job arrivals flowing (daily budget lifted) so a target
		// fraction of check-ins wins an assignment and reports back; while
		// demand is open every check-in commits through the scheduler core,
		// so this rung measures the mutex-held core section where the
		// surplus rungs measure the lock-free snapshot path.
		contended := base
		contended.Mode, contended.Transport, contended.Shards, contended.Batch, contended.Gomaxprocs = "stream-v2-contended", "stream", *shards, max(*batch, 2), 1
		contended.DemandFrac = *demandFrac
		if contended.DemandFrac <= 0 {
			contended.DemandFrac = defaultContendedFrac
		}
		report.Runs = append(report.Runs, runSelfHosted(contended))
		// Rung 4: a federation of stream daemons sharing the fleet by
		// consistent-hash ownership, agents spread across all members.
		// Seed-only clients, so roughly half of all traffic crosses the
		// server-side forward path — this rung keeps the forwarded number
		// visible now that direct routing exists.
		nodes := *clusterN
		if nodes <= 0 {
			nodes = 2
		}
		clus := base
		clus.Mode, clus.Transport, clus.Shards, clus.Batch, clus.ClusterNodes = "cluster", "stream", *shards, max(*batch, 2), nodes
		clus.Gomaxprocs = 1
		report.Runs = append(report.Runs, runSelfHostedCluster(clus))
		// Rung 4b: the same federation driven by ring-aware clients
		// (OpTopology): items go straight to their owners and the forward
		// path idles. This is the headline cluster number.
		direct := clus
		direct.Mode, direct.Topology = "cluster-direct", true
		report.Runs = append(report.Runs, runSelfHostedCluster(direct))
		// Rung 5 (multi-core hosts only): the stream again at full
		// GOMAXPROCS with one SO_REUSEPORT accept shard per core.
		if runtime.NumCPU() > 1 {
			mc := base
			mc.Mode, mc.Transport, mc.Shards, mc.Batch = "stream-mc", "stream", *shards, max(*batch, 2)
			mc.Gomaxprocs, mc.StreamShards = runtime.NumCPU(), runtime.NumCPU()
			report.Runs = append(report.Runs, runSelfHosted(mc))
		} else {
			fmt.Println("\nskipping stream-mc rung: single-CPU host (core scaling is unmeasurable here)")
		}

		rate := func(mode string) float64 {
			for _, r := range report.Runs {
				if r.Mode == mode {
					return r.CheckInsPerSec
				}
			}
			return 0
		}
		singleRate, batchedRate := rate("single"), rate("batched")
		streamRate := rate("stream")
		contendedRate := rate("stream-v2-contended")
		clusterRate, directRate, mcRate := rate("cluster"), rate("cluster-direct"), rate("stream-mc")
		if singleRate > 0 {
			report.SpeedupBatchedVsSingle = batchedRate / singleRate
			report.SpeedupStreamVsSingle = streamRate / singleRate
			fmt.Printf("\nspeedup (batched+sharded HTTP vs single-lock): %.2fx\n", report.SpeedupBatchedVsSingle)
			fmt.Printf("speedup (stream vs single-lock):               %.2fx\n", report.SpeedupStreamVsSingle)
		}
		if batchedRate > 0 {
			report.SpeedupStreamVsBatched = streamRate / batchedRate
			fmt.Printf("speedup (stream vs batched HTTP):              %.2fx\n", report.SpeedupStreamVsBatched)
		}
		if streamRate > 0 && contendedRate > 0 {
			report.ContendedVsStream = contendedRate / streamRate
			fmt.Printf("demand-heavy contended rung vs surplus stream: %.2fx\n", report.ContendedVsStream)
		}
		if streamRate > 0 {
			report.SpeedupClusterVsStream = directRate / streamRate
			report.SpeedupClusterFwdVsStream = clusterRate / streamRate
			fmt.Printf("speedup (%d-daemon cluster, ring-aware clients, vs one stream daemon): %.2fx\n", nodes, report.SpeedupClusterVsStream)
			fmt.Printf("speedup (%d-daemon cluster, seed-only clients, vs one stream daemon):  %.2fx\n", nodes, report.SpeedupClusterFwdVsStream)
			if mcRate > 0 {
				report.SpeedupStreamMCVsSingleCore = mcRate / streamRate
				fmt.Printf("speedup (stream at %d cores vs 1 core):         %.2fx\n", runtime.NumCPU(), report.SpeedupStreamMCVsSingleCore)
			}
		}
	case *clusterDmns != "":
		cfg := base
		cfg.Mode, cfg.Transport, cfg.Batch, cfg.Topology = "cluster", "stream", *batch, *topology
		addrs := strings.Split(*clusterDmns, ",")
		cfg.ClusterNodes = len(addrs)
		lanes := make([]lane, len(addrs))
		for i, addr := range addrs {
			lanes[i] = lane{name: addr, c: newStreamClient(addr, cfg)}
		}
		report.Runs = append(report.Runs, runLoad(lanes, cfg))
	case *clusterN > 0:
		cfg := base
		cfg.Mode, cfg.Transport, cfg.Shards, cfg.Batch, cfg.ClusterNodes = "cluster", "stream", *shards, *batch, *clusterN
		cfg.Topology = *topology
		report.Runs = append(report.Runs, runSelfHostedCluster(cfg))
	case *daemon != "" || *streamDmn != "":
		cfg := base
		cfg.Mode, cfg.Transport, cfg.Batch = modeName(*batch, *transp), *transp, *batch
		var c apiClient
		if *transp == "stream" {
			if *streamDmn == "" {
				fmt.Fprintln(os.Stderr, "vennload: -transport stream against a live daemon needs -stream-daemon host:port")
				os.Exit(2)
			}
			c = newStreamClient(*streamDmn, cfg)
		} else {
			c = newHTTPClient(*daemon, cfg)
		}
		report.Runs = append(report.Runs, runLoad([]lane{{name: "daemon", c: c}}, cfg))
	default:
		cfg := base
		cfg.Mode, cfg.Transport, cfg.Shards, cfg.Batch = modeName(*batch, *transp), *transp, *shards, *batch
		report.Runs = append(report.Runs, runSelfHosted(cfg))
	}

	printSummary(report)

	if *out != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "vennload: write report:", err)
			os.Exit(1)
		}
		fmt.Println("report written to", *out)
	}
}

func modeName(batch int, transport string) string {
	if transport == "stream" {
		return "stream"
	}
	if batch > 1 {
		return "batched"
	}
	return "single"
}

// Demand-feeder and profiling knobs.
const (
	// defaultContendedFrac is the stream-v2-contended rung's target
	// assignment fraction when -demand-frac is unset.
	defaultContendedFrac = 0.4
	// feedInterval is how often a lane's demand feeder re-sizes open demand
	// against the observed check-in rate.
	feedInterval = 100 * time.Millisecond
	// mutexProfileFraction samples 1 in N mutex contention events for
	// -mutexprofile; blockProfileRateNs records one sample per N ns of
	// goroutine blocking for -blockprofile.
	mutexProfileFraction = 100
	blockProfileRateNs   = 10_000
)

// writeProfile dumps a named runtime profile ("mutex", "block") to path.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vennload: "+name+" profile:", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "vennload: "+name+" profile:", err)
	}
}

type loadConfig struct {
	Mode          string
	Transport     string   // "http" | "stream"
	Shards        int      // self-hosted runs only; 0 = server default
	Policy        string   // self-hosted runs only; "" = server default
	Shadow        []string // self-hosted runs only; shadow policies to attach
	Batch         int
	Agents        int
	Conns         int
	StreamConns   int  // 0 = Conns/2, min 1
	StreamShards  int  // self-hosted stream listener accept shards; 0 = 1
	Gomaxprocs    int  // pin runtime.GOMAXPROCS for the run; 0 = leave as is
	ClusterNodes  int  // federation member count (cluster mode only)
	Topology      bool // ring-aware clients (cluster modes): route items to owners directly
	Duration      time.Duration
	Jobs          int
	Demand        int
	DemandFrac    float64 // demand-heavy mode: target assignment fraction of check-ins (0 = surplus traffic)
	NoDailyBudget bool    // self-hosted runs: lift the one-task-per-day budget (implied by DemandFrac > 0)
	ObsSample     int     // self-hosted runs: span sampling 1 in N (0 = server default, negative disables)
	Rounds        int
	Category      string // "" cycles the standard strata
	Seed          int64
	DemandSpread  bool // -ab: job demands descend across registration order
	Trickle       bool // -ab: each device checks in once, paced across Duration
}

// managerConfig maps a self-hosted run's knobs onto the server config. The
// fleet seed doubles as the scheduling seed so an A/B replay's two arms see
// identical randomness end to end.
func managerConfig(cfg loadConfig) server.Config {
	return server.Config{
		Shards:         cfg.Shards,
		Policy:         cfg.Policy,
		ShadowPolicies: cfg.Shadow,
		Seed:           cfg.Seed,
		// Demand-heavy runs lift the one-task-per-day budget: sustained
		// contention needs the same fleet to stay assignable, or the budget
		// drains the eligible pool within seconds and the run degenerates
		// back to surplus traffic.
		DisableDailyBudget: cfg.NoDailyBudget || cfg.DemandFrac > 0,
		ObsSampleEvery:     cfg.ObsSample,
	}
}

func (cfg loadConfig) streamPool() int {
	if cfg.StreamConns > 0 {
		return cfg.StreamConns
	}
	n := cfg.Conns / 2
	if n < 1 {
		n = 1
	}
	return n
}

type percentiles struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// nodeResult is one federation member's slice of a cluster run: client-side
// throughput of the lane that drove it plus the member's own federation
// counters.
type nodeResult struct {
	Node           string  `json:"node"`
	CheckIns       int64   `json:"checkins"`
	CheckInsPerSec float64 `json:"checkins_per_sec"`
	Errors         int64   `json:"errors"`
	JobsDone       int     `json:"jobs_done"`
	ForwardsIn     int64   `json:"forwards_in"`
	ForwardsOut    int64   `json:"forwards_out"`
	ForwardErrors  int64   `json:"forward_errors"`
	LocalFallbacks int64   `json:"local_fallbacks"`
	PeersUp        int     `json:"peers_up"`
	PeersDown      int     `json:"peers_down"`
	// Direct-routing telemetry (ring-aware clients): batches served without
	// any peer hop, the topology the member advertises, and forwarded bytes.
	DirectRoutedBatches int64  `json:"direct_routed_batches,omitempty"`
	TopologyEpoch       uint64 `json:"topology_epoch,omitempty"`
	TopologyPushes      int64  `json:"topology_pushes,omitempty"`
	ForwardBytesIn      int64  `json:"forward_bytes_in,omitempty"`
	ForwardBytesOut     int64  `json:"forward_bytes_out,omitempty"`
}

type runResult struct {
	Mode             string           `json:"mode"`
	Transport        string           `json:"transport"`
	Shards           int              `json:"shards,omitempty"`
	Policy           string           `json:"policy,omitempty"`
	DemandFrac       float64          `json:"demand_frac,omitempty"`
	ServedByPolicy   map[string]int64 `json:"served_by_policy,omitempty"`
	JCTAvgSeconds    float64          `json:"jct_avg_seconds,omitempty"`
	JCTP90Seconds    float64          `json:"jct_p90_seconds,omitempty"`
	JCTJainFairness  float64          `json:"jct_jain_fairness,omitempty"`
	Agents           int              `json:"agents"`
	Conns            int              `json:"conns"`
	StreamConns      int              `json:"stream_conns,omitempty"`
	StreamShards     int              `json:"stream_shards,omitempty"`
	GOMAXPROCS       int              `json:"gomaxprocs,omitempty"`
	Batch            int              `json:"batch"`
	DurationSeconds  float64          `json:"duration_seconds"`
	CheckIns         int64            `json:"checkins"`
	CheckInsPerSec   float64          `json:"checkins_per_sec"`
	Assignments      int64            `json:"assignments"`
	Reports          int64            `json:"reports"`
	Errors           int64            `json:"errors"`
	JobsTotal        int              `json:"jobs_total"`
	JobsDone         int              `json:"jobs_done"`
	RequestLatencyMs percentiles      `json:"request_latency_ms"`
	Nodes            []nodeResult     `json:"nodes,omitempty"`
	ServerMetrics    *server.Metrics  `json:"server_metrics,omitempty"`
}

// forwards sums the run's federation counters across its nodes.
func (r runResult) forwards() (in, out int64) {
	for _, n := range r.Nodes {
		in += n.ForwardsIn
		out += n.ForwardsOut
	}
	return in, out
}

// directRouted sums the run's direct-routed batch counts across its nodes.
func (r runResult) directRouted() int64 {
	var total int64
	for _, n := range r.Nodes {
		total += n.DirectRoutedBatches
	}
	return total
}

type benchReport struct {
	Schema                 string      `json:"schema"`
	GoVersion              string      `json:"go_version"`
	GOOS                   string      `json:"goos"`
	GOARCH                 string      `json:"goarch"`
	NumCPU                 int         `json:"num_cpu"`
	UnixTime               int64       `json:"unix_time"`
	Runs                   []runResult `json:"runs"`
	SpeedupBatchedVsSingle float64     `json:"speedup_batched_vs_single,omitempty"`
	SpeedupStreamVsSingle  float64     `json:"speedup_stream_vs_single,omitempty"`
	SpeedupStreamVsBatched float64     `json:"speedup_stream_vs_batched,omitempty"`
	// SpeedupClusterVsStream compares the cluster-direct rung (ring-aware
	// clients, OpTopology routing) to the single-daemon stream rung — the
	// headline federation number. SpeedupClusterFwdVsStream keeps the
	// seed-only clients' ratio (every misrouted item crossing the forward
	// path) that this field used to hold.
	SpeedupClusterVsStream    float64 `json:"speedup_cluster_vs_stream,omitempty"`
	SpeedupClusterFwdVsStream float64 `json:"speedup_cluster_fwd_vs_stream,omitempty"`
	// SpeedupStreamMCVsSingleCore compares the stream-mc rung (full
	// GOMAXPROCS, per-core listener shards) to the single-core stream rung.
	SpeedupStreamMCVsSingleCore float64 `json:"speedup_stream_mc_vs_single_core,omitempty"`
	// ContendedVsStream compares the stream-v2-contended rung (demand-heavy
	// traffic committing through the core pipeline) to the surplus stream
	// rung (lock-free snapshot path). Expected well below 1.0 — it prices
	// the core commit, not the protocol.
	ContendedVsStream float64 `json:"contended_vs_stream,omitempty"`
}

// printMu serializes all human-readable run output: each run's block is
// assembled off to the side and printed atomically, so per-node (or any
// future concurrent) runs can never interleave lines mid-block.
var printMu sync.Mutex

func printBlock(b *strings.Builder) {
	printMu.Lock()
	fmt.Print(b.String())
	printMu.Unlock()
}

// printSummary renders the end-of-run table: one row per run with its
// policy, throughput, and federation forward counts, plus per-node rows for
// cluster runs.
func printSummary(report benchReport) {
	var b strings.Builder
	fmt.Fprintf(&b, "\n%-14s %-9s %-8s %5s %5s %14s %10s %10s %10s %8s %8s\n",
		"mode", "transport", "policy", "nodes", "batch", "checkins/s", "fwd_out", "fwd_in", "direct", "errors", "jobs")
	for _, run := range report.Runs {
		nodes := 1
		if len(run.Nodes) > 0 {
			nodes = len(run.Nodes)
		}
		pol := run.Policy
		if pol == "" {
			pol = "-"
		}
		in, out := run.forwards()
		fmt.Fprintf(&b, "%-14s %-9s %-8s %5d %5d %14.0f %10d %10d %10d %8d %d/%d\n",
			run.Mode, run.Transport, pol, nodes, run.Batch, run.CheckInsPerSec,
			out, in, run.directRouted(), run.Errors, run.JobsDone, run.JobsTotal)
		for _, n := range run.Nodes {
			fmt.Fprintf(&b, "  └ %-28s %14.0f %10d %10d %10d %8d %d (topo epoch %d, %d pushes, fwd bytes %d/%d)\n",
				n.Node, n.CheckInsPerSec, n.ForwardsOut, n.ForwardsIn, n.DirectRoutedBatches,
				n.Errors, n.JobsDone, n.TopologyEpoch, n.TopologyPushes, n.ForwardBytesOut, n.ForwardBytesIn)
		}
	}
	printBlock(&b)
}

// printABDelta renders the -ab verdict: both arms side by side plus A's
// JCT/throughput/fairness deltas relative to B.
func printABDelta(a, b runResult) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "\nA/B replay, identical seeded traffic (%s vs %s):\n", a.Policy, b.Policy)
	fmt.Fprintf(&sb, "%-8s %14s %9s %11s %11s %8s\n",
		"policy", "checkins/s", "jobs", "jct_avg_s", "jct_p90_s", "jain")
	for _, r := range []runResult{a, b} {
		fmt.Fprintf(&sb, "%-8s %14.0f %6d/%-2d %11.2f %11.2f %8.3f\n",
			r.Policy, r.CheckInsPerSec, r.JobsDone, r.JobsTotal,
			r.JCTAvgSeconds, r.JCTP90Seconds, r.JCTJainFairness)
	}
	if a.JCTAvgSeconds > 0 && b.JCTAvgSeconds > 0 && b.CheckInsPerSec > 0 {
		fmt.Fprintf(&sb, "delta (%s relative to %s): jct_avg %+.1f%%, throughput %+.1f%%, fairness %+.3f\n",
			a.Policy, b.Policy,
			100*(a.JCTAvgSeconds-b.JCTAvgSeconds)/b.JCTAvgSeconds,
			100*(a.CheckInsPerSec-b.CheckInsPerSec)/b.CheckInsPerSec,
			a.JCTJainFairness-b.JCTJainFairness)
	}
	printBlock(&sb)
}

// jainIndex is Jain's fairness index (Σx)²/(n·Σx²) over per-job JCTs: 1.0
// when every job waits equally, approaching 1/n as one job absorbs all the
// delay.
func jainIndex(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func newHTTPClient(baseURL string, cfg loadConfig) apiClient {
	tr := &http.Transport{
		MaxIdleConns:        2 * cfg.Conns,
		MaxIdleConnsPerHost: 2 * cfg.Conns,
	}
	return client.New(baseURL,
		client.WithHTTPClient(&http.Client{Timeout: 30 * time.Second, Transport: tr}),
		client.WithRetries(2))
}

func newStreamClient(addr string, cfg loadConfig) apiClient {
	opts := []client.Option{
		client.WithStreamConns(cfg.streamPool()),
		client.WithTimeout(30 * time.Second),
	}
	if cfg.Topology {
		opts = append(opts, client.WithTopology(true))
	}
	return client.NewStream(addr, opts...)
}

// pinGomaxprocs applies cfg.Gomaxprocs for the duration of a run; the
// returned func restores the previous value. Runs are sequential, so the
// global knob cannot race another run.
func pinGomaxprocs(cfg loadConfig) (restore func()) {
	if cfg.Gomaxprocs <= 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(cfg.Gomaxprocs)
	return func() { runtime.GOMAXPROCS(prev) }
}

// selfHostedNode is one in-process daemon: manager, listener, transport
// server, optional federation layer, and its tick loop.
type selfHostedNode struct {
	m        *server.Manager
	clu      *cluster.Cluster
	teardown func()
}

// startTicker runs the manager's once-a-second maintenance until stop.
func startTicker(m *server.Manager) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.Tick()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}

// runSelfHosted spins one in-process daemon on the requested transport,
// drives the load against it over real loopback sockets, and tears it down.
func runSelfHosted(cfg loadConfig) runResult {
	defer pinGomaxprocs(cfg)()
	m := server.NewManager(managerConfig(cfg))
	defer m.StopShadows()
	var c apiClient
	var teardown func()
	if cfg.Transport == "stream" {
		ts := transport.NewServer(m, transport.Options{})
		lns, err := transport.ListenSharded("127.0.0.1:0", max(cfg.StreamShards, 1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "vennload: listen:", err)
			os.Exit(1)
		}
		go func() { _ = ts.ServeListeners(lns) }()
		c = newStreamClient(lns[0].Addr().String(), cfg)
		teardown = func() { _ = ts.Close() }
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "vennload: listen:", err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: server.Handler(m)}
		go func() { _ = srv.Serve(ln) }()
		c = newHTTPClient("http://"+ln.Addr().String(), cfg)
		teardown = func() { _ = srv.Close() }
	}
	stopTick := startTicker(m)
	defer func() {
		stopTick()
		teardown()
	}()
	res := runLoad([]lane{{name: "daemon", c: c}}, cfg)
	if cfg.Shards > 0 {
		res.Shards = cfg.Shards
	} else if res.ServerMetrics != nil {
		res.Shards = res.ServerMetrics.Shards
	}
	if cfg.Transport == "stream" {
		res.StreamShards = max(cfg.StreamShards, 1)
	}
	return res
}

// runSelfHostedCluster spins cfg.ClusterNodes federated in-process daemons
// (stream transport, consistent-hash ownership over all members) and drives
// one agent lane per member — each lane's fleet slice lands on an arbitrary
// owner, so roughly (N-1)/N of all traffic exercises the forwarding path.
func runSelfHostedCluster(cfg loadConfig) runResult {
	defer pinGomaxprocs(cfg)()
	n := cfg.ClusterNodes
	if n < 2 {
		n = 2
		cfg.ClusterNodes = n
	}
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "vennload: listen:", err)
			os.Exit(1)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]selfHostedNode, n)
	lanes := make([]lane, n)
	for i := range nodes {
		m := server.NewManager(managerConfig(cfg))
		ts := transport.NewServer(m, transport.Options{})
		go func(ln net.Listener) { _ = ts.Serve(ln) }(lns[i])
		clu, err := cluster.New(m, cluster.Config{SelfID: addrs[i], Peers: addrs})
		if err != nil {
			fmt.Fprintln(os.Stderr, "vennload: cluster:", err)
			os.Exit(1)
		}
		stopTick := startTicker(m)
		nodes[i] = selfHostedNode{m: m, clu: clu, teardown: func() {
			stopTick()
			_ = clu.Close()
			_ = ts.Close()
			m.StopShadows()
		}}
		lanes[i] = lane{name: addrs[i], c: newStreamClient(addrs[i], cfg)}
	}
	defer func() {
		for _, nd := range nodes {
			nd.teardown()
		}
	}()
	res := runLoad(lanes, cfg)
	if cfg.Shards > 0 {
		res.Shards = cfg.Shards
	}
	return res
}

// lane is one load target: a named client (a single daemon, or one member
// of a federation) that a share of the workers drives.
type lane struct {
	name string
	c    apiClient
}

// laneStat is one lane's live counters, shared between its workers and (in
// demand-heavy mode) its demand feeder.
type laneStat struct {
	checkIns atomic.Int64
	assigns  atomic.Int64
	errs     atomic.Int64
}

// demandFeeder keeps one lane demand-heavy: every feedInterval it measures
// the lane's check-in rate and registers a one-round filler job sized so
// that roughly cfg.DemandFrac of check-ins keeps winning an assignment.
// Open demand is consumed greedily at the check-in rate, so the feeder
// tops outstanding demand up to exactly one interval's worth — more would
// overshoot the fraction, not smooth it. While any demand is open every
// check-in commits through the scheduler core, so the fraction governs
// assignment (and report) volume, not which path check-ins take. Filler
// jobs are not part of the scripted job set, so the end-of-run completion
// poll ignores them.
func demandFeeder(c apiClient, ls *laneStat, cfg loadConfig, li int, stop <-chan struct{}) {
	cat := cfg.Category
	if cat == "" {
		cat = "General"
	}
	t := time.NewTicker(feedInterval)
	defer t.Stop()
	var registered, prevCI int64
	seq := 0
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		ci := ls.checkIns.Load()
		dCI := ci - prevCI
		prevCI = ci
		want := int64(cfg.DemandFrac * float64(dCI))
		if want < 1 {
			want = 1
		}
		// Assignments against the scripted jobs inflate the lane's assign
		// counter by their (small, fixed) total demand; the resulting
		// under-count of outstanding feeder demand is a bounded constant
		// that the next top-up absorbs.
		outstanding := registered - ls.assigns.Load()
		if need := want - outstanding; need > 0 {
			if _, err := c.RegisterJob(server.JobSpec{
				Name:           fmt.Sprintf("feed-%d-%d", li, seq),
				Category:       cat,
				DemandPerRound: int(need),
				Rounds:         1,
			}); err != nil {
				continue // a register hiccup only delays the next top-up
			}
			registered += need
			seq++
		}
	}
}

// runLoad drives one load run through the given lanes. Workers are spread
// across lanes round-robin; each worker drives a disjoint slice of the
// fleet through its lane's client, so a device always checks in via the
// same member (its reports then chase its assignments to the same owner).
func runLoad(lanes []lane, cfg loadConfig) runResult {
	// Every lane needs at least one worker driving a non-empty fleet slice,
	// or an undriven member's jobs never complete and its forward counters
	// stay zero (which the CI federation gate would read as a broken
	// cluster). Workers beyond the agent count would get empty slices and
	// skip out, so bound conns by agents first; that makes agents >= lanes
	// a hard requirement.
	if cfg.Agents < len(lanes) {
		fmt.Fprintf(os.Stderr, "vennload: -agents %d is fewer than the %d federation members; every member needs at least one agent\n",
			cfg.Agents, len(lanes))
		os.Exit(2)
	}
	if cfg.Conns > cfg.Agents {
		cfg.Conns = cfg.Agents
	}
	if cfg.Conns < len(lanes) {
		cfg.Conns = len(lanes)
	}
	// Reachability probe; the stats reply also names the serving policy
	// (authoritative for live daemons, where cfg.Policy is unset).
	activePolicy := cfg.Policy
	for _, l := range lanes {
		st, err := l.c.Stats()
		if err != nil {
			fmt.Fprintf(os.Stderr, "vennload: daemon %s unreachable: %v\n", l.name, err)
			os.Exit(1)
		}
		if st.Policy != "" {
			activePolicy = st.Policy
		}
	}

	// Register the CL jobs — one set per lane, since federation members run
	// independent schedulers. Auto demand keeps total required responses
	// well under the fleet's one-task-per-day capacity so every job can
	// finish within the run.
	demand := cfg.Demand
	if demand <= 0 {
		demand = cfg.Agents / (4 * cfg.Jobs * cfg.Rounds * len(lanes))
		if cfg.DemandSpread {
			// Spread demands sum to demand*Jobs*(Jobs+1)/2; size that total
			// to about half the fleet so supply stays scarce enough for the
			// scheduling order to matter, yet every job can finish.
			demand = cfg.Agents / (cfg.Jobs * (cfg.Jobs + 1) * cfg.Rounds * len(lanes))
		}
		if demand < 1 {
			demand = 1
		}
	}
	// demandFor spreads per-job demand when requested: registration order
	// descends from Jobs*demand down to demand, so FIFO-style policies pay a
	// head-of-line price that demand-aware ones avoid.
	demandFor := func(i int) int {
		if cfg.DemandSpread {
			return demand * (cfg.Jobs - i)
		}
		return demand
	}
	categories := []string{"General", "General", "Compute-Rich", "Memory-Rich", "High-Perf"}
	if cfg.Category != "" {
		categories = []string{cfg.Category}
	}
	laneJobs := make([][]int, len(lanes))
	for li, l := range lanes {
		for i := 0; i < cfg.Jobs; i++ {
			st, err := l.c.RegisterJob(server.JobSpec{
				Name:           fmt.Sprintf("load-job-%d-%d", li, i),
				Category:       categories[i%len(categories)],
				DemandPerRound: demandFor(i),
				Rounds:         cfg.Rounds,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "vennload: register job:", err)
				os.Exit(1)
			}
			laneJobs[li] = append(laneJobs[li], st.ID)
		}
	}
	jobsTotal := cfg.Jobs * len(lanes)

	// Synthesize the fleet.
	rng := stats.NewRNG(cfg.Seed)
	type dev struct {
		id       string
		cpu, mem float64
	}
	fleet := make([]dev, cfg.Agents)
	for i := range fleet {
		fleet[i] = dev{
			id:  fmt.Sprintf("load-%06d", i),
			cpu: rng.Float64(),
			mem: rng.Float64(),
		}
	}

	// Ring-aware fleets converge on device→owner affinity: each lane's
	// workers drive the slice of the fleet that lane's member owns, so
	// batches arrive full-size at their owner instead of being split per
	// owner inside the client. Lane names are the members' stream addresses
	// (their default node IDs), so the same ring the daemons derive from
	// -peers is reproducible here. Misalignment is harmless — the
	// ring-aware client still partitions whatever it is handed — so a
	// daemon running custom -node-id or -vnodes only costs the affinity,
	// not correctness.
	var laneFleet [][]dev
	if cfg.Topology && len(lanes) > 1 {
		members := make([]string, len(lanes))
		laneIdx := make(map[string]int, len(lanes))
		for i, l := range lanes {
			members[i] = l.name
			laneIdx[l.name] = i
		}
		ring := cluster.NewRing(members, 0)
		byLane := make([][]dev, len(lanes))
		for _, d := range fleet {
			li := laneIdx[ring.Owner(d.id)]
			byLane[li] = append(byLane[li], d)
		}
		laneFleet = byLane
		for _, part := range byLane {
			if len(part) == 0 {
				// A member owning zero devices would go undriven; keep the
				// round-robin spread instead.
				laneFleet = nil
				break
			}
		}
	}

	var (
		checkIns    atomic.Int64
		assignments atomic.Int64
		reports     atomic.Int64
		errs        atomic.Int64
		laneStats   = make([]laneStat, len(lanes))

		latMu     sync.Mutex
		latencies []float64
		servedBy  = make(map[string]int64) // assignments by wire policy attribution
	)
	const maxLatSamplesPerWorker = 100_000

	var head strings.Builder
	fmt.Fprintf(&head, "run %q: %s transport, %d agents, %d conns, batch %d, %v",
		cfg.Mode, cfg.Transport, cfg.Agents, cfg.Conns, cfg.Batch, cfg.Duration)
	if len(lanes) > 1 {
		fmt.Fprintf(&head, ", %d federation members", len(lanes))
	}
	head.WriteByte('\n')
	printBlock(&head)

	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Conns; w++ {
		li := w % len(lanes)
		pool := fleet
		lo := w * len(fleet) / cfg.Conns
		hi := (w + 1) * len(fleet) / cfg.Conns
		if laneFleet != nil {
			// Affinity mode: split this lane's owned devices across the
			// workers driving this lane.
			pool = laneFleet[li]
			perLane := (cfg.Conns - li + len(lanes) - 1) / len(lanes)
			wi := w / len(lanes)
			lo = wi * len(pool) / perLane
			hi = (wi + 1) * len(pool) / perLane
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(c apiClient, ls *laneStat, mine []dev, taskRNG *stats.RNG) {
			defer wg.Done()
			local := make([]float64, 0, 4096)
			localServed := make(map[string]int64)
			record := func(d time.Duration) {
				if len(local) < maxLatSamplesPerWorker {
					local = append(local, float64(d)/float64(time.Millisecond))
				}
			}
			if cfg.Trickle {
				// A/B replay supply model: every device checks in exactly
				// once, paced so the worker's slice spreads evenly across
				// the run. Reports always succeed — failure noise would
				// differ between the arms of a replay.
				interval := cfg.Duration / time.Duration(len(mine))
				for _, d := range mine {
					t0 := time.Now()
					asg, err := c.CheckIn(server.CheckIn{DeviceID: d.id, CPU: d.cpu, Mem: d.mem})
					record(time.Since(t0))
					if err != nil {
						errs.Add(1)
						ls.errs.Add(1)
					} else {
						checkIns.Add(1)
						ls.checkIns.Add(1)
						if asg.Assigned {
							assignments.Add(1)
							ls.assigns.Add(1)
							localServed[asg.Policy]++
							if err := c.Report(server.Report{
								DeviceID:        d.id,
								JobID:           asg.JobID,
								OK:              true,
								DurationSeconds: 10 + 50*taskRNG.Float64(),
							}); err != nil {
								errs.Add(1)
								ls.errs.Add(1)
							} else {
								reports.Add(1)
							}
						}
					}
					if rest := interval - time.Since(t0); rest > 0 {
						time.Sleep(rest)
					}
				}
				latMu.Lock()
				latencies = append(latencies, local...)
				for p, n := range localServed {
					servedBy[p] += n
				}
				latMu.Unlock()
				return
			}
			// A batch larger than this worker's fleet slice would carry
			// duplicate devices whose reservations reject each other.
			batchSize := min(cfg.Batch, len(mine))
			next := 0
			pendingReports := make([]server.Report, 0, batchSize)
			for time.Now().Before(deadline) {
				if cfg.Batch > 1 {
					cis := make([]server.CheckIn, 0, batchSize)
					for len(cis) < batchSize {
						d := mine[next%len(mine)]
						next++
						cis = append(cis, server.CheckIn{DeviceID: d.id, CPU: d.cpu, Mem: d.mem})
					}
					t0 := time.Now()
					results, err := c.CheckInBatch(cis)
					record(time.Since(t0))
					if err != nil {
						errs.Add(1)
						ls.errs.Add(1)
						continue
					}
					pendingReports = pendingReports[:0]
					served := 0
					for i, res := range results {
						if res.Error != "" {
							// Per-item rejection (e.g. a still-busy
							// device): not a served check-in — counting
							// it would flatter the batched throughput.
							errs.Add(1)
							ls.errs.Add(1)
							continue
						}
						served++
						if !res.Assigned {
							continue
						}
						assignments.Add(1)
						ls.assigns.Add(1)
						localServed[res.Policy]++
						pendingReports = append(pendingReports, server.Report{
							DeviceID:        cis[i].DeviceID,
							JobID:           res.JobID,
							OK:              !taskRNG.Bool(0.05),
							DurationSeconds: 10 + 50*taskRNG.Float64(),
						})
					}
					checkIns.Add(int64(served))
					ls.checkIns.Add(int64(served))
					if len(pendingReports) > 0 {
						if _, err := c.ReportBatch(pendingReports); err != nil {
							errs.Add(1)
							ls.errs.Add(1)
						} else {
							reports.Add(int64(len(pendingReports)))
						}
					}
					continue
				}
				// Unbatched path: one request per check-in.
				d := mine[next%len(mine)]
				next++
				t0 := time.Now()
				asg, err := c.CheckIn(server.CheckIn{DeviceID: d.id, CPU: d.cpu, Mem: d.mem})
				record(time.Since(t0))
				if err != nil {
					errs.Add(1)
					ls.errs.Add(1)
					continue
				}
				checkIns.Add(1)
				ls.checkIns.Add(1)
				if !asg.Assigned {
					continue
				}
				assignments.Add(1)
				ls.assigns.Add(1)
				localServed[asg.Policy]++
				err = c.Report(server.Report{
					DeviceID:        d.id,
					JobID:           asg.JobID,
					OK:              !taskRNG.Bool(0.05),
					DurationSeconds: 10 + 50*taskRNG.Float64(),
				})
				if err != nil {
					errs.Add(1)
					ls.errs.Add(1)
				} else {
					reports.Add(1)
				}
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			for p, n := range localServed {
				servedBy[p] += n
			}
			latMu.Unlock()
		}(lanes[li].c, &laneStats[li], pool[lo:hi], rng.Fork())
	}
	// Demand-heavy mode: one feeder per lane keeps fresh job arrivals
	// flowing for as long as the workers run.
	feedStop := make(chan struct{})
	var feedWG sync.WaitGroup
	if cfg.DemandFrac > 0 {
		for li := range lanes {
			feedWG.Add(1)
			go func(li int) {
				defer feedWG.Done()
				demandFeeder(lanes[li].c, &laneStats[li], cfg, li, feedStop)
			}(li)
		}
	}
	wg.Wait()
	close(feedStop)
	feedWG.Wait()
	elapsed := time.Since(start)

	// Give in-flight rounds a moment to drain, then count completions and
	// collect per-job JCTs. Unfinished jobs are censored at the elapsed
	// wall-clock so a policy cannot flatter its average by stranding work.
	jobsDone := 0
	laneDone := make([]int, len(lanes))
	var jcts []float64
	for waited := time.Duration(0); waited < 3*time.Second; waited += 200 * time.Millisecond {
		jobsDone = 0
		jcts = jcts[:0]
		for li, l := range lanes {
			laneDone[li] = 0
			for _, id := range laneJobs[li] {
				st, err := l.c.JobStatus(id)
				if err != nil {
					continue
				}
				if st.State == "done" {
					laneDone[li]++
					jcts = append(jcts, st.JCTSeconds)
				} else {
					jcts = append(jcts, time.Since(start).Seconds())
				}
			}
			jobsDone += laneDone[li]
		}
		if jobsDone == jobsTotal {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}

	if n, ok := servedBy[""]; ok {
		// Assignments from daemons predating wire attribution.
		delete(servedBy, "")
		servedBy["(unattributed)"] = n
	}
	res := runResult{
		Mode:            cfg.Mode,
		Transport:       cfg.Transport,
		Policy:          activePolicy,
		DemandFrac:      cfg.DemandFrac,
		ServedByPolicy:  servedBy,
		Agents:          cfg.Agents,
		Conns:           cfg.Conns,
		Batch:           cfg.Batch,
		DurationSeconds: elapsed.Seconds(),
		CheckIns:        checkIns.Load(),
		CheckInsPerSec:  float64(checkIns.Load()) / elapsed.Seconds(),
		Assignments:     assignments.Load(),
		Reports:         reports.Load(),
		Errors:          errs.Load(),
		JobsTotal:       jobsTotal,
		JobsDone:        jobsDone,
	}
	if cfg.Transport == "stream" {
		res.StreamConns = cfg.streamPool()
	}
	res.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		res.RequestLatencyMs = percentiles{
			Mean: stats.Mean(latencies),
			P50:  stats.PercentileSorted(latencies, 50),
			P90:  stats.PercentileSorted(latencies, 90),
			P99:  stats.PercentileSorted(latencies, 99),
			Max:  latencies[len(latencies)-1],
		}
	}
	if len(jcts) > 0 {
		sort.Float64s(jcts)
		res.JCTAvgSeconds = stats.Mean(jcts)
		res.JCTP90Seconds = stats.PercentileSorted(jcts, 90)
		res.JCTJainFairness = jainIndex(jcts)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "  [%s] %d check-ins in %.2fs = %.0f/s; %d assigned, %d reported, %d errors, %d/%d jobs done (req p50 %.3fms p99 %.3fms)\n",
		cfg.Mode, res.CheckIns, res.DurationSeconds, res.CheckInsPerSec, res.Assignments,
		res.Reports, res.Errors, res.JobsDone, res.JobsTotal,
		res.RequestLatencyMs.P50, res.RequestLatencyMs.P99)
	if res.Policy != "" {
		fmt.Fprintf(&b, "  policy %s", res.Policy)
		if len(res.ServedByPolicy) > 0 {
			fmt.Fprintf(&b, "; served by policy:")
			for _, p := range sortedKeys(res.ServedByPolicy) {
				fmt.Fprintf(&b, " %s=%d", p, res.ServedByPolicy[p])
			}
		}
		if len(jcts) > 0 {
			fmt.Fprintf(&b, "; jct avg %.2fs p90 %.2fs jain %.3f", res.JCTAvgSeconds, res.JCTP90Seconds, res.JCTJainFairness)
		}
		b.WriteByte('\n')
	}

	if len(lanes) > 1 {
		// Per-member rows: lane-side throughput plus the member's own
		// federation counters from /v1/metrics.
		for li, l := range lanes {
			nr := nodeResult{
				Node:           l.name,
				CheckIns:       laneStats[li].checkIns.Load(),
				CheckInsPerSec: float64(laneStats[li].checkIns.Load()) / elapsed.Seconds(),
				Errors:         laneStats[li].errs.Load(),
				JobsDone:       laneDone[li],
			}
			// A member that died mid-run (chaos smoke) answers no metrics;
			// its lane still reports client-side counts with zeroed
			// federation counters.
			if mt, err := l.c.Metrics(); err == nil {
				nr.ForwardsIn = mt.ClusterForwardsIn
				nr.ForwardsOut = mt.ClusterForwardsOut
				nr.ForwardErrors = mt.ClusterForwardErrors
				nr.LocalFallbacks = mt.ClusterLocalFallbacks
				nr.PeersUp = mt.ClusterPeersUp
				nr.PeersDown = mt.ClusterPeersDown
				nr.DirectRoutedBatches = mt.DirectRoutedBatches
				nr.TopologyEpoch = mt.TopologyEpoch
				nr.TopologyPushes = mt.TopologyPushes
				nr.ForwardBytesIn = mt.ForwardBytesIn
				nr.ForwardBytesOut = mt.ForwardBytesOut
			}
			res.Nodes = append(res.Nodes, nr)
			fmt.Fprintf(&b, "    node %s: %.0f checkins/s, fwd out %d / in %d (errors %d, fallbacks %d), direct %d, topo epoch %d (%d pushes), fwd bytes out %d / in %d, %d jobs done\n",
				nr.Node, nr.CheckInsPerSec, nr.ForwardsOut, nr.ForwardsIn,
				nr.ForwardErrors, nr.LocalFallbacks, nr.DirectRoutedBatches,
				nr.TopologyEpoch, nr.TopologyPushes, nr.ForwardBytesOut, nr.ForwardBytesIn, nr.JobsDone)
		}
	} else if mt, err := lanes[0].c.Metrics(); err == nil {
		res.ServerMetrics = &mt
		res.Shards = mt.Shards
		if mt.PlanRebuilds+mt.PlanPatches > 0 {
			fmt.Fprintf(&b, "  plan: %d rebuilds, %d patches (incremental hit rate %.1f%%); %d/%d check-ins lock-free\n",
				mt.PlanRebuilds, mt.PlanPatches, 100*mt.PlanIncrementalHitRate,
				mt.LockFreeCheckIns, mt.CheckIns)
		}
		if mt.StreamFramesIn > 0 {
			fmt.Fprintf(&b, "  stream: %d conns, %d frames in, %d frames out; per-transport rates %v\n",
				mt.StreamConns, mt.StreamFramesIn, mt.StreamFramesOut, mt.CheckInsPerSecByTransport)
		}
		// Per-stage p99 of the dominant op's sampled spans (1 in
		// obs_sample_every requests), in canonical stage order.
		for _, op := range []string{"checkin_batch", "checkin"} {
			stages := mt.RequestStageNs[op]
			if len(stages) == 0 {
				continue
			}
			fmt.Fprintf(&b, "  stages (%s p99, 1/%d sampled):", op, mt.ObsSampleEvery)
			for _, st := range []string{"read", "decode", "queue_wait", "apply", "hop", "encode", "write"} {
				if s, ok := stages[st]; ok && s.Count > 0 {
					fmt.Fprintf(&b, " %s=%s", st, time.Duration(s.P99).Round(100*time.Nanosecond))
				}
			}
			b.WriteByte('\n')
			break
		}
	}
	printBlock(&b)
	return res
}
