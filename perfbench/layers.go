package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"venn/internal/core"
	"venn/internal/device"
	"venn/internal/eval"
	"venn/internal/hashring"
	"venn/internal/job"
	"venn/internal/server"
	"venn/internal/sim"
	"venn/internal/simtime"
	"venn/internal/stats"
	"venn/internal/tsdb"
)

// ledgerRow is one layer of a traced run's ledger: how many operations it
// served and its per-operation self and wait time (p50s, ns).
type ledgerRow struct {
	Layer  string  `json:"layer"`
	Count  int64   `json:"count"`
	SelfNs float64 `json:"self_ns"`
	WaitNs float64 `json:"wait_ns"`
	Source string  `json:"source"`
	// Apart marks a row measured on another topology (the federated
	// probe): shown, but not part of this end-to-end figure.
	Apart bool `json:"apart,omitempty"`
}

// ledger reconciles the layer self times with one end-to-end p50.
type ledger struct {
	Workload      string      `json:"workload"`
	Seed          int64       `json:"seed"`
	Host          hostStamp   `json:"host"`
	EndToEnd      string      `json:"end_to_end"`
	EndToEndNs    float64     `json:"end_to_end_ns"`
	Rows          []ledgerRow `json:"rows"`
	Coverage      float64     `json:"stage_coverage"`
	Unattributed  float64     `json:"unattributed_ns"`
	Remainder     string      `json:"unattributed_is"`
	TraceOverhead float64     `json:"trace_overhead"`
}

func (b *bench) emitLedger(l ledger) {
	var self, wait float64
	for _, r := range l.Rows {
		if !r.Apart {
			self += r.SelfNs
			wait += r.WaitNs
		}
	}
	l.Workload, l.Seed, l.Host = b.workload, b.seed, b.host
	l.Coverage = ratio(self, l.EndToEndNs)
	l.Unattributed = l.EndToEndNs - self - wait
	b.set("obs.stage_coverage", l.Coverage)
	b.set("obs.unattributed_ns", l.Unattributed)
	var sb strings.Builder
	fmt.Fprintf(&sb, "ledger %s seed=%d end-to-end %s p50=%.0fns\n", l.Workload, l.Seed, l.EndToEnd, l.EndToEndNs)
	fmt.Fprintf(&sb, "  %-10s %12s %12s %12s  %s\n", "layer", "count", "self_ns", "wait_ns", "source")
	for _, r := range l.Rows {
		fmt.Fprintf(&sb, "  %-10s %12d %12.0f %12.0f  %s\n", r.Layer, r.Count, r.SelfNs, r.WaitNs, r.Source)
	}
	fmt.Fprintf(&sb, "  stage coverage (sum of layer self p50 / end-to-end p50) = %.3f\n", l.Coverage)
	fmt.Fprintf(&sb, "  unattributed = %.0fns: %s\n", l.Unattributed, l.Remainder)
	fmt.Fprintf(&sb, "  trace overhead = %+.3f\n", l.TraceOverhead)
	fmt.Print(sb.String())
	data, _ := json.MarshalIndent(l, "", "  ")
	_ = os.WriteFile(fmt.Sprintf("%s/%s-seed%d-ledger.json", b.outDir, b.workload, b.seed), data, 0o644)
}

// stage returns the p50 (ns) of one daemon stage for one op, averaged over
// the daemons that report it.
func stage(ms []server.Metrics, op, st string) (p50 float64, count int64) {
	n := 0
	for _, m := range ms {
		if s, ok := m.RequestStageNs[op][st]; ok {
			p50 += s.P50
			count += s.Count
			n++
		}
	}
	if n > 0 {
		p50 /= float64(n)
	}
	return p50, count
}

// runServingTraced is the -trace 1 run of a serving workload: an untraced
// reference, then a daemon with every request spanned (-obs-sample 1)
// driven through the lo and hi slices with client spans kept in
// memory, followed by in-process replays of recorded traffic into each
// layer's public functions.
func runServingTraced(b *bench, cfg servingCfg, fl *fleet) error {
	ref, _, err := startInstance(b, cfg, fl, 0, false, cfg.name+"-untraced")
	if err != nil {
		return err
	}
	_, refHi := ref.g.interleave(secs(b, 0.1), secs(b, 0.15), false, nil)
	if !ref.g.drain() {
		b.fail("untraced reference: requests still outstanding 15s after the schedule ended")
	}
	ref.stop(b)

	inst, _, err := startInstance(b, cfg, fl, 1, true, cfg.name+"-traced")
	if err != nil {
		return err
	}
	g := inst.g
	sent0, refused0 := g.out.ciSent.Load(), g.out.ciRefused.Load()
	ms0, err := g.metrics()
	if err != nil {
		inst.stop(b)
		return err
	}
	var frames0 int64
	for _, m := range ms0 {
		frames0 += m.HandlerLatencyMs["checkin_batch"].Count
	}
	_, applies0 := stage(ms0, "checkin_batch", "apply")
	lo, hi := g.interleave(secs(b, 0.2), secs(b, 0.3), false, nil)
	if !g.drain() {
		b.fail("requests still outstanding 15s after the schedule ended")
	}
	g.account(b)
	g.checkGenerator(b, lo, hi)
	ms, err := g.metrics()
	if err != nil {
		inst.stop(b)
		return err
	}
	inst.stop(b)
	b.attempted, b.failed = g.out.total()

	if err := b.writeJSONL(fmt.Sprintf("%s-seed%d-spans.jsonl", b.workload, b.seed), func(enc *json.Encoder) error {
		for _, s := range g.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// Daemon-side stages and counters.
	var lockFree, admitted, combined, rebuilds, patches, frames int64
	var opsPerRound float64
	for _, m := range ms {
		lockFree += m.LockFreeCheckIns
		admitted += m.CheckIns
		combined += m.CoreCombinedOps
		opsPerRound += m.CoreOpsPerRound / float64(len(ms))
		rebuilds += m.PlanRebuilds
		patches += m.PlanPatches
		frames += m.HandlerLatencyMs["checkin_batch"].Count
	}
	read, _ := stage(ms, "checkin_batch", "read")
	dec, _ := stage(ms, "checkin_batch", "decode")
	enc, _ := stage(ms, "checkin_batch", "encode")
	wr, _ := stage(ms, "checkin_batch", "write")
	qwait, _ := stage(ms, "checkin_batch", "queue_wait")
	apply, applies := stage(ms, "checkin_batch", "apply")
	handler := 0.0
	for _, m := range ms {
		handler += m.HandlerLatencyMs["checkin_batch"].P50 * 1e6 / float64(len(ms))
	}
	// Phase traffic only: the warm-up sends larger batches.
	itemsPerFrame := ratio(float64(g.out.ciSent.Load()-sent0), float64(frames-frames0))

	callP50 := nsQuantile(hi.call, 0.5)
	b.set("client.call_ns.p50", callP50)
	b.set("client.call_ns.p99", nsQuantile(hi.call, 0.99))
	b.set("client.self_ns", callP50-handler)
	b.set("transport.read_ns", read)
	b.set("transport.decode_ns", dec)
	b.set("transport.encode_ns", enc)
	b.set("transport.write_ns", wr)
	b.set("transport.items_per_frame", itemsPerFrame)
	b.set("server.lock_free_frac", ratio(float64(lockFree), float64(admitted)))
	b.set("server.refused_frac", ratio(float64(g.out.ciRefused.Load()-refused0), float64(g.out.ciSent.Load()-sent0)))
	b.set("server.queue_wait_ns", qwait)
	b.set("server.apply_ns", apply)
	b.set("server.core_ops_per_round", opsPerRound)
	b.set("server.core_combined_ops", float64(combined))
	b.set("core.plan_rebuilds", float64(rebuilds))
	b.set("core.plan_patches", float64(patches))
	b.set("core.plan_hit_rate", ratio(float64(patches), float64(rebuilds+patches)))
	b.set("gen.lateness_p99_ns", nsQuantile(hi.late, 0.99))
	b.set("gen.conns", float64(g.conns()))
	b.set("gen.threads", float64(b.host.LoaderGOMAXPROCS))
	overhead := ratio(hi.quantile(0.5, false), refHi.quantile(0.5, false)) - 1
	b.set("obs.trace_overhead", overhead)

	rp := replayLayers(b, cfg, g.rec)
	if err := b.simLayers(3); err != nil {
		return err
	}
	hop, hops, err := clusterLayer(b, cfg, fl)
	if err != nil {
		return err
	}

	// Per batch, the core costs an apply on the batches that needed one and
	// a snapshot probe per item.
	coreSelf := apply*ratio(float64(applies-applies0), float64(frames-frames0)) + rp.probeNs*itemsPerFrame
	b.emitLedger(ledger{
		EndToEnd:   "client CheckInBatch call at the hi rate",
		EndToEndNs: callP50,
		Rows: []ledgerRow{
			{"client", int64(len(hi.call)), rp.encodeNs + rp.decodeNs, 0, "AppendBinary + UnmarshalBinary replay", false},
			{"transport", frames - frames0, read + dec + enc + wr, 0, "daemon read+decode+encode+write stage p50", false},
			{"server", frames - frames0, max(0, rp.checkInNs-coreSelf), qwait, "Manager.CheckInBatch replay minus core; queue_wait stage", false},
			{"core", applies - applies0, coreSelf, 0, "daemon apply stage p50 x applies/frame + probe replay x items/frame", false},
			{"cluster", hops, 0, hop, "federated probe: daemon hop stage p50 (origin side); not in the sums", true},
		},
		Remainder: "loopback socket and kernel time, goroutine wake-ups on both sides, " +
			"and the client pool's per-connection write lock: no stage covers them",
		TraceOverhead: overhead,
	})
	return nil
}

// clusterLayer measures the cluster layer on workloads that probe it
// (cfg.clusterProbe): the same traffic, traced, against two federated
// daemons through seed-only clients, so about half of all items cross the
// forward relay. Elsewhere the cluster metrics are 0. It returns the hop
// stage p50 and count for the ledger.
func clusterLayer(b *bench, cfg servingCfg, fl *fleet) (hopNs float64, hops int64, err error) {
	names := []string{"cluster.forward_frac", "cluster.hop_ns", "cluster.forward_bytes_per_item", "cluster.forward_errors"}
	for _, n := range names {
		b.set(n, 0)
	}
	if !cfg.clusterProbe {
		return 0, 0, nil
	}
	fed := cfg
	fed.daemons = 2
	inst, _, err := startInstance(b, fed, fl, 1, true, cfg.name+"-federated")
	if err != nil {
		return 0, 0, err
	}
	g := inst.g
	g.interleave(secs(b, 0.08), secs(b, 0.12), false, nil)
	if !g.drain() {
		b.fail("federated probe: requests still outstanding 15s after the schedule ended")
	}
	g.account(b)
	ms, err := g.metrics()
	var addrs []string
	for _, p := range inst.procs {
		addrs = append(addrs, p.streamAddr)
	}
	inst.stop(b)
	if err != nil {
		return 0, 0, err
	}
	attempted, failed := g.out.total()
	b.attempted += attempted
	b.failed += failed
	var fwdErrs, fwdBytes int64
	for _, m := range ms {
		fwdErrs += m.ClusterForwardErrors
		fwdBytes += m.ForwardBytesOut
	}
	hopNs, hops = stage(ms, "checkin_batch", "hop")
	frac, items := forwardedShare(g, addrs)
	b.set("cluster.forward_frac", frac)
	b.set("cluster.hop_ns", hopNs)
	b.set("cluster.forward_bytes_per_item", ratio(float64(fwdBytes), items))
	b.set("cluster.forward_errors", float64(fwdErrs))
	return hopNs, hops, nil
}

// forwardedShare computes, with the ring the daemons route by, the share of
// recorded check-in items that were sent to a non-owning daemon, and from
// it the number of items (check-ins and reports) forwarded overall.
func forwardedShare(g *loadGen, addrs []string) (frac, items float64) {
	ring := hashring.New(addrs, hashring.DefaultVNodes)
	var sent, fwd float64
	for k, cis := range g.rec.checkIns {
		via := addrs[g.rec.via[k]]
		for _, ci := range cis {
			sent++
			if ring.Owner(ci.DeviceID) != via {
				fwd++
			}
		}
	}
	frac = ratio(fwd, sent)
	return frac, frac * float64(g.out.ciSent.Load()+g.out.repSent.Load())
}

// replayed holds per-operation costs of the in-process replays.
type replayed struct {
	encodeNs, decodeNs, checkInNs, reportNs, probeNs float64
}

// replayLayers times the recorded batches through each layer's public
// functions: the client codecs, a fresh in-process Manager, and the plan
// snapshot probe.
func replayLayers(b *bench, cfg servingCfg, rec recorded) replayed {
	var rp replayed
	if len(rec.checkIns) == 0 {
		b.fail("traced run recorded no check-in batches")
		return rp
	}
	// Client codecs.
	var encs, decs []float64
	var buf []byte
	for rep := 0; rep < 5; rep++ {
		for k, cis := range rec.checkIns {
			req := server.CheckInBatchRequest{CheckIns: cis}
			t0 := time.Now()
			buf, _ = req.AppendBinary(buf[:0])
			encs = append(encs, float64(time.Since(t0)))
			resp := server.CheckInBatchResponse{Results: rec.results[k]}
			wire, _ := resp.AppendBinary(nil)
			var got server.CheckInBatchResponse
			t0 = time.Now()
			err := got.UnmarshalBinary(wire)
			decs = append(decs, float64(time.Since(t0)))
			if err != nil || len(got.Results) != len(cis) {
				b.fail("client decode replay: %v", err)
				return rp
			}
		}
	}
	rp.encodeNs, rp.decodeNs = median(encs), median(decs)
	b.set("client.encode_ns", rp.encodeNs)
	b.set("client.decode_ns", rp.decodeNs)

	// Server: a fresh Manager warmed with the recorded devices, the job
	// script replayed at the hi rate's jobs-per-batch, every assignment
	// reported back.
	m := server.NewManager(server.Config{Seed: b.seed, DisableDailyBudget: !cfg.dailyBudget, ObsSampleEvery: -1})
	defer m.StopShadows()
	for _, cis := range rec.checkIns {
		m.CheckInBatch(cis)
	}
	cats := device.Categories()
	jobSeq := 0
	addJob := func() {
		_, _ = m.RegisterJob(server.JobSpec{Category: cats[jobSeq%len(cats)].Name, DemandPerRound: cfg.jobDemand, Rounds: cfg.jobRounds})
		jobSeq++
	}
	for i := 0; i < cfg.initialJobs; i++ {
		addJob()
	}
	jobsPerBatch := cfg.jobRateAt(cfg.hiRate) / (cfg.hiRate / float64(cfg.batch))
	var ciNs, repNs []float64
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	credit := 0.0
	for rep := 0; rep < 3; rep++ {
		for _, cis := range rec.checkIns {
			if credit += jobsPerBatch; credit >= 1 {
				addJob()
				credit--
			}
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			res := m.CheckInBatch(cis)
			ciNs = append(ciNs, float64(time.Since(t0)))
			runtime.ReadMemStats(&ms1)
			mallocs += ms1.Mallocs - ms0.Mallocs
			var rs []server.Report
			for k, r := range res {
				if r.Assigned {
					rs = append(rs, server.Report{DeviceID: cis[k].DeviceID, JobID: r.JobID, OK: true, DurationSeconds: 0.02})
				}
			}
			if len(rs) > 0 {
				t0 = time.Now()
				m.ReportBatch(rs)
				repNs = append(repNs, float64(time.Since(t0)))
			}
		}
	}
	rp.checkInNs = median(ciNs)
	rp.reportNs = median(repNs)
	b.set("server.checkin_batch_ns", rp.checkInNs)
	b.set("server.checkin_batch_allocs", float64(mallocs)/float64(len(ciNs)))
	b.set("server.report_batch_ns", rp.reportNs)

	// Core: the plan snapshot probe against the workload's job mix.
	rp.probeNs = probeReplay(b.seed, cfg, rec)
	b.set("core.probe_ns", rp.probeNs)
	return rp
}

// probeHits keeps the replayed probes' answers observable, so the compiler
// cannot drop the calls being timed.
var probeHits int

// probeReplay builds a Venn core with one open job per stratum (the
// workload's demand), publishes its plan, and times HasCandidate over the
// recorded devices.
func probeReplay(seed int64, cfg servingCfg, rec recorded) float64 {
	grid := device.NewGrid(device.Categories())
	env := &sim.Env{
		Grid:          grid,
		DB:            tsdb.New(grid.NumCells(), 24*simtime.Hour, simtime.Hour),
		CellPriorRate: make([]float64, grid.NumCells()),
		Jobs:          map[job.ID]*job.Job{},
		RNG:           stats.NewRNG(seed),
	}
	v := core.NewDefault()
	v.Bind(env)
	now := simtime.Time(0)
	for i, req := range device.Categories() {
		j := job.New(job.ID(i), req, cfg.jobDemand, cfg.jobRounds, now)
		env.Jobs[j.ID] = j
		j.Start(now)
		v.OnJobArrival(j, now)
		v.OnRequest(j, now)
	}
	v.RefreshPlan(now)
	snap := v.PlanSnapshot()
	var devs []*device.Device
	var cells []device.CellID
	for _, cis := range rec.checkIns {
		for _, ci := range cis {
			d := device.New(device.ID(len(devs)), ci.CPU, ci.Mem)
			devs = append(devs, d)
			cells = append(cells, grid.CellOfDevice(d))
		}
	}
	var per []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i, d := range devs {
			if snap.HasCandidate(d, cells[i], now) {
				probeHits++
			}
		}
		per = append(per, float64(time.Since(t0))/float64(len(devs)))
	}
	return median(per)
}

// simLayers runs n quick-scale sims twice, untraced and traced, and sets
// the core and sim layer metrics from the traced runs.
func (b *bench) simLayers(n int) error {
	_, traced, err := b.simPairs(eval.ScaleQuick, n)
	if err != nil {
		return err
	}
	b.setSimLayers(traced)
	return nil
}
