// Command perfbench is the repository benchmark. It drives the real
// venndaemon binary in its own process over loopback with an open-loop load
// generator, and runs the paper's trace-driven simulation in-process. One
// run measures one workload for one seed and prints, as its last line, one
// JSON object with the end-to-end metrics (or, with -trace 1, the per-layer
// metrics). See README.md in this directory.
//
//	bash perfbench/run.sh --workload surplus --seed 1 --seconds 36 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one reported metric's name and unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json (at the checkout root) the benchmark
// reads: the metrics each kind of run must print, with their units.
type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// bench is one invocation's context and its accumulating result.
type bench struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	daemonBin string
	outDir    string

	attempted, failed int64
	problems          []string
	values            map[string]float64
	host              hostStamp
	perLayer          []metricDef
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

type workloadFunc func(b *bench) error

var workloads = map[string]workloadFunc{
	"surplus":    func(b *bench) error { return runServing(b, surplusCfg) },
	"contended":  func(b *bench) error { return runServing(b, contendedCfg) },
	"sim-replay": runSimReplay,
}

func main() { os.Exit(run()) }

// run executes one measurement and returns the process exit code.
func run() int {
	var b bench
	flag.StringVar(&b.workload, "workload", "", "workload: surplus, contended, sim-replay")
	flag.Int64Var(&b.seed, "seed", 1, "workload seed: every input derives from it")
	flag.IntVar(&b.seconds, "seconds", 16, "measurement time budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&b.daemonBin, "daemon", "", "venndaemon binary")
	flag.StringVar(&b.outDir, "out", ".bench_build/runs", "directory for daemon logs and span files")
	flag.Parse()
	b.trace = *traceFlag == 1
	fn, ok := workloads[b.workload]
	if !ok || b.seconds < 1 || b.daemonBin == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -daemon\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.perLayer = sp.PerLayer
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// The open-loop dispatcher runs on the main goroutine, locked to its own
	// tuned thread; a second P serves sockets meanwhile.
	runtime.LockOSThread()
	tuneDispatcherThread()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	b.values = map[string]float64{}
	b.host = stampHost()
	hj, _ := json.Marshal(b.host)
	fmt.Printf("host %s\n", hj)
	if err := fn(&b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := sp.EndToEnd
	if b.trace {
		defs = sp.PerLayer
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]map[string]any{}}
	for _, d := range defs {
		v, ok := b.values[d.Name]
		if !ok {
			b.fail("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	if out.Attempted < 1 {
		b.fail("no operation attempted")
	}
	// Anything else the run measured is printed, not reported.
	also := map[string]float64{}
	for name, v := range b.values {
		if _, ok := out.Metrics[name]; !ok {
			also[name] = v
		}
	}
	if len(also) > 0 {
		aj, _ := json.Marshal(also)
		fmt.Printf("unbounded %s\n", aj)
	}
	out.Correct = len(b.problems) == 0
	for _, p := range b.problems {
		fmt.Println("FAIL", p)
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hostStamp names the host class every number was measured on.
type hostStamp struct {
	NProc            int    `json:"nproc"`
	LoaderGOMAXPROCS int    `json:"loader_gomaxprocs"`
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs"`
	GoVersion        string `json:"go_version"`
	CPUModel         string `json:"cpu_model"`
	Kernel           string `json:"kernel"`
}

func stampHost() hostStamp {
	h := hostStamp{
		NProc:            runtime.NumCPU(),
		LoaderGOMAXPROCS: runtime.GOMAXPROCS(0),
		DaemonGOMAXPROCS: 1,
		GoVersion:        runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	return h
}

// writeJSONL writes one JSON value per line to outDir/name.
func (b *bench) writeJSONL(name string, rows func(enc *json.Encoder) error) error {
	f, err := os.Create(filepath.Join(b.outDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return rows(json.NewEncoder(f))
}
