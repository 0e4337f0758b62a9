// Command perfbench is the repository's benchmark. It runs one of three
// seeded workloads against the program's Go APIs, checks the outputs,
// and prints its metrics as one JSON object on the last line of standard
// output:
//
//	perfbench -workload ingest|serve|train -seed N -seconds S -trace 0|1
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// traced run reports the per-layer ones, including the overhead of the
// tracing itself. README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of each path sees. Every workload
// reports all of them; what "throughput" and "latency" count differs per
// workload (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
}

// perLayer are the traced run's metrics, one group per layer. Every
// workload reports all of them; a layer the workload does not reach
// reads 0.
var perLayer = []metricDef{
	{"seq2seq.predict_ms", "ms"},
	{"seq2seq.allocs_per_elem", "count"},
	{"seq2seq.bytes_per_elem", "B"},
	{"seq2seq.out_tokens_per_elem", "count"},
	{"seq2seq.queries_per_call", "count"},
	{"wasm.decode_ms", "ms"},
	{"dwarf.read_ms", "ms"},
	{"ingest.load_ms", "ms"},
	{"extract.input_us", "us"},
	{"bpe.encode_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.request_mean_ms", "ms"},
	{"server.elems_per_request", "count"},
	{"server.rejected", "count"},
	{"server.timeouts", "count"},
	{"server.batch_size_mean", "count"},
	{"server.batch_wait_mean_ms", "ms"},
	{"server.inference_mean_ms", "ms"},
	{"bench.client_wait_mean_ms", "ms"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"core.build_dataset_s", "s"},
	{"corpus.generate_s", "s"},
	{"cc.compile_s", "s"},
	{"extract.extract_s", "s"},
	{"dedup.dropped", "count"},
	{"core.train_param_s", "s"},
	{"core.train_return_s", "s"},
	{"seq2seq.train_shard_s", "s"},
	{"seq2seq.train_merge_s", "s"},
	{"seq2seq.train_allocs_per_batch", "count"},
	{"seq2seq.train_batches", "count"},
	{"seq2seq.train_tokens", "count"},
	{"seq2seq.train_epochs", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.peak_rss_mb", "MB"},
	{"bench.trace_overhead_pct", "%"},
}

// scale sizes every workload. full is what the benchmark runs; quick
// keeps the self-tests short.
type scale struct {
	modelPackages, modelEpochs int
	setupReps                  int
	// Floors on the reference model's held-out quality: top-1 on
	// DWARF-labelled elements and the mean token count of the top
	// prediction.
	minTop1, minTopTokens float64

	ingestBinaries int // binaries in the ingest directory
	allocBinaries  int // binaries in the traced run's allocation pass

	serveHot      int     // hot-set binaries, re-sent and warmed before timing
	serveHitShare float64 // share of requests drawn from the hot set
	serveRate     float64 // reference request rate
	serveSatMax   float64 // requests per second the saturation step prepares
	serveRefShare float64 // share of the measured time spent at the reference rate
	serveLimitMs  float64 // p99 limit a ladder rate must meet
	serveSample   int     // responses compared against an in-process decode

	trainPackages, trainEpochs int
}

var scales = map[string]scale{
	"full": {
		modelPackages: 30, modelEpochs: 2, setupReps: 3,
		minTop1: 0.25, minTopTokens: 2.0,
		ingestBinaries: 84, allocBinaries: 24,
		serveHot: 40, serveHitShare: 0.95, serveRate: 80, serveSatMax: 1000,
		serveRefShare: 2.0 / 3, serveLimitMs: 300, serveSample: 24,
		trainPackages: 30, trainEpochs: 1,
	},
	"quick": {
		modelPackages: 6, modelEpochs: 1, setupReps: 2,
		ingestBinaries: 6, allocBinaries: 2,
		serveHot: 4, serveHitShare: 0.8, serveRate: 20, serveSatMax: 2000,
		serveRefShare: 0.6, serveLimitMs: 2000, serveSample: 4,
		trainPackages: 4, trainEpochs: 1,
	},
}

// env is what every workload runs with.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	sc      scale
	workers int    // worker goroutines or connections: one per CPU
	model   string // reference model path
	workdir string // persists across runs: model cache, traces
	rundir  string // this run's scratch, removed at exit
}

// outcome is what a workload hands back for printing.
type outcome struct {
	attempted, failed int
	problems          []string // failed output checks
	metrics           map[string]float64
	unresolved        []string       // percentile metrics with too few samples beyond them
	detail            map[string]any // the workload's own metric names, per-step tables
	manifest          map[string]any
	tr                *tracer
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, detail: map[string]any{}}
}

// setPercentile records a percentile metric, or marks it unresolved.
func (o *outcome) setPercentile(name string, v float64, ok bool) {
	if ok {
		o.metrics[name] = v
	} else {
		o.unresolved = append(o.unresolved, name)
	}
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"ingest": runIngest,
	"serve":  runServe,
	"train":  runTrain,
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "ingest, serve or train")
	seed := flag.Int64("seed", 1, "workload input seed")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/perfbench.d", "directory for the model cache, traces and scratch files")
	flag.Parse()
	trainModelChild()
	out, err := measure(*workload, *seed, *seconds, *trace == 1, *workdir, "full")
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	line, ok, err := report(out, *trace == 1)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if !ok {
		os.Exit(1)
	}
}

// measure runs one workload and completes its outcome with the
// process-wide figures and, for a traced run, the written trace.
func measure(workload string, seed int64, seconds float64, traced bool, workdir, scaleName string) (*outcome, error) {
	fn, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want ingest, serve or train)", workload)
	}
	sc, ok := scales[scaleName]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", scaleName)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	rundir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(rundir)
	e := &env{seed: seed, seconds: seconds, trace: traced, sc: sc,
		workers: runtime.NumCPU(), workdir: workdir, rundir: rundir}
	if workload != "train" {
		if e.model, err = referenceModel(workdir, scaleName, sc); err != nil {
			return nil, err
		}
	}
	steal0, total0 := cpuSteal()
	out, err := fn(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	// CPU time the host took from this machine during the run: a run
	// with a large share measured a slower machine, not slower code.
	steal1, total1 := cpuSteal()
	out.detail["cpu_steal_pct"] = 100 * ratio(steal1-steal0, total1-total0)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.detail["peak_rss_mb"] = rss
	if traced {
		out.metrics["go.peak_rss_mb"] = rss
		out.zeroLayers()
	}
	if out.tr != nil {
		path := filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
		if err := out.tr.write(path); err != nil {
			return nil, err
		}
		out.detail["trace_file"] = path
	}
	out.manifest["workload"] = workload
	out.manifest["seed"] = seed
	out.manifest["workers"] = e.workers
	return out, nil
}

// report prints the manifest and the detailed report and returns the
// final JSON line and whether every output check passed.
func report(out *outcome, traced bool) (string, bool, error) {
	for _, extra := range []map[string]any{
		{"manifest": out.manifest},
		{"detail": out.detail},
	} {
		b, err := json.Marshal(extra)
		if err != nil {
			return "", false, err
		}
		fmt.Println(string(b))
	}
	for _, p := range out.problems {
		logf("check failed: %s", p)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return finalLine(out, defs)
}

// finalLine renders the result object. Every metric in defs must have
// been measured.
func finalLine(out *outcome, defs []metricDef) (string, bool, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]metric{}
	if len(out.unresolved) > 0 {
		return "", false, fmt.Errorf("percentiles %v are unresolved: too few samples beyond them", out.unresolved)
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return "", false, fmt.Errorf("metric %s was not measured", d.name)
		}
		ms[d.name] = metric{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range out.metrics {
		if _, ok := ms[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return "", false, fmt.Errorf("metrics %v are not defined", extra)
	}
	correct := len(out.problems) == 0
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.attempted, out.failed, ms})
	return string(b), correct, err
}

// procStats samples the Go runtime's GC counters.
type procStats struct {
	gcCycles uint32
	gcPause  uint64 // ns
	mallocs  uint64
	bytes    uint64
}

func readProc() procStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procStats{m.NumGC, m.PauseTotalNs, m.Mallocs, m.TotalAlloc}
}

// gcSince fills the go.* per-layer metrics with the GC work done since a.
func gcSince(metrics map[string]float64, a procStats) {
	b := readProc()
	metrics["go.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	metrics["go.gc_pause_ms"] = float64(b.gcPause-a.gcPause) / 1e6
}

// peakRSSMB returns the process's peak resident set size in MB, read
// from /proc/self/status (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// zeroLayers sets every per-layer metric the workload neither measured
// nor left unresolved to 0: the layer is not on this workload's path.
func (o *outcome) zeroLayers() {
	for _, d := range perLayer {
		if _, ok := o.metrics[d.name]; !ok && !slices.Contains(o.unresolved, d.name) {
			o.metrics[d.name] = 0
		}
	}
}

// cpuSteal returns the machine's cumulative steal time and total CPU
// time in clock ticks, from the first line of /proc/stat; zeros when it
// is unreadable.
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// fits reports whether one more repetition taking about next seconds
// ends within the measured time that began at start.
func fits(start time.Time, seconds, next float64) bool {
	return time.Since(start).Seconds()+next <= seconds
}

// timed runs f and returns its wall time in seconds.
func timed(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}
