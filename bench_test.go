// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation (Section 6). Each benchmark prints the same rows
// or series the paper reports; EXPERIMENTS.md records paper-vs-measured.
//
// Heavy benchmarks (model training for Table 5) run once per invocation;
// scale with SNOWWHITE_BENCH_PACKAGES and SNOWWHITE_BENCH_EPOCHS.
package repro

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dedup"
	"repro/internal/extract"
	"repro/internal/seq2seq"
	"repro/internal/server"
	"repro/internal/typelang"
	"repro/internal/wasm"
)

// benchConfig returns the benchmark-scale pipeline configuration.
func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Corpus.Packages = envInt("SNOWWHITE_BENCH_PACKAGES", 140)
	cfg.Model.Epochs = envInt("SNOWWHITE_BENCH_EPOCHS", 6)
	// A larger-than-paper test fraction keeps the small test set
	// statistically meaningful at reproduction scale.
	cfg.Split.Valid, cfg.Split.Test = 0.06, 0.08
	return cfg
}

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

var bench struct {
	once    sync.Once
	dataset *core.Dataset
	err     error

	taskMu  sync.Mutex
	results map[string]*core.TaskResult
	trained map[string]*core.Trained
}

func benchDataset(b *testing.B) *core.Dataset {
	b.Helper()
	bench.once.Do(func() {
		bench.results = map[string]*core.TaskResult{}
		bench.trained = map[string]*core.Trained{}
		bench.dataset, bench.err = core.BuildDataset(benchConfig(), nil)
	})
	if bench.err != nil {
		b.Fatal(bench.err)
	}
	return bench.dataset
}

// benchTask trains (once per process) and returns a task's results.
func benchTask(b *testing.B, task core.Task) (*core.TaskResult, *core.Trained) {
	d := benchDataset(b)
	bench.taskMu.Lock()
	defer bench.taskMu.Unlock()
	key := task.Name()
	if r, ok := bench.results[key]; ok {
		return r, bench.trained[key]
	}
	res, tr := d.RunTask(task, nil)
	bench.results[key] = res
	bench.trained[key] = tr
	return res, tr
}

// BenchmarkTable1FeatureMatrix regenerates Table 1: the type-language
// feature comparison.
func BenchmarkTable1FeatureMatrix(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = core.Table1()
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkTable2MostCommonTypes regenerates Table 2: the ten most common
// types of the dataset expressed in L_SW.
func BenchmarkTable2MostCommonTypes(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = d.Table2(10)
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkTable3MostCommonNames regenerates Table 3: the most common
// extracted type names by package share.
func BenchmarkTable3MostCommonNames(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = d.Table3(8)
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkTable4TypeDistributions regenerates Table 4: |L|, normalized
// entropy, and most frequent parameter/return type per language variant.
func BenchmarkTable4TypeDistributions(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	var rows []core.Table4Row
	for i := 0; i < b.N; i++ {
		rows = d.Table4()
	}
	b.StopTimer()
	fmt.Println(core.FormatTable4(rows))
}

// BenchmarkTable5ModelAccuracy regenerates Table 5: top-1/top-5/TPS of the
// seq2seq model vs the conditional-probability baseline across all five
// language tasks for parameter and return prediction. This is the heavy
// benchmark: it trains ten models.
func BenchmarkTable5ModelAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var results []*core.TaskResult
		for _, task := range core.Table5Tasks() {
			res, _ := benchTask(b, task)
			results = append(results, res)
		}
		if i == b.N-1 {
			b.StopTimer()
			fmt.Println(core.FormatTable5(results))
			b.StartTimer()
		}
	}
}

// BenchmarkFigure4AccuracyByDepth regenerates Figure 4: L_SW prediction
// accuracy bucketed by type nesting depth, for parameters and returns.
func BenchmarkFigure4AccuracyByDepth(b *testing.B) {
	var param, ret *core.TaskResult
	for i := 0; i < b.N; i++ {
		param, _ = benchTask(b, core.Task{Variant: typelang.VariantLSW})
		ret, _ = benchTask(b, core.Task{Variant: typelang.VariantLSW, Return: true})
	}
	b.StopTimer()
	fmt.Println(core.FormatFigure4(param, ret))
}

// BenchmarkSection5DatasetStats regenerates the dataset statistics of
// Section 5: dedup reduction, sample counts, and the package split.
func BenchmarkSection5DatasetStats(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = d.Section5Stats()
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkPredictionLatency measures per-sample beam-search inference
// time (paper Section 6.1: 3–40 ms per input sample, including beam
// search).
func BenchmarkPredictionLatency(b *testing.B) {
	_, tr := benchTask(b, core.Task{Variant: typelang.VariantLSW})
	src := []string{"i32", "<begin>", "local.get", "<param>", ";", "f64.load", "offset=8", ";", "drop", ";", "return"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Predict(src, 5)
	}
}

// BenchmarkServerPredict measures the serving subsystem's end-to-end
// request latency over HTTP — beam-search inference on a cold cache vs the
// LRU fast path on repeated identical functions (the case the paper's
// dedup analysis shows dominates real object-file corpora).
func BenchmarkServerPredict(b *testing.B) {
	_, param := benchTask(b, core.Task{Variant: typelang.VariantLSW})
	_, ret := benchTask(b, core.Task{Variant: typelang.VariantLSW, Return: true})
	pred := &core.Predictor{Param: param, Return: ret, Opts: benchConfig().Extract}

	obj, err := cc.Compile(`
double first(double *xs, int n) {
	if (xs != NULL && n > 0) { return xs[0]; }
	return 0.0;
}
`, cc.Options{Debug: true})
	if err != nil {
		b.Fatal(err)
	}
	bin, _, err := wasm.Encode(obj.Module)
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, cacheSize int, prime bool) {
		s, err := server.New(pred, server.Config{CacheSize: cacheSize})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		do := func() {
			resp, err := http.Post(ts.URL+"/v1/predict?func=first", "application/wasm", bytes.NewReader(bin))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		if prime {
			do()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			do()
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b, -1, false) })
	b.Run("cached", func(b *testing.B) { run(b, 4096, true) })
}

// BenchmarkServerPredictConcurrent measures the serving subsystem under
// concurrent load with the cache off, so every request decodes. Each
// request decodes its misses in one batched call per task model; the
// reported batch-mean metric is the mean number of queries per decode
// call, read back from /metrics.
func BenchmarkServerPredictConcurrent(b *testing.B) {
	_, param := benchTask(b, core.Task{Variant: typelang.VariantLSW})
	_, ret := benchTask(b, core.Task{Variant: typelang.VariantLSW, Return: true})
	pred := &core.Predictor{Param: param, Return: ret, Opts: benchConfig().Extract}

	obj, err := cc.Compile(`
double first(double *xs, int n) {
	if (xs != NULL && n > 0) { return xs[0]; }
	return 0.0;
}
`, cc.Options{Debug: true})
	if err != nil {
		b.Fatal(err)
	}
	bin, _, err := wasm.Encode(obj.Module)
	if err != nil {
		b.Fatal(err)
	}

	s, err := server.New(pred, server.Config{Workers: 16, CacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(ts.URL+"/v1/predict", "application/wasm", bytes.NewReader(bin))
			if err != nil {
				b.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
	b.StopTimer()
	if sum, count := scrapeMetric(b, ts.URL, "snowwhite_batch_size_sum"), scrapeMetric(b, ts.URL, "snowwhite_batch_size_count"); count > 0 {
		b.ReportMetric(sum/count, "batch-mean")
	}
}

// scrapeMetric reads one un-labeled metric value off the /metrics
// endpoint.
func scrapeMetric(b *testing.B, baseURL, name string) float64 {
	b.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				b.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	b.Fatalf("metric %s not found", name)
	return 0
}

// BenchmarkBuildDataset measures the parallel dataset pipeline
// (generate → compile → dedup → extract) at 1, 2, and NumCPU workers.
// EXPERIMENTS.md records the measured speedup; the outputs are
// byte-identical at every width (TestPipelineDeterminism), so this
// benchmark is purely about wall clock. Scale the corpus with
// SNOWWHITE_BENCH_PIPELINE_PACKAGES.
func BenchmarkBuildDataset(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Corpus.Packages = envInt("SNOWWHITE_BENCH_PIPELINE_PACKAGES", 60)
	widths := []int{1, 2, runtime.NumCPU(), 4}
	seen := map[int]bool{}
	for _, j := range widths {
		if seen[j] {
			continue
		}
		seen[j] = true
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			c := cfg
			c.Parallelism = j
			var d *core.Dataset
			for i := 0; i < b.N; i++ {
				var err error
				d, err = core.BuildDataset(c, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(d.Samples)), "samples")
		})
	}
}

// BenchmarkAblationWindowSize compares extraction with different window
// sizes (DESIGN.md ablation): smaller windows shrink inputs but may cut
// off type-revealing instructions.
func BenchmarkAblationWindowSize(b *testing.B) {
	pkgs := corpus.Generate(corpus.Options{
		Seed: 3, Packages: 10, MinFiles: 1, MaxFiles: 2, MinFuncs: 4, MaxFuncs: 8,
	})
	var bins [][]byte
	for _, p := range pkgs {
		for _, f := range p.Files {
			obj, err := cc.Compile(f.Source, cc.Options{FileName: f.Name, Debug: true})
			if err != nil {
				b.Fatal(err)
			}
			bins = append(bins, obj.Binary)
		}
	}
	for _, w := range []int{7, 21, 41} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			opts := extract.Options{WindowSize: w}
			total, n := 0, 0
			for i := 0; i < b.N; i++ {
				total, n = 0, 0
				for bi, bin := range bins {
					samples, err := extract.FromBinary("p", fmt.Sprint(bi), bin, opts)
					if err != nil {
						b.Fatal(err)
					}
					for _, s := range samples {
						total += len(s.Input)
						n++
					}
				}
			}
			b.ReportMetric(float64(total)/float64(n), "tokens/sample")
		})
	}
}

// BenchmarkAblationDedup compares binary-level (paper) vs exact-only
// deduplication on a duplication-heavy corpus.
func BenchmarkAblationDedup(b *testing.B) {
	pkgs := corpus.Generate(corpus.Options{
		Seed: 4, Packages: 30, MinFiles: 1, MaxFiles: 2, MinFuncs: 3, MaxFuncs: 6,
		LibraryShare: 0.9, ExactDupShare: 0.4,
	})
	var bins []dedup.Binary
	for _, p := range pkgs {
		for _, f := range p.Files {
			obj, err := cc.Compile(f.Source, cc.Options{FileName: f.Name, Debug: true})
			if err != nil {
				b.Fatal(err)
			}
			bins = append(bins, dedup.Binary{Pkg: p.Name, Name: f.Name, Data: obj.Binary})
		}
	}
	for _, level := range []struct {
		name string
		lv   dedup.Level
	}{{"binary", dedup.LevelBinary}, {"exact", dedup.LevelExact}} {
		b.Run(level.name, func(b *testing.B) {
			var stats dedup.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, stats, err = dedup.Dedup(bins, level.lv)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.BinariesAfter), "binaries-kept")
			b.ReportMetric(float64(stats.ExactDuplicates+stats.NearDuplicates), "dupes-removed")
		})
	}
}

// BenchmarkTrainingThroughput measures raw training speed (samples/sec) of
// the seq2seq substrate, independent of the pipeline.
func BenchmarkTrainingThroughput(b *testing.B) {
	cfg := seq2seq.DefaultConfig()
	cfg.Hidden, cfg.Embed, cfg.Epochs = 32, 24, 1
	var pairs []seq2seq.Pair
	for i := 0; i < 64; i++ {
		pairs = append(pairs, seq2seq.Pair{
			Src: []string{"i32", "<begin>", "local.get", "<param>", ";", "f64.load"},
			Tgt: []string{"pointer", "primitive", "float", "64"},
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq2seq.Train(cfg, pairs, nil, nil)
	}
	b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "samples/sec")
}

// BenchmarkAblationEncoder compares the paper's BiLSTM encoder against the
// Transformer alternative it explored (Section 4.2: "we also explored
// Transformers, but did not find it improving accuracy, so we select the
// computationally much cheaper LSTM model").
func BenchmarkAblationEncoder(b *testing.B) {
	d := benchDataset(b)
	for _, enc := range []struct{ name, kind string }{
		{"bilstm", seq2seq.EncoderBiLSTM},
		{"transformer", seq2seq.EncoderTransformer},
	} {
		b.Run(enc.name, func(b *testing.B) {
			var top1 float64
			for i := 0; i < b.N; i++ {
				cfgCopy := *d
				cfgCopy.Cfg.Model.Encoder = enc.kind
				// Self-attention is O(T^2): shorten inputs and epochs so
				// the comparison finishes in minutes on one CPU.
				cfgCopy.Cfg.Model.MaxSrcLen = 60
				cfgCopy.Cfg.Model.Epochs = 3
				res, _ := cfgCopy.RunTask(core.Task{Variant: typelang.VariantLSW}, nil)
				top1 = res.Model.Top1()
			}
			b.ReportMetric(top1*100, "top1-%")
		})
	}
}

// BenchmarkEvalThroughput measures whole-task test-set evaluation at
// increasing worker counts (the -j convention shared with the dataset
// pipeline). The output is byte-identical at any width — TestEvalParallelismGolden
// pins that — so only the wall time changes.
func BenchmarkEvalThroughput(b *testing.B) {
	task := core.Task{Variant: typelang.VariantLSW}
	_, tr := benchTask(b, task)
	d := benchDataset(b)
	defer func() { d.Cfg.Parallelism = 0 }()
	seen := map[int]bool{}
	for _, par := range []int{1, 2, runtime.NumCPU()} {
		if seen[par] {
			continue // NumCPU may collide with 1 or 2 on small machines
		}
		seen[par] = true
		b.Run(fmt.Sprintf("j=%d", par), func(b *testing.B) {
			d.Cfg.Parallelism = par
			b.ResetTimer()
			var res *core.TaskResult
			for i := 0; i < b.N; i++ {
				res = d.EvalTask(task, tr, nil)
			}
			b.StopTimer()
			b.ReportMetric(float64(res.TestN)*float64(b.N)/b.Elapsed().Seconds(), "examples/s")
		})
	}
}
