package main

import (
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/typelang"
)

// The train workload: the `snowwhite train` path at a fixed small scale,
// core.BuildDatasetInstrumented followed by TrainTask for the parameter
// and return tasks with one worker per CPU. It is the only workload on
// training tapes (backward pass, Adam) and on the dataset pipeline
// (corpus, cc, dedup, extract); it runs no inference beyond validation.
//
//	throughput_per_s  scored target tokens per second of wall time,
//	                  dataset build included (median over runs)
//	latency_p50_ms    forward+backward phase of one optimizer step

// trainConfig is the training configuration at the workload seed.
func trainConfig(e *env) core.Config {
	cfg := core.DefaultConfig()
	cfg.Corpus = inputCorpus(e.seed)
	cfg.Corpus.Packages = e.sc.trainPackages
	cfg.Model.Epochs = e.sc.trainEpochs
	cfg.Parallelism = e.workers
	return cfg
}

// trainRun is one measured training run.
type trainRun struct {
	wall        float64 // seconds
	tokens      int64
	losses      string // the epoch loss lines, in order
	fingerprint string
	mallocs     uint64 // during the two TrainTask calls
}

func runTrain(e *env) (*outcome, error) {
	out := newOutcome()
	cfg := trainConfig(e)
	reps := e.sc.setupReps
	if e.trace {
		reps = 1
	}
	// Set-up is generating and compiling the corpus once to describe it;
	// the measured runs then build the dataset from scratch.
	var ins []input
	var setups []float64
	for r := 0; r < reps; r++ {
		t, err := timed(func() error {
			var err error
			ins, err = genPackages(e.seed, e.sc.trainPackages)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
	}
	out.manifest = manifest(ins)
	out.manifest["packages"] = e.sc.trainPackages
	out.manifest["epochs"] = e.sc.trainEpochs

	shard := metrics.NewHistogram(fineBounds())
	var runs []trainRun
	var tr *tracer
	var tm *core.TrainMetrics
	var pm *core.PipelineMetrics
	var gc map[string]float64
	start := time.Now()
	// Two runs at least, so the repeatability checks compare something;
	// untraced, runs continue while another fits in the time left.
	for i := 0; i < 2 || fits(start, e.seconds, lastWall(runs)); i++ {
		traced := e.trace && i%2 == 1
		if e.trace && i >= 2 {
			break
		}
		reg := metrics.NewRegistry()
		tmi := core.NewTrainMetrics(reg)
		if !e.trace {
			tmi.ShardSeconds = shard
		}
		var pmi *core.PipelineMetrics
		var t *tracer
		if traced {
			pmi = core.NewPipelineMetrics(reg)
			t = newTracer()
		}
		before := readProc()
		run, err := trainOnce(cfg, i, tmi, pmi, t)
		if err != nil {
			return nil, err
		}
		out.attempted++
		if len(runs) > 0 {
			ok := run.losses == runs[0].losses && run.fingerprint == runs[0].fingerprint
			if !ok {
				out.failed++
			}
			out.check(run.losses == runs[0].losses, "run %d loss sequence differs from run 0's", i)
			out.check(run.fingerprint == runs[0].fingerprint, "run %d model %s differs from run 0's %s", i, run.fingerprint, runs[0].fingerprint)
		}
		runs = append(runs, run)
		if traced {
			tr, tm, pm = t, tmi, pmi
			gc = map[string]float64{}
			gcSince(gc, before)
		}
	}
	out.check(len(runs) >= 2, "only %d training run; repeatability needs two", len(runs))
	out.manifest["model_fingerprint"] = runs[0].fingerprint
	out.detail["train_losses"] = runs[0].losses
	walls := make([]float64, len(runs))
	rates := make([]float64, len(runs))
	for i, r := range runs {
		walls[i] = r.wall
		rates[i] = float64(r.tokens) / r.wall
	}
	out.detail["train_wall_s"] = median(walls)
	out.detail["train_tokens_per_s"] = median(rates)
	out.detail["train_wall_s_all"] = walls
	out.detail["train_tokens"] = runs[0].tokens

	if e.trace {
		m := out.metrics
		for k, v := range gc {
			m[k] = v
		}
		lt := selfTimes(tr.snapshot())
		traced := runs[1]
		m["core.build_dataset_s"] = float64(lt["core.build_dataset"].Self) / 1e9
		m["core.train_param_s"] = float64(lt["core.train_param"].Self) / 1e9
		m["core.train_return_s"] = float64(lt["core.train_return"].Self) / 1e9
		m["corpus.generate_s"] = pm.GenerateSeconds.Sum()
		m["cc.compile_s"] = pm.CompileSeconds.Sum()
		m["extract.extract_s"] = pm.ExtractSeconds.Sum()
		m["dedup.dropped"] = float64(pm.DuplicatesDropped.Value())
		m["seq2seq.train_shard_s"] = tm.ShardSeconds.Sum()
		m["seq2seq.train_merge_s"] = tm.MergeSeconds.Sum()
		m["seq2seq.train_batches"] = float64(tm.Batches.Value())
		m["seq2seq.train_tokens"] = float64(tm.Tokens.Value())
		m["seq2seq.train_epochs"] = float64(tm.Epochs.Value())
		m["seq2seq.train_allocs_per_batch"] = ratio(float64(traced.mallocs), float64(tm.Batches.Value()))
		m["bench.trace_overhead_pct"] = (traced.wall/runs[0].wall - 1) * 100
		out.tr = tr
		out.detail["train_self_ms"] = selfTable(lt)
		return out, nil
	}

	p50, ok50 := histQuantile(shard, 0.50)
	p95, ok95 := histQuantile(shard, 0.95)
	out.setPercentile("latency_p50_ms", p50*1000, ok50)
	out.detail["train_step_p95_ms"] = resolved(p95*1000, ok95)
	out.metrics["setup_s"] = median(setups)
	out.metrics["throughput_per_s"] = median(rates)
	out.detail["train_steps"] = shard.Count()
	out.detail["setup_s_all"] = setups
	return out, nil
}

// trainOnce builds the dataset and trains both production models, the
// stages `snowwhite train` runs, with spans on t (nil: untraced).
func trainOnce(cfg core.Config, op int, tm *core.TrainMetrics, pm *core.PipelineMetrics, t *tracer) (trainRun, error) {
	var run trainRun
	var losses []string
	progress := func(line string) {
		if strings.Contains(line, "loss") || strings.Contains(line, "stopping early") {
			losses = append(losses, line)
		}
	}
	start := time.Now()
	root := t.begin("train.run", op, 0)
	s := t.begin("core.build_dataset", op, root)
	d, err := core.BuildDatasetInstrumented(cfg, progress, pm)
	t.end(s)
	if err != nil {
		return run, err
	}
	before := readProc()
	opts := &core.TrainTaskOptions{Metrics: tm}
	s = t.begin("core.train_param", op, root)
	param, err := d.TrainTask(core.Task{Variant: typelang.VariantLSW}, opts, progress)
	t.end(s)
	if err != nil {
		return run, err
	}
	s = t.begin("core.train_return", op, root)
	ret, err := d.TrainTask(core.Task{Variant: typelang.VariantLSW, Return: true}, opts, progress)
	t.end(s)
	if err != nil {
		return run, err
	}
	run.mallocs = readProc().mallocs - before.mallocs
	t.end(root)
	run.wall = time.Since(start).Seconds()
	run.tokens = tm.Tokens.Value()
	run.losses = strings.Join(losses, "\n")
	run.fingerprint, err = fingerprint(&core.Predictor{Param: param, Return: ret, Opts: cfg.Extract})
	return run, err
}

func lastWall(runs []trainRun) float64 {
	if len(runs) == 0 {
		return 0
	}
	return runs[len(runs)-1].wall
}
