package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/bpe"
	"repro/internal/extract"
	"repro/internal/metrics"
	"repro/internal/seq2seq"
	"repro/internal/split"
	"repro/internal/typelang"
)

// Task identifies one prediction task of Table 5: a type-language variant,
// parameter vs return prediction, and optionally the t_low ablation.
type Task struct {
	Variant typelang.Variant
	Return  bool
	// AblateLowType removes the low-level WebAssembly type from the
	// input sequence (the rightmost Table 5 column).
	AblateLowType bool
}

// Name renders the task like the paper's table headers.
func (t Task) Name() string {
	n := t.Variant.String()
	if t.AblateLowType {
		n += ", tlow not given"
	}
	if t.Return {
		return n + " / return"
	}
	return n + " / parameter"
}

// taskSample is one sample realized for a task.
type taskSample struct {
	src   []string
	tgt   []string
	low   string
	depth int // nesting depth of the L_SW ground truth (Figure 4)
}

// realize converts dataset samples into task-specific (src, tgt) pairs.
func (d *Dataset) realize(task Task, part split.Part) []taskSample {
	var out []taskSample
	for _, s := range d.Samples {
		if s.Elem.IsReturn() != task.Return || d.Part(s) != part {
			continue
		}
		src := s.Input
		if task.AblateLowType && len(src) > 0 && src[0] != "<begin>" {
			src = src[1:]
		}
		tgt := task.Variant.Apply(s.Master, d.CommonFilter)
		lswTokens := typelang.VariantLSW.Apply(s.Master, d.CommonFilter)
		depth := 0
		if t, err := typelang.Parse(lswTokens); err == nil {
			depth = t.Depth()
		}
		out = append(out, taskSample{src: src, tgt: tgt, low: s.LowType, depth: depth})
	}
	return out
}

// TaskResult is one row group of Table 5 plus the per-depth buckets that
// Figure 4 plots.
type TaskResult struct {
	Task     Task
	Model    metrics.Accuracy
	Baseline metrics.Accuracy
	// HasBaseline is false for the t_low ablation, where the conditional
	// baseline is undefined (N/A in the paper's table).
	HasBaseline bool
	// ByDepth maps L_SW nesting depth to model accuracy (Figure 4).
	ByDepth map[int]*metrics.Accuracy
	TrainN  int
	TestN   int
}

// Trained bundles everything needed to predict types for new binaries.
type Trained struct {
	Task  Task
	Model *seq2seq.Model
	// BPE is the learned subword model for instruction tokens (nil when
	// disabled).
	BPE *bpe.Model
}

// encodeSrc applies subword tokenization to a source sequence.
func (tr *Trained) encodeSrc(src []string) []string {
	if tr.BPE == nil {
		return src
	}
	return tr.BPE.Encode(src)
}

// Predict returns the top-k type-token predictions for a prepared input
// sequence. Beams that decode to an empty sequence (immediate </s>) are
// dropped; if nothing remains, the uninformative type is returned.
func (tr *Trained) Predict(src []string, k int) [][]string {
	preds := tr.Model.Predict(tr.encodeSrc(src), k)
	return filterBeams(preds)
}

// PredictTyped predicts many prepared input sequences in one call, with a
// per-query beam count, decoding all of them through the model's batched
// multi-search beam decoder (one GEMM advances every live hypothesis of a
// group per step). Slot i holds exactly the wrapped form of what
// Predict(srcs[i], ks[i]) would return — same subword encoding,
// empty-beam filtering, and fallback — so callers batch purely for
// throughput. The serving layer decodes each request's cache misses
// through PredictTypedCtx, one call per task model.
func (tr *Trained) PredictTyped(srcs [][]string, ks []int) [][]TypePrediction {
	out, err := tr.PredictTypedCtx(context.Background(), srcs, ks)
	if err != nil {
		// Unreachable: a background context is never canceled.
		panic(err)
	}
	return out
}

// PredictTypedCtx is PredictTyped with cooperative cancellation: the
// batched decode polls ctx at every decoder step and between groups, so
// an abandoned request stops consuming inference time mid-decode instead
// of running every query to completion. A nil-error return is bitwise
// identical to PredictTyped.
func (tr *Trained) PredictTypedCtx(ctx context.Context, srcs [][]string, ks []int) ([][]TypePrediction, error) {
	enc := make([][]string, len(srcs))
	for i, src := range srcs {
		enc[i] = tr.encodeSrc(src)
	}
	multi, err := tr.Model.PredictMultiCtx(ctx, enc, ks)
	if err != nil {
		return nil, err
	}
	out := make([][]TypePrediction, len(srcs))
	for i, preds := range multi {
		out[i] = wrapScored(preds)
	}
	return out, nil
}

// wrapScored converts one query's beams into ranked TypePredictions with
// normalized confidences. Empty beams (immediate </s>) are dropped like
// filterBeams does; the survivors' sequence log-probabilities go through
// a softmax, so confidences are comparable across functions and sum to 1
// within an element. The uninformative fallback keeps confidence 0: it
// carries no beam score.
func wrapScored(preds []seq2seq.Prediction) []TypePrediction {
	kept := make([]seq2seq.Prediction, 0, len(preds))
	for _, p := range preds {
		if len(p.Tokens) == 0 {
			continue
		}
		kept = append(kept, p)
	}
	if len(kept) == 0 {
		return []TypePrediction{{Tokens: []string{"unknown"}, Text: "unknown"}}
	}
	max := kept[0].LogProb
	for _, p := range kept[1:] {
		if p.LogProb > max {
			max = p.LogProb
		}
	}
	var sum float64
	exps := make([]float64, len(kept))
	for i, p := range kept {
		exps[i] = math.Exp(p.LogProb - max)
		sum += exps[i]
	}
	out := make([]TypePrediction, len(kept))
	for i, p := range kept {
		out[i] = TypePrediction{Tokens: p.Tokens, Text: LabelString(p.Tokens), Confidence: exps[i] / sum}
	}
	return out
}

// filterBeams drops beams that decoded to an empty sequence (immediate
// </s>) and substitutes the uninformative type when nothing remains.
func filterBeams(preds []seq2seq.Prediction) [][]string {
	out := make([][]string, 0, len(preds))
	for _, p := range preds {
		if len(p.Tokens) == 0 {
			continue
		}
		out = append(out, p.Tokens)
	}
	if len(out) == 0 {
		out = append(out, []string{"unknown"})
	}
	return out
}

// modelConfig returns the task's model hyperparameters: the dataset's
// base config with the worker-pool setting threaded through and the
// epoch budget scaled for small tasks. Small tasks (return prediction
// has ~7x fewer samples, Section 5) get proportionally more epochs so
// every task sees a comparable number of gradient steps; early stopping
// guards against overfit.
func (d *Dataset) modelConfig(trainN int) seq2seq.Config {
	mcfg := d.Cfg.Model
	mcfg.Parallelism = d.Cfg.Parallelism
	if trainN > 0 && trainN < 4000 {
		scale := 4000 / trainN
		if scale > 4 {
			scale = 4
		}
		if scale > 1 {
			mcfg.Epochs *= scale
		}
	}
	return mcfg
}

// learnBPE learns the subword model on training sources only (no
// leakage); nil when subword tokenization is disabled.
func (d *Dataset) learnBPE(train []taskSample) *bpe.Model {
	if d.Cfg.BPESrcVocab <= 0 {
		return nil
	}
	freq := map[string]int{}
	for _, s := range train {
		for _, tok := range s.src {
			freq[tok]++
		}
	}
	return bpe.Learn(freq, d.Cfg.BPESrcVocab)
}

func toPairs(enc func([]string) []string, ss []taskSample) []seq2seq.Pair {
	out := make([]seq2seq.Pair, 0, len(ss))
	for _, s := range ss {
		out = append(out, seq2seq.Pair{Src: enc(s.src), Tgt: s.tgt})
	}
	return out
}

// TrainTaskOptions controls checkpointing of one task's training run.
type TrainTaskOptions struct {
	// Checkpoint (may be nil) receives the serialized training checkpoint
	// after every completed epoch; returning an error aborts training.
	Checkpoint func(ckpt []byte) error
	// Resume (may be nil) is a checkpoint previously handed to
	// Checkpoint; training continues from the epoch it recorded instead
	// of starting over.
	Resume []byte
	// Metrics (may be nil) receives per-step and per-epoch training
	// counters and latency histograms, on fresh and resumed runs alike.
	Metrics *TrainMetrics
}

// TrainTask trains the seq2seq model for one task (without evaluating
// it), optionally checkpointing each epoch and resuming from a prior
// checkpoint. The dataset realization, subword model, and epoch schedule
// are all deterministic given the config, so a resumed run trains on
// exactly the data the interrupted run saw.
func (d *Dataset) TrainTask(task Task, opts *TrainTaskOptions, progress func(string)) (*Trained, error) {
	train := d.realize(task, split.Train)
	valid := d.realize(task, split.Valid)
	sub := d.learnBPE(train)
	enc := func(src []string) []string {
		if sub == nil {
			return src
		}
		return sub.Encode(src)
	}
	trainPairs := toPairs(enc, train)
	validPairs := toPairs(enc, valid)
	mcfg := d.modelConfig(len(train))

	var model *seq2seq.Model
	var st *seq2seq.TrainState
	if opts != nil && len(opts.Resume) > 0 {
		var err error
		model, st, err = seq2seq.LoadCheckpoint(bytes.NewReader(opts.Resume))
		if err != nil {
			return nil, err
		}
	} else {
		srcSeqs := make([][]string, len(trainPairs))
		tgtSeqs := make([][]string, len(trainPairs))
		for i, p := range trainPairs {
			srcSeqs[i] = p.Src
			tgtSeqs[i] = p.Tgt
		}
		model = seq2seq.NewModel(mcfg,
			seq2seq.BuildVocab(srcSeqs, mcfg.SrcVocab),
			seq2seq.BuildVocab(tgtSeqs, mcfg.TgtVocab))
	}
	if opts != nil && opts.Metrics != nil {
		model.SetTrainObserver(opts.Metrics.observer())
	}
	var ck func(*seq2seq.TrainState) error
	if opts != nil && opts.Checkpoint != nil {
		ck = func(ts *seq2seq.TrainState) error {
			var buf bytes.Buffer
			if err := model.SaveCheckpoint(&buf, ts); err != nil {
				return err
			}
			return opts.Checkpoint(buf.Bytes())
		}
	}
	if err := model.FitResume(trainPairs, validPairs, st, ck, progress); err != nil {
		return nil, err
	}
	return &Trained{Task: task, Model: model, BPE: sub}, nil
}

// EvalTask evaluates a trained task model (and the conditional t_low
// baseline) on the held-out test packages. Per-example beam searches fan
// out over d.Cfg.Parallelism workers (the -j convention; 0 = NumCPU) and
// merge in sample order, so the result is byte-identical at any worker
// count. em (may be nil) receives per-example counters and latencies.
func (d *Dataset) EvalTask(task Task, tr *Trained, em *EvalMetrics) *TaskResult {
	train := d.realize(task, split.Train)
	test := d.realize(task, split.Test)
	if em == nil {
		em = discardEvalMetrics()
	}

	base := baseline.New()
	for _, s := range train {
		base.Add(s.low, s.tgt)
	}

	res := &TaskResult{
		Task:        task,
		HasBaseline: !task.AblateLowType,
		ByDepth:     map[int]*metrics.Accuracy{},
		TrainN:      len(train),
		TestN:       len(test),
	}
	srcs := make([][]string, len(test))
	for i, s := range test {
		srcs[i] = tr.encodeSrc(s.src)
	}
	start := time.Now()
	predictions := seq2seq.EvalParallel(tr.Model, srcs, 5, d.Cfg.Parallelism, func(i int, seconds float64) {
		em.ModelExamples.Inc()
		em.PredictSeconds.Observe(seconds)
	})
	em.EvalSeconds.ObserveSince(start)
	for i, s := range test {
		var preds [][]string
		for _, p := range predictions[i] {
			preds = append(preds, p.Tokens)
		}
		res.Model.Add(preds, s.tgt)
		acc := res.ByDepth[s.depth]
		if acc == nil {
			acc = &metrics.Accuracy{}
			res.ByDepth[s.depth] = acc
		}
		acc.Add(preds, s.tgt)
		if res.HasBaseline {
			bstart := time.Now()
			res.Baseline.Add(base.Predict(s.low, 5), s.tgt)
			em.BaselineExamples.Inc()
			em.BaselineSeconds.ObserveSince(bstart)
		}
	}
	return res
}

// RunTask trains the model and baseline for one task and evaluates them on
// the held-out test packages. progress (may be nil) receives training
// logs.
func (d *Dataset) RunTask(task Task, progress func(string)) (*TaskResult, *Trained) {
	res, tr, err := d.RunTaskInstrumented(task, nil, progress)
	if err != nil {
		// Unreachable: without checkpoint options TrainTask cannot fail.
		panic(err)
	}
	return res, tr
}

// RunTaskInstrumented is RunTask with per-stage evaluation metrics (em
// may be nil).
func (d *Dataset) RunTaskInstrumented(task Task, em *EvalMetrics, progress func(string)) (*TaskResult, *Trained, error) {
	tr, err := d.TrainTask(task, nil, progress)
	if err != nil {
		return nil, nil, err
	}
	return d.EvalTask(task, tr, em), tr, nil
}

// LabelString joins a label's tokens (for display).
func LabelString(tokens []string) string { return strings.Join(tokens, " ") }

// Predictor pairs a trained parameter model with a trained return model —
// the artifact a reverse engineer queries (Figure 2, bottom half).
type Predictor struct {
	Param  *Trained
	Return *Trained
	Opts   extract.Options
}
