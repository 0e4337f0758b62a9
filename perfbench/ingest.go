package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dwarf"
	"repro/internal/extract"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/seq2seq"
	"repro/internal/wasm"
)

// The ingest workload: held-out DWARF-bearing binaries in a directory,
// ingested by ingest.Ingester{Eval: true}.Dir with one worker per CPU on
// the default exact-f64 engine. It is the offline batch path: decoding
// dominates, and there is no HTTP, cache or batcher.
//
//	throughput_per_s  functions ingested per second (median over passes)
//	latency_p50_ms    per-binary ingest latency (load, predict, score)

// ingestK is the beam width Ingester uses by default.
const ingestK = 5

func runIngest(e *env) (*outcome, error) {
	out := newOutcome()
	dir := filepath.Join(e.rundir, "ingest")
	reps := e.sc.setupReps
	if e.trace {
		reps = 1
	}
	var ins []input
	var pred *core.Predictor
	var setups []float64
	for r := 0; r < reps; r++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t, err := timed(func() error {
			var err error
			if ins, err = genInputs(e.seed, e.sc.ingestBinaries, true); err != nil {
				return err
			}
			if err := writeInputs(dir, ins); err != nil {
				return err
			}
			pred, err = core.LoadPredictor(e.model)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
	}
	fp, err := fingerprint(pred)
	if err != nil {
		return nil, err
	}
	out.manifest = manifest(ins)
	out.manifest["model_fingerprint"] = fp
	out.manifest["engine"] = "f64"
	if e.trace {
		return out, ingestTraced(e, out, dir, ins, pred)
	}

	im := ingest.NewMetrics(metrics.NewRegistry())
	im.Seconds = metrics.NewHistogram(fineBounds())
	ing := &ingest.Ingester{Pred: pred, Eval: true, Metrics: im}
	// Two passes at least, so the digest check compares something, and
	// enough to resolve the per-binary p95.
	minPasses := max(2, int(math.Ceil(20*minBeyond/float64(len(ins)))))
	var rates []float64
	var digest string
	var top1 float64
	start := time.Now()
	var wall float64
	for p := 0; p < minPasses || fits(start, e.seconds, wall); p++ {
		t0 := time.Now()
		rep, err := ing.Dir(dir, e.workers)
		wall = time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		sum := checkDirReport(out, rep, ins, e.sc, p == 0)
		rates = append(rates, float64(sum.funcs)/wall)
		d := reportDigest(rep)
		if p == 0 {
			digest, top1 = d, sum.top1
			out.detail["ingest_labeled_elements"] = sum.labeled
			out.detail["ingest_top1_tokens_mean"] = sum.topTokens
		} else {
			out.check(d == digest, "pass %d report digest %s differs from pass 0's %s", p, d, digest)
		}
	}
	p50, ok50 := histQuantile(im.Seconds, 0.50)
	p95, ok95 := histQuantile(im.Seconds, 0.95)
	out.setPercentile("latency_p50_ms", p50*1000, ok50)
	out.detail["ingest_binary_p95_ms"] = resolved(p95*1000, ok95)
	out.metrics["setup_s"] = median(setups)
	out.metrics["throughput_per_s"] = median(rates)
	out.detail["ingest_funcs_per_s"] = median(rates)
	out.detail["ingest_top1"] = top1
	out.detail["ingest_report_digest"] = digest
	out.detail["ingest_passes"] = len(rates)
	out.detail["ingest_pass_funcs_per_s"] = rates
	out.detail["ingest_binary_samples"] = im.Seconds.Count()
	out.detail["setup_s_all"] = setups
	return out, nil
}

// writeInputs stores binaries under dir at their relative names.
func writeInputs(dir string, ins []input) error {
	for _, in := range ins {
		path := filepath.Join(dir, filepath.FromSlash(in.Name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, in.Bin, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// fineBounds are histogram bounds 0.1% apart from 10µs to 1000s, so a
// quantile read from the ingester's latency histogram is within 0.1% of
// the sample it stands for.
func fineBounds() []float64 {
	var b []float64
	for v := 1e-5; v < 1e3; v *= 1.001 {
		b = append(b, v)
	}
	return b
}

// histQuantile applies the percentile rule to a histogram: the
// q-quantile is resolved only with minBeyond observations above it.
func histQuantile(h *metrics.Histogram, q float64) (float64, bool) {
	n := h.Count()
	rank := int64(math.Ceil(q * float64(n)))
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	return h.Quantile(q), true
}

// dirSummary is what one checked ingest pass produced.
type dirSummary struct {
	funcs, elems, labeled int
	top1                  float64
	topTokens             float64 // mean token count of the top prediction
}

// checkDirReport checks one pass's report against the inputs: every
// binary ingested without error, with every defined function and every
// signature element predicted, and an evaluation over labelled elements.
// Each binary is one attempted operation; a binary with an error or a
// missing prediction is a failed one.
func checkDirReport(out *outcome, rep *ingest.DirReport, ins []input, sc scale, quality bool) dirSummary {
	byName := map[string]input{}
	for _, in := range ins {
		byName[in.Name] = in
	}
	var s dirSummary
	var tokens int
	out.check(len(rep.Binaries) == len(ins), "report has %d binaries, want %d", len(rep.Binaries), len(ins))
	for _, b := range rep.Binaries {
		out.attempted++
		in, known := byName[b.Binary]
		elems, predicted := 0, 0
		for _, f := range b.Funcs {
			for _, el := range f.Elements {
				elems++
				if len(el.Predictions) > 0 {
					predicted++
					tokens += len(el.Predictions[0].Tokens)
				}
			}
		}
		ok := known && b.Error == "" && len(b.Funcs) == in.Funcs && elems == in.Elems && predicted == elems
		if !ok {
			out.failed++
			out.check(false, "binary %s: error %q, %d/%d functions, %d/%d elements predicted",
				b.Binary, b.Error, len(b.Funcs), in.Funcs, predicted, in.Elems)
		}
		s.funcs += len(b.Funcs)
		s.elems += elems
	}
	if rep.Eval == nil || rep.Eval.Labeled == 0 {
		out.check(false, "no DWARF-labelled elements were scored")
		return s
	}
	s.labeled, s.top1 = rep.Eval.Labeled, rep.Eval.Top1
	s.topTokens = ratio(float64(tokens), float64(s.elems))
	if quality {
		// A model that collapsed to one- or two-token types (or to the
		// uninformative fallback) still answers every query; these
		// floors catch it.
		out.check(s.top1 >= sc.minTop1, "top-1 %.3f below %.2f", s.top1, sc.minTop1)
		out.check(s.topTokens >= sc.minTopTokens, "top predictions average %.2f tokens, below %.1f", s.topTokens, sc.minTopTokens)
	}
	return s
}

// reportDigest hashes a report's JSON encoding.
func reportDigest(rep *ingest.DirReport) string {
	b, err := json.Marshal(rep)
	if err != nil {
		return "marshal: " + err.Error()
	}
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// elemKey names one signature element of one binary.
type elemKey struct {
	bin  string
	fn   int
	elem int
}

// composed is one binary's predictions from the traced composition.
type composed struct {
	preds map[elemKey][][]string
	elems int
	calls int
	toks  int
}

// ingestTraced composes the public calls Ingester makes per binary —
// ingest.Load (which runs wasm.DecodeTolerant and dwarf.Extract/Read),
// extract.InputForParam/InputForReturn, Trained.BPE.Encode and
// Model.PredictMulti — with spans around each, alternating traced and
// untraced passes to measure the tracing overhead. Its predictions must
// equal Ingester.Dir's.
func ingestTraced(e *env, out *outcome, dir string, ins []input, pred *core.Predictor) error {
	ref, err := (&ingest.Ingester{Pred: pred, Eval: true}).Dir(dir, e.workers)
	if err != nil {
		return err
	}
	want := map[elemKey][][]string{}
	for _, b := range ref.Binaries {
		for fi, f := range b.Funcs {
			for ei, el := range f.Elements {
				var toks [][]string
				for _, p := range el.Predictions {
					toks = append(toks, p.Tokens)
				}
				want[elemKey{b.Binary, fi, ei}] = toks
			}
		}
	}

	var plain, traced []float64
	var tr *tracer
	var last composed
	var gc map[string]float64
	start := time.Now()
	wall := 0.0
	for i := 0; i < 2 || fits(start, e.seconds, wall); i++ {
		var t *tracer
		if i%2 == 1 {
			t = newTracer()
		}
		before := readProc()
		t0 := time.Now()
		c, err := composedPass(dir, ins, pred, e.workers, t)
		wall = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		out.attempted += len(ins)
		bad := map[string]bool{}
		for k, w := range want {
			if !equalTokens(c.preds[k], w) {
				bad[k.bin] = true
			}
		}
		out.failed += len(bad)
		out.check(len(bad) == 0 && len(c.preds) == len(want),
			"traced composition: %d binaries differ from Ingester.Dir (%d of %d elements composed)", len(bad), len(c.preds), len(want))
		if t == nil {
			plain = append(plain, wall)
			continue
		}
		traced = append(traced, wall)
		tr, last = t, c
		gc = map[string]float64{}
		gcSince(gc, before)
	}

	lt := selfTimes(tr.snapshot())
	bins := float64(len(ins))
	m := out.metrics
	for k, v := range gc {
		m[k] = v
	}
	m["wasm.decode_ms"] = float64(lt["wasm.decode"].Self) / bins / 1e6
	m["dwarf.read_ms"] = float64(lt["dwarf.read"].Self) / bins / 1e6
	// ingest.Load runs its own decode and DWARF read inside, which the two
	// spans above time separately on the same bytes.
	m["ingest.load_ms"] = float64(lt["ingest.load"].Self) / bins / 1e6
	m["extract.input_us"] = ratio(float64(lt["extract.input"].Self), float64(lt["extract.input"].Count)) / 1e3
	m["bpe.encode_us"] = ratio(float64(lt["bpe.encode"].Self), float64(lt["bpe.encode"].Count)) / 1e3
	m["seq2seq.predict_ms"] = ratio(float64(lt["seq2seq.predict"].Self), float64(last.elems)) / 1e6
	m["seq2seq.queries_per_call"] = ratio(float64(last.elems), float64(last.calls))
	m["seq2seq.out_tokens_per_elem"] = ratio(float64(last.toks), float64(last.elems))
	m["bench.trace_overhead_pct"] = (median(traced)/median(plain) - 1) * 100
	// Allocations are counted on this goroutine alone, outside every timed
	// pass: reading the allocation counters stops the world.
	var ac allocCount
	elems := 0
	for i, in := range ins[:min(len(ins), e.sc.allocBinaries)] {
		c, err := composeBinary(dir, in, i, pred, nil, &ac)
		if err != nil {
			return err
		}
		elems += c.elems
	}
	m["seq2seq.allocs_per_elem"] = ratio(float64(ac.mallocs), float64(elems))
	m["seq2seq.bytes_per_elem"] = ratio(float64(ac.bytes), float64(elems))
	out.tr = tr
	out.detail["ingest_self_ms"] = selfTable(lt)
	out.detail["ingest_pass_s_untraced"] = plain
	out.detail["ingest_pass_s_traced"] = traced
	return nil
}

// selfTable renders per-span-name totals for the detail report.
func selfTable(lt map[string]layerTime) map[string]any {
	t := map[string]any{}
	for name, v := range lt {
		t[name] = map[string]any{"count": v.Count, "total_ms": float64(v.Total) / 1e6, "self_ms": float64(v.Self) / 1e6}
	}
	return t
}

// composedPass ingests every binary through the composed public calls on
// workers goroutines, recording spans on t (nil: untraced).
func composedPass(dir string, ins []input, pred *core.Predictor, workers int, t *tracer) (composed, error) {
	var mu sync.Mutex
	all := composed{preds: map[elemKey][][]string{}}
	var firstErr error
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				c, err := composeBinary(dir, ins[i], i, pred, t, nil)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				for k, v := range c.preds {
					all.preds[k] = v
				}
				all.elems += c.elems
				all.calls += c.calls
				all.toks += c.toks
				mu.Unlock()
			}
		}()
	}
	for i := range ins {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return all, firstErr
}

// allocCount sums the heap allocations made inside PredictMulti calls.
type allocCount struct{ mallocs, bytes uint64 }

// composeBinary runs one binary through the composed calls, recording
// spans on t and counting PredictMulti's allocations into ac; either may
// be nil.
func composeBinary(dir string, in input, op int, pred *core.Predictor, t *tracer, ac *allocCount) (composed, error) {
	c := composed{preds: map[elemKey][][]string{}}
	root := t.begin("ingest.binary", op, 0)
	defer t.end(root)
	data, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(in.Name)))
	if err != nil {
		return c, err
	}
	s := t.begin("wasm.decode", op, root)
	tol, err := wasm.DecodeTolerant(data)
	t.end(s)
	if err != nil {
		return c, fmt.Errorf("%s: %w", in.Name, err)
	}
	s = t.begin("dwarf.read", op, root)
	secs, err := dwarf.Extract(tol.Decoded.Module)
	if err == nil {
		_, err = dwarf.Read(secs)
	}
	t.end(s)
	if err != nil {
		return c, fmt.Errorf("%s: dwarf: %w", in.Name, err)
	}
	s = t.begin("ingest.load", op, root)
	ld, err := ingest.Load(data)
	t.end(s)
	if err != nil {
		return c, fmt.Errorf("%s: %w", in.Name, err)
	}
	m := ld.Decoded.Module
	dwarf.Strip(m)

	type query struct {
		key elemKey
		src []string
	}
	var paramQ, returnQ []query
	for fi := range m.Funcs {
		fn := &m.Funcs[fi]
		if int(fn.TypeIdx) >= len(m.Types) {
			continue
		}
		sig := m.Types[fn.TypeIdx]
		for pi, low := range sig.Params {
			s := t.begin("extract.input", op, root)
			src := extract.InputForParam(fn, pi, low, pred.Opts)
			t.end(s)
			paramQ = append(paramQ, query{elemKey{in.Name, fi, pi}, src})
		}
		if len(sig.Results) == 1 {
			s := t.begin("extract.input", op, root)
			src := extract.InputForReturn(fn, sig.Results[0], pred.Opts)
			t.end(s)
			returnQ = append(returnQ, query{elemKey{in.Name, fi, len(sig.Params)}, src})
		}
	}
	for _, job := range []struct {
		tr *core.Trained
		qs []query
	}{{pred.Param, paramQ}, {pred.Return, returnQ}} {
		if len(job.qs) == 0 {
			continue
		}
		srcs := make([][]string, len(job.qs))
		ks := make([]int, len(job.qs))
		for i, q := range job.qs {
			s := t.begin("bpe.encode", op, root)
			srcs[i] = job.tr.BPE.Encode(q.src)
			t.end(s)
			ks[i] = ingestK
		}
		var before procStats
		if ac != nil {
			before = readProc()
		}
		s := t.begin("seq2seq.predict", op, root)
		preds := job.tr.Model.PredictMulti(srcs, ks)
		t.end(s)
		if ac != nil {
			after := readProc()
			ac.mallocs += after.mallocs - before.mallocs
			ac.bytes += after.bytes - before.bytes
		}
		c.calls++
		for i, q := range job.qs {
			toks := keptTokens(preds[i])
			c.preds[q.key] = toks
			c.elems++
			c.toks += len(toks[0])
		}
	}
	return c, nil
}

// keptTokens applies the ranking filter Trained.PredictTyped applies:
// beams that decoded to nothing are dropped, and the uninformative type
// stands in when none remain.
func keptTokens(preds []seq2seq.Prediction) [][]string {
	var out [][]string
	for _, p := range preds {
		if len(p.Tokens) > 0 {
			out = append(out, p.Tokens)
		}
	}
	if len(out) == 0 {
		out = [][]string{{"unknown"}}
	}
	return out
}

func equalTokens(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
