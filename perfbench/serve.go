package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// The serve workload: an in-process server.New behind a loopback
// listener, with an f32 sibling engine that every request selects. Load
// is open loop from one connection per CPU: requests fall due on a fixed
// schedule whether or not earlier ones finished, and each is timed from
// when it was due. A share of requests re-sends a binary from a hot set
// warmed before timing (the cache-hit path: HTTP read, decode, function
// hash, cache lookup); the rest send a binary not seen before (the miss
// path: batcher and f32 decode). The untraced run spends most of its time
// at the reference rate, then runs a saturation step: closed loop, each
// connection sends its next request as soon as the last one completes,
// so the completion rate is what the server sustains on the same mix.
//
//	throughput_per_s  completed requests per second in the saturation
//	                  step (serve_saturation_rps)
//	latency_p50_ms    request latency at the reference rate (the tail
//	                  percentiles are in the detail report)

// serveK is the beam width the server uses by default.
const serveK = 5

// serveCacheSize is the server's default prediction cache capacity in
// elements, set explicitly so the manifest can state the hot set against
// it and the workload stays the same if the default moves.
const serveCacheSize = 4096

// serveReq is one scheduled request.
type serveReq struct {
	in  *input
	hot bool
}

// reqResult is what happened to one request.
type reqResult struct {
	due, sent, done time.Time
	lag             time.Duration // how late the generator issued it
	ok              bool
	hits, elems     int
	top1Tokens      int
	resp            *server.PredictResponse // kept for the sampled check
}

// serveStep is one load step: open loop at a constant rate, or closed
// loop.
type serveStep struct {
	rate    float64 // offered requests per second; 0 for the closed loop
	reqs    []serveReq
	results []reqResult
	backlog int
	wall    time.Duration // open loop: from the first due time until the step drained
	traceNs int64         // time spent recording spans, summed over senders
}

// liveServer is one started server with its listener.
type liveServer struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{} // closed when Serve returns
}

func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.http.Shutdown(ctx)
	<-ls.done
	return errors.Join(err, ls.srv.Shutdown(ctx))
}

func runServe(e *env) (*outcome, error) {
	out := newOutcome()
	sc := e.sc
	// Untraced: the reference rate, then the saturation step, which
	// prepares requests for up to serveSatMax per second. Traced: the
	// reference rate alone, for the whole measured time.
	durs := []float64{e.seconds * sc.serveRefShare, e.seconds * (1 - sc.serveRefShare)}
	if e.trace {
		durs = []float64{e.seconds}
	}
	// One request in each block of block is cold, at a random place in the
	// block, so the number of misses a step sends does not vary by seed.
	rng := rand.New(rand.NewSource(e.seed))
	block := int(math.Round(1 / (1 - sc.serveHitShare)))
	var hotPicks []int
	var steps []*serveStep
	cold := 0
	for i, d := range durs {
		st := &serveStep{rate: sc.serveRate}
		n := int(math.Round(sc.serveRate * d))
		if i == 1 {
			st.rate, n = 0, int(math.Round(sc.serveSatMax*d))
		}
		coldAt := 0
		for j := 0; j < n; j++ {
			if j%block == 0 {
				coldAt = j + rng.Intn(block)
			}
			if j != coldAt {
				hotPicks = append(hotPicks, rng.Intn(sc.serveHot))
				st.reqs = append(st.reqs, serveReq{hot: true})
			} else {
				cold++
				st.reqs = append(st.reqs, serveReq{})
			}
		}
		steps = append(steps, st)
	}
	ins, err := genInputs(e.seed, sc.serveHot+cold, false)
	if err != nil {
		return nil, err
	}
	hot, coldIns := ins[:sc.serveHot], ins[sc.serveHot:]
	hp, cp := 0, 0
	for _, st := range steps {
		for j := range st.reqs {
			if st.reqs[j].hot {
				st.reqs[j].in = &hot[hotPicks[hp]]
				hp++
			} else {
				st.reqs[j].in = &coldIns[cp]
				cp++
			}
		}
	}

	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     e.workers,
		MaxIdleConnsPerHost: e.workers,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()

	reps := sc.setupReps
	if e.trace {
		reps = 1
	}
	var ls *liveServer
	var setups []float64
	for r := 0; r < reps; r++ {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return nil, err
			}
		}
		t, err := timed(func() error {
			var err error
			ls, err = startServer(e.model)
			if err != nil {
				return err
			}
			return warm(client, ls.url, hot, e.workers)
		})
		if err != nil {
			if ls != nil {
				ls.stop()
			}
			return nil, err
		}
		setups = append(setups, t)
	}
	defer ls.stop()

	hotMan := manifest(hot)
	out.manifest = manifest(ins)
	out.manifest["hot_binaries"] = len(hot)
	out.manifest["hot_elements"] = hotMan["elements"]
	out.manifest["cache_capacity"] = serveCacheSize
	out.manifest["hit_share"] = sc.serveHitShare
	out.manifest["engine"] = "f32"
	out.manifest["connections"] = e.workers
	pred, err := core.LoadPredictor(e.model)
	if err != nil {
		return nil, err
	}
	if out.manifest["model_fingerprint"], err = fingerprint(pred); err != nil {
		return nil, err
	}

	before, err := scrape(client, ls.url)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	var gc map[string]float64
	var stepMetrics []map[string]float64
	var rungs []rung
	var lags []float64
	for i, st := range steps {
		procBefore := readProc()
		stepBefore, err := scrape(client, ls.url)
		if err != nil {
			return nil, err
		}
		if st.rate > 0 {
			runStep(client, ls.url, st, e.workers, tr)
		} else {
			saturate(client, ls.url, st, e.workers, time.Duration(durs[i]*float64(time.Second)))
		}
		after, err := scrape(client, ls.url)
		if err != nil {
			return nil, err
		}
		stepMetrics = append(stepMetrics, delta(after, stepBefore))
		if tr != nil {
			gc = map[string]float64{}
			gcSince(gc, procBefore)
		}
		rungs = append(rungs, checkStep(out, st))
		for _, r := range st.results {
			if st.rate > 0 {
				lags = append(lags, ms(r.lag))
			}
		}
	}
	after, err := scrape(client, ls.url)
	if err != nil {
		return nil, err
	}
	whole := delta(after, before)
	distinct := map[[32]byte]bool{}
	for _, st := range steps {
		for _, r := range st.reqs {
			for _, k := range r.in.Keys {
				distinct[k] = true
			}
		}
	}
	out.manifest["cache_entries_end"] = after["snowwhite_cache_entries"]
	out.manifest["distinct_function_bodies_sent"] = len(distinct)
	out.manifest["cache_evicted"] = whole["snowwhite_cache_misses_total"] > after["snowwhite_cache_entries"]-before["snowwhite_cache_entries"]
	out.detail["serve_cache_hit_ratio"] = ratio(whole["snowwhite_cache_hits_total"], whole["snowwhite_cache_hits_total"]+whole["snowwhite_cache_misses_total"])

	if err := sampleCheck(out, e.model, steps[0], sc.serveSample); err != nil {
		return nil, err
	}
	var table []map[string]any
	for i, rg := range rungs {
		row := map[string]any{"rate": rg.Rate, "sent": rg.Sent, "succeeded": rg.OK, "failed": rg.Failed,
			"completed_per_s": ratio(float64(rg.OK), rg.Duration)}
		if rg.Rate > 0 {
			row["backlog"], row["passes"] = rg.Backlog, rg.passes(sc.serveLimitMs)
		}
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50_ms", 0.5}, {"p90_ms", 0.9}, {"p95_ms", 0.95}, {"p99_ms", 0.99}} {
			row[q.name] = resolved(percentile(rg.Latency, q.q))
		}
		for _, class := range []struct {
			name string
			hot  bool
		}{{"hit", true}, {"miss", false}} {
			var l []float64
			for j, r := range steps[i].results {
				if r.ok && steps[i].reqs[j].hot == class.hot {
					l = append(l, ms(r.done.Sub(r.due)))
				}
			}
			for _, q := range []struct {
				name string
				q    float64
			}{{"p50_ms", 0.5}, {"p95_ms", 0.95}} {
				if v, ok := percentile(l, q.q); ok {
					row[class.name+"_"+q.name] = v
				}
			}
		}
		row["traced"] = e.trace
		row["reference"] = i == 0
		table = append(table, row)
	}
	out.detail["serve_steps"] = table
	out.detail["serve_limit_p99_ms"] = sc.serveLimitMs

	ref := rungs[0]
	lagP99, lagOK := percentile(lags, 0.99)
	out.detail["bench_gen_lag_max_ms"] = slices.Max(lags)
	if e.trace {
		m := out.metrics
		for k, v := range gc {
			m[k] = v
		}
		layer := serverLayers(stepMetrics[0])
		for k, v := range layer {
			m[k] = v
		}
		m["seq2seq.predict_ms"] = layer["server.inference_mean_ms"]
		m["seq2seq.queries_per_call"] = layer["server.batch_size_mean"]
		var toks, elems, wait float64
		for _, r := range steps[0].results {
			toks += float64(r.top1Tokens)
			elems += float64(r.elems)
			wait += ms(r.sent.Sub(r.due))
		}
		m["seq2seq.out_tokens_per_elem"] = ratio(toks, elems)
		m["bench.client_wait_mean_ms"] = ratio(wait, float64(len(steps[0].results)))
		out.setPercentile("bench.gen_lag_p99_ms", lagP99, lagOK)
		// Tracing costs only the span recording after each response, timed
		// directly: its share of the step's wall time.
		m["bench.trace_overhead_pct"] = 100 * ratio(float64(steps[0].traceNs), float64(steps[0].wall))
		out.tr = tr
		return out, nil
	}

	p50, ok50 := percentile(ref.Latency, 0.5)
	p95, ok95 := percentile(ref.Latency, 0.95)
	out.setPercentile("latency_p50_ms", p50, ok50)
	out.detail["serve_p95_ms"] = resolved(p95, ok95)
	// The ladder is the open-loop rates; the saturation step offers none.
	maxRPS := 0.0
	if best := maxPassing(rungs[:1], sc.serveLimitMs); best >= 0 {
		maxRPS = ratio(float64(rungs[best].OK), rungs[best].Duration)
		out.detail["serve_max_rate_rung"] = rungs[best].Rate
	}
	satRPS := ratio(float64(rungs[1].OK), rungs[1].Duration)
	out.metrics["setup_s"] = median(setups)
	out.metrics["throughput_per_s"] = satRPS
	out.detail["serve_saturation_rps"] = satRPS
	out.detail["serve_p50_ms"] = p50
	out.detail["serve_p99_ms"] = resolved(percentile(ref.Latency, 0.99))
	out.detail["serve_max_rps"] = maxRPS
	out.detail["serve_reference_layers"] = serverLayers(stepMetrics[0])
	out.detail["serve_saturation_layers"] = serverLayers(stepMetrics[1])
	out.detail["setup_s_all"] = setups
	return out, nil
}

// startServer loads the reference model twice — the default f64 engine
// and its f32 sibling — and serves both on a loopback port.
func startServer(model string) (*liveServer, error) {
	pred, err := core.LoadPredictor(model)
	if err != nil {
		return nil, err
	}
	f32, err := core.LoadPredictor(model)
	if err != nil {
		return nil, err
	}
	for _, tr := range []*core.Trained{f32.Param, f32.Return} {
		if err := tr.Model.SetPrecision("f32"); err != nil {
			return nil, err
		}
	}
	srv, err := server.New(pred, server.Config{F32Pred: f32, CacheSize: serveCacheSize})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan struct{}),
		http: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}}
	go func() {
		defer close(ls.done)
		ls.http.Serve(ln)
	}()
	return ls, nil
}

// warm sends every hot binary once over conns connections, so the timed
// requests for them hit the cache.
func warm(client *http.Client, url string, hot []input, conns int) error {
	errs := make([]error, len(hot))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(hot); i = int(next.Add(1) - 1) {
				var r reqResult
				if err := post(context.Background(), client, url, &hot[i], &r, false); err != nil {
					errs[i] = fmt.Errorf("warm %s: %w", hot[i].Name, err)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// post sends one binary and validates the response: status 200, the f32
// engine, every defined function and every signature element predicted.
func post(ctx context.Context, client *http.Client, url string, in *input, r *reqResult, keep bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/predict?precision=f32", bytes.NewReader(in.Bin))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/wasm")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	// The response is complete here; checking it is the benchmark's work,
	// not the server's, so it stays out of the request's latency.
	r.done = time.Now()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var pr server.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return err
	}
	elems := 0
	for _, f := range pr.Functions {
		for _, preds := range f.Elements {
			if len(preds) == 0 {
				return fmt.Errorf("function %d has an element without predictions", f.Index)
			}
			elems++
			r.top1Tokens += len(preds[0].Tokens)
		}
	}
	if pr.Precision != "f32" || len(pr.Functions) != in.Funcs || elems != in.Elems {
		return fmt.Errorf("precision %q, %d/%d functions, %d/%d elements", pr.Precision, len(pr.Functions), in.Funcs, elems, in.Elems)
	}
	r.hits, r.elems = pr.CacheHits, elems
	if keep {
		r.resp = &pr
	}
	return nil
}

// drainLimit bounds how long a step waits for its last requests; any
// still open then are cancelled and count as failed.
const drainLimit = 60 * time.Second

// runStep issues a step's requests open loop: the generator releases each
// at its due time into a queue that conns senders (one connection each)
// drain, so a slow response delays the requests behind it and that delay
// counts in their latency.
func runStep(client *http.Client, url string, st *serveStep, conns int, t *tracer) {
	n := len(st.reqs)
	st.results = make([]reqResult, n)
	queue := make(chan int, n) // sized to the number of sends: the generator never blocks
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed, traceNs atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &st.results[i]
				r.sent = time.Now()
				err := post(ctx, client, url, st.reqs[i].in, r, true)
				if err != nil && r.done.IsZero() {
					r.done = time.Now()
				}
				r.ok = err == nil
				completed.Add(1)
				if t != nil {
					t0 := time.Now()
					root := t.record("serve.request", i, 0, r.due, r.done)
					t.record("bench.client_wait", i, root, r.due, r.sent)
					t.record("http.roundtrip", i, root, r.sent, r.done)
					traceNs.Add(int64(time.Since(t0)))
				}
			}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / st.rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		st.results[i].due = due
		st.results[i].lag = time.Since(due)
		queue <- i
	}
	st.backlog = n - int(completed.Load())
	close(queue)
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(drainLimit):
		cancel()
		<-finished
	}
	st.wall = time.Since(start)
	st.traceNs = traceNs.Load()
}

// saturate sends a step's requests closed loop for d: each of conns
// senders sends the next request as soon as its last one completed, so
// the connections never wait on a schedule and the completion rate is
// what the server sustains. Each request is timed from when it was sent.
// Requests not sent by d are dropped from the step; a server that
// answers all of them sooner ends the step early.
func saturate(client *http.Client, url string, st *serveStep, conns int, d time.Duration) {
	st.results = make([]reqResult, len(st.reqs))
	ctx, cancel := context.WithTimeout(context.Background(), d+drainLimit)
	defer cancel()
	deadline := time.Now().Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(st.reqs) && time.Now().Before(deadline); i = int(next.Add(1) - 1) {
				r := &st.results[i]
				r.sent = time.Now()
				r.due = r.sent
				err := post(ctx, client, url, st.reqs[i].in, r, false)
				if err != nil && r.done.IsZero() {
					r.done = time.Now()
				}
				r.ok = err == nil
			}
		}()
	}
	wg.Wait()
	var reqs []serveReq
	var results []reqResult
	for i, r := range st.results {
		if !r.sent.IsZero() {
			reqs = append(reqs, st.reqs[i])
			results = append(results, r)
		}
	}
	st.reqs, st.results = reqs, results
}

// checkStep turns a step's results into a rung and counts its
// operations: a request that did not complete with every element is a
// failed one.
func checkStep(out *outcome, st *serveStep) rung {
	rg := rung{Rate: st.rate, Sent: len(st.results), Backlog: st.backlog}
	var first, last time.Time
	for _, r := range st.results {
		out.attempted++
		if !r.ok {
			rg.Failed++
			out.failed++
			continue
		}
		rg.OK++
		rg.Latency = append(rg.Latency, ms(r.done.Sub(r.due)))
		if first.IsZero() || r.due.Before(first) {
			first = r.due
		}
		if r.done.After(last) {
			last = r.done
		}
	}
	if rg.Failed > 0 {
		out.check(false, "%d of %d requests at %g rps (0: closed loop) failed", rg.Failed, rg.Sent, st.rate)
	}
	rg.Duration = last.Sub(first).Seconds()
	return rg
}

// sampleCheck compares sampled responses, spread over the step, with an
// in-process decode of the same functions on a separate f32 predictor.
func sampleCheck(out *outcome, model string, st *serveStep, n int) error {
	f32, err := core.LoadPredictor(model)
	if err != nil {
		return err
	}
	for _, tr := range []*core.Trained{f32.Param, f32.Return} {
		if err := tr.Model.SetPrecision("f32"); err != nil {
			return err
		}
	}
	stride := max(1, len(st.results)/n)
	checked := 0
	for i := 0; i < len(st.results) && checked < n; i += stride {
		r := st.results[i]
		if !r.ok {
			continue
		}
		checked++
		m, err := core.DecodeStripped(st.reqs[i].in.Bin)
		if err != nil {
			return err
		}
		for _, f := range r.resp.Functions {
			sig, err := m.FuncTypeAt(uint32(f.Index + m.NumImportedFuncs()))
			if err != nil {
				return err
			}
			for name, got := range f.Elements {
				var src []string
				tr := f32.Param
				if name == "return" {
					tr = f32.Return
					src, err = f32.ReturnInput(m, f.Index)
				} else {
					pi, _ := strconv.Atoi(strings.TrimPrefix(name, "param"))
					if pi >= len(sig.Params) {
						out.check(false, "%s function %d: unexpected element %s", st.reqs[i].in.Name, f.Index, name)
						continue
					}
					src, err = f32.ParamInput(m, f.Index, pi)
				}
				if err != nil {
					return err
				}
				want := tr.PredictTyped([][]string{src}, []int{serveK})[0]
				out.check(samePredictions(got, want), "%s function %d %s: served %v, in-process %v",
					st.reqs[i].in.Name, f.Index, name, texts(got), texts(want))
			}
		}
	}
	out.check(checked > 0, "no successful response to sample")
	out.detail["serve_sampled_responses"] = checked
	return nil
}

func samePredictions(a, b []core.TypePrediction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Text != b[i].Text {
			return false
		}
	}
	return true
}

func texts(ps []core.TypePrediction) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.Text)
	}
	return out
}

// scrape reads the server's unlabelled /metrics series.
func scrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// delta subtracts one scrape from a later one.
func delta(after, before map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// serverLayers derives the server's per-layer metrics from a /metrics
// delta over one step.
func serverLayers(d map[string]float64) map[string]float64 {
	hits, misses := d["snowwhite_cache_hits_total"], d["snowwhite_cache_misses_total"]
	return map[string]float64{
		"server.cache_hit_ratio":    ratio(hits, hits+misses),
		"server.request_mean_ms":    1000 * ratio(d["snowwhite_request_seconds_sum"], d["snowwhite_request_seconds_count"]),
		"server.elems_per_request":  ratio(hits+misses, d["snowwhite_requests_total"]),
		"server.rejected":           d["snowwhite_requests_rejected_total"],
		"server.timeouts":           d["snowwhite_request_timeouts_total"],
		"server.batch_size_mean":    ratio(d["snowwhite_batch_size_sum"], d["snowwhite_batch_size_count"]),
		"server.batch_wait_mean_ms": 1000 * ratio(d["snowwhite_batch_queue_seconds_sum"], d["snowwhite_batch_queue_seconds_count"]),
		"server.inference_mean_ms":  1000 * ratio(d["snowwhite_inference_seconds_sum"], d["snowwhite_inference_seconds_count"]),
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
