package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/quant"
)

// f32State caches the f32-engine counterpart of the shared test
// predictor.
var f32State struct {
	once sync.Once
	pred *core.Predictor
	err  error
}

func testF32Predictor(t testing.TB) *core.Predictor {
	t.Helper()
	pred, _ := testPredictor(t)
	f32State.once.Do(func() {
		f32State.pred, f32State.err = core.QuantizePredictor(pred, quant.F32)
	})
	if f32State.err != nil {
		t.Fatal(f32State.err)
	}
	return f32State.pred
}

func newF32TestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.F32Pred = testF32Predictor(t)
	return newTestServer(t, cfg)
}

// TestF32Routing covers the precision=f32 opt-in across both request
// encodings, the echo of the precision in the response, and rejection
// when no f32 engine is loaded.
func TestF32Routing(t *testing.T) {
	_, ts := newF32TestServer(t, Config{})
	_, bin := testPredictor(t)

	resp, body := postWasm(t, ts.URL, bin, "func=first&k=3&precision=f32")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	pr := decodeResponse(t, body)
	if pr.Precision != "f32" {
		t.Errorf("response precision = %q, want f32", pr.Precision)
	}
	if len(pr.Functions) != 1 || len(pr.Functions[0].Elements) == 0 {
		t.Fatalf("f32 request returned no predictions: %s", body)
	}
	for elem, preds := range pr.Functions[0].Elements {
		if len(preds) == 0 || preds[0].Text == "" {
			t.Errorf("%s: empty f32 prediction", elem)
		}
	}

	// Same opt-in through the JSON envelope.
	env, _ := json.Marshal(predictEnvelope{
		WasmBase64: base64.StdEncoding.EncodeToString(bin),
		Func:       "first",
		K:          2,
		Precision:  "f32",
	})
	hresp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	ebody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("envelope status = %d, body %s", hresp.StatusCode, ebody)
	}
	if epr := decodeResponse(t, ebody); epr.Precision != "f32" {
		t.Errorf("envelope response precision = %q, want f32", epr.Precision)
	}

	// precision=f64 (and omission) stays on the full-precision engine.
	for _, q := range []string{"func=first&k=3", "func=first&k=3&precision=f64"} {
		resp, body = postWasm(t, ts.URL, bin, q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", q, resp.StatusCode, body)
		}
		if pr := decodeResponse(t, body); pr.Precision != "" {
			t.Errorf("%s: response precision = %q, want empty", q, pr.Precision)
		}
	}

	// Malformed selection.
	resp, body = postWasm(t, ts.URL, bin, "precision=f16")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("precision=f16: status = %d, want 400; body %s", resp.StatusCode, body)
	}
}

// TestF32Unavailable: precision=f32 against a server without an f32
// engine is a client error, not a silent fallback.
func TestF32Unavailable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, bin := testPredictor(t)
	resp, body := postWasm(t, ts.URL, bin, "precision=f32")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
	}
}

// TestHealthzReportsF32: readiness tells clients whether precision=f32
// will be accepted, and /v1/models lists the sibling. precision is the
// only engine knob, so nothing else about engines is reported.
func TestHealthzReportsF32(t *testing.T) {
	check := func(url string, want bool) {
		t.Helper()
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		if got, _ := h["f32"].(bool); got != want {
			t.Errorf("f32 = %v, want %v", got, want)
		}
		if _, ok := h["fast_math"]; ok {
			t.Errorf("healthz still reports fast_math: %v", h)
		}
	}
	_, full := newTestServer(t, Config{})
	check(full.URL, false)
	s, f32 := newF32TestServer(t, Config{})
	check(f32.URL, true)
	models := s.Models()
	if len(models) != 1 || !models[0].F32 {
		t.Errorf("model status = %+v, want F32", models)
	}
}

// TestF32CacheIsolation: the f32 engine must never answer full-precision
// requests from the cache (or vice versa), even for the same function
// and k — the tiers may rank types differently.
func TestF32CacheIsolation(t *testing.T) {
	_, ts := newF32TestServer(t, Config{})
	_, bin := testPredictor(t)

	_, body := postWasm(t, ts.URL, bin, "func=first&k=3")
	full := decodeResponse(t, body)
	if full.CacheHits != 0 {
		t.Fatalf("first full request: cache_hits = %d, want 0", full.CacheHits)
	}
	// The f32 request for the identical (function, k) must miss.
	_, body = postWasm(t, ts.URL, bin, "func=first&k=3&precision=f32")
	f32 := decodeResponse(t, body)
	if f32.CacheHits != 0 {
		t.Errorf("f32 request answered from full-precision cache (%d hits)", f32.CacheHits)
	}
	// And each engine's repeat hits its own entries.
	_, body = postWasm(t, ts.URL, bin, "func=first&k=3&precision=f32")
	if again := decodeResponse(t, body); again.CacheHits != len(again.Functions[0].Elements) {
		t.Errorf("repeated f32 request: cache_hits = %d, want %d",
			again.CacheHits, len(again.Functions[0].Elements))
	}
}

// TestF32Deterministic: repeated uncached f32 requests return
// byte-identical predictions.
func TestF32Deterministic(t *testing.T) {
	_, ts := newF32TestServer(t, Config{CacheSize: -1})
	_, bin := testPredictor(t)
	_, first := postWasm(t, ts.URL, bin, "func=first&k=3&precision=f32")
	_, second := postWasm(t, ts.URL, bin, "func=first&k=3&precision=f32")
	if !bytes.Equal(first, second) {
		t.Errorf("f32 responses differ across identical requests:\n%s\n%s", first, second)
	}
}

// TestQuantizedPrimaryReportsF32: a quantized model decodes on the f32
// engine even when it is served as a primary — started with one, or
// loaded through PUT /v1/models — and a plain request to it carries no
// precision opt-in. The response must still say f32: the label follows
// the models that answered, not the requested tier.
func TestQuantizedPrimaryReportsF32(t *testing.T) {
	_, bin := testPredictor(t)
	s, err := New(testF32Predictor(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	resp, body := postWasm(t, ts.URL, bin, "func=first&k=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if pr := decodeResponse(t, body); pr.Precision != "f32" {
		t.Errorf("quantized primary: response precision = %q, want f32", pr.Precision)
	}

	// A quantized file registered at runtime beside a full primary.
	pred, _ := testPredictor(t)
	path := filepath.Join(t.TempDir(), "model.qbin")
	if err := core.ExportQuantized(pred, path, quant.Int8); err != nil {
		t.Fatal(err)
	}
	_, full := newTestServer(t, Config{})
	src, _ := json.Marshal(ModelSource{Path: path})
	req, err := http.NewRequest(http.MethodPut, full.URL+"/v1/models/q8", bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	pbody, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("PUT quantized model: status = %d, body %s", presp.StatusCode, pbody)
	}
	resp, body = postWasm(t, full.URL, bin, "func=first&k=3&model=q8")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("q8 predict: status = %d, body %s", resp.StatusCode, body)
	}
	if pr := decodeResponse(t, body); pr.Precision != "f32" || pr.Model != "q8" {
		t.Errorf("PUT-loaded quantized model: precision %q model %q, want f32 q8", pr.Precision, pr.Model)
	}
	resp, body = postWasm(t, full.URL, bin, "func=first&k=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default predict: status = %d, body %s", resp.StatusCode, body)
	}
	if pr := decodeResponse(t, body); pr.Precision != "" {
		t.Errorf("full-precision primary: response precision = %q, want empty", pr.Precision)
	}
}

// TestMixedEngineStressShutdown is the -race stress test of a model's
// two engines: many concurrent requests alternating between the full
// and f32 engines (both encodings), with the server shut down while the
// last wave is still in flight. Every completed response must come from
// the engine it asked for, and identical queries to one engine must
// agree (batched and f32 decoding stay deterministic under load).
func TestMixedEngineStressShutdown(t *testing.T) {
	pred, bin := testPredictor(t)
	cfg := Config{
		Workers:        4,
		QueueDepth:     256,
		RequestTimeout: 2 * time.Minute,
		F32Pred:        testF32Predictor(t),
	}
	s, err := New(pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	const n = 64
	var wg sync.WaitGroup
	type result struct {
		key       string
		precision string
		body      string
		code      int
		err       error
	}
	results := make(chan result, n)
	var finished atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer finished.Add(1)
			fn := []string{"first", "length"}[i%2]
			k := 1 + i%2
			precision := ""
			if i%4 < 2 {
				precision = "f32"
			}
			key := fmt.Sprintf("%s/%d/%s", fn, k, precision)
			var resp *http.Response
			var err error
			if i%8 == 0 {
				// Exercise the JSON envelope under load too.
				env, _ := json.Marshal(predictEnvelope{
					WasmBase64: base64.StdEncoding.EncodeToString(bin),
					Func:       fn, K: k, Precision: precision,
				})
				resp, err = http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(env))
			} else {
				url := fmt.Sprintf("%s/v1/predict?func=%s&k=%d&precision=%s", ts.URL, fn, k, precision)
				resp, err = http.Post(url, "application/wasm", bytes.NewReader(bin))
			}
			if err != nil {
				// Connection torn down by shutdown: acceptable.
				results <- result{key: key, err: err}
				return
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				results <- result{key: key, err: rerr}
				return
			}
			results <- result{key: key, precision: precision, body: string(body), code: resp.StatusCode}
		}(i)
	}

	// Shut down mid-flight: wait until at least half the wave is done (so
	// the engines have seen real mixed load and some requests are still in
	// the air), then stop the HTTP front first (it drains handlers), then
	// the pool — the server's documented order.
	for finished.Load() < n/2 {
		time.Sleep(time.Millisecond)
	}
	ts.Close()
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(results)

	canonical := map[string]string{}
	completed := 0
	for r := range results {
		if r.err != nil {
			continue
		}
		switch r.code {
		case http.StatusOK:
		case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			// Load shedding under stress is allowed.
			continue
		default:
			t.Fatalf("%s: unexpected status %d: %s", r.key, r.code, r.body)
		}
		completed++
		var pr PredictResponse
		if err := json.Unmarshal([]byte(r.body), &pr); err != nil {
			t.Fatalf("%s: bad response body: %v", r.key, err)
		}
		if pr.Precision != r.precision {
			t.Fatalf("%s: answered with precision %q", r.key, pr.Precision)
		}
		if len(pr.Functions) != 1 || len(pr.Functions[0].Elements) == 0 {
			t.Fatalf("%s: empty predictions", r.key)
		}
		// Compare predictions only: cache_hits legitimately varies between
		// identical requests.
		preds := fmt.Sprint(pr.Functions)
		if prev, ok := canonical[r.key]; ok {
			if prev != preds {
				t.Errorf("%s: non-deterministic predictions under load:\n%s\n%s", r.key, prev, preds)
			}
		} else {
			canonical[r.key] = preds
		}
	}
	if completed == 0 {
		t.Fatal("no request completed before shutdown")
	}
	// A second shutdown stays a no-op.
	if err := s.Close(); err != nil {
		t.Fatalf("double shutdown: %v", err)
	}
}
