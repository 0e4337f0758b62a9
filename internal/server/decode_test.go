package server

import (
	"bytes"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/wasm"
)

// TestRequestDecodesOncePerTaskModel pins request-wide decoding: an
// all-miss request for every function of the test binary runs exactly
// one batched decode per task model, covering every element, and each
// element equals what a per-element decode returns.
func TestRequestDecodesOncePerTaskModel(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	pred, bin := testPredictor(t)
	const k = 3

	resp, body := postWasm(t, ts.URL, bin, "k=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	pr := decodeResponse(t, body)
	if pr.CacheHits != 0 {
		t.Fatalf("cache_hits = %d on a cold server", pr.CacheHits)
	}
	m, err := core.DecodeStripped(bin)
	if err != nil {
		t.Fatal(err)
	}
	elems, params, returns := 0, 0, 0
	for _, fn := range pr.Functions {
		for name, got := range fn.Elements {
			elems++
			var src []string
			var tr *core.Trained
			if name == "return" {
				returns++
				src, err = pred.ReturnInput(m, fn.Index)
				tr = pred.Return
			} else {
				params++
				var pi int
				if _, err := fmt.Sscanf(name, "param%d", &pi); err != nil {
					t.Fatalf("element name %q: %v", name, err)
				}
				src, err = pred.ParamInput(m, fn.Index, pi)
				tr = pred.Param
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := tr.PredictTyped([][]string{src}, []int{k})[0]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: request-wide decode %+v, per-element decode %+v", fn.Name, name, got, want)
			}
		}
	}
	if params == 0 || returns == 0 {
		t.Fatalf("test binary needs parameter and return elements (got %d, %d)", params, returns)
	}
	if got := s.met.batchSize.Count(); got != 2 {
		t.Errorf("snowwhite_batch_size count = %d, want 2 (one decode per task model)", got)
	}
	if got := s.met.batchSize.Sum(); got != float64(elems) {
		t.Errorf("snowwhite_batch_size sum = %v, want %d (every element)", got, elems)
	}
	if got := s.met.predictions.Value(); got != int64(elems) {
		t.Errorf("snowwhite_predictions_total = %d, want %d", got, elems)
	}
}

// twinBinary compiles a module whose two functions have identical
// bodies, so they share a function hash and therefore cache keys.
func twinBinary(t *testing.T) []byte {
	t.Helper()
	obj, err := cc.Compile(`
int inc(int x) { return x + 1; }
int inc_again(int x) { return x + 1; }
`, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bin, _, err := wasm.Encode(obj.Module)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.DecodeStripped(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Funcs) != 2 || funcHash(m, 0) != funcHash(m, 1) {
		t.Fatalf("want two functions with one hash, got %d functions", len(m.Funcs))
	}
	return bin
}

// TestRepeatedBodyWithinRequest: with caching on, the second of two
// identical functions is answered from the first one's decode and counts
// as a cache hit; with caching off it counts as a miss and decodes
// again, as it did when functions were decoded one at a time.
func TestRepeatedBodyWithinRequest(t *testing.T) {
	bin := twinBinary(t)
	for _, tc := range []struct {
		name                      string
		cacheSize                 int
		hits, misses, predictions int64
	}{
		{"cache", 0, 2, 2, 2},
		{"nocache", -1, 0, 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{CacheSize: tc.cacheSize})
			resp, body := postWasm(t, ts.URL, bin, "k=2")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, body %s", resp.StatusCode, body)
			}
			pr := decodeResponse(t, body)
			if len(pr.Functions) != 2 {
				t.Fatalf("functions = %d, want 2", len(pr.Functions))
			}
			if len(pr.Functions[1].Elements) != 2 {
				t.Fatalf("second function has %d elements, want param0 and return", len(pr.Functions[1].Elements))
			}
			if !reflect.DeepEqual(pr.Functions[0].Elements, pr.Functions[1].Elements) {
				t.Errorf("identical functions predicted differently:\n%+v\n%+v", pr.Functions[0].Elements, pr.Functions[1].Elements)
			}
			if got := int64(pr.CacheHits); got != tc.hits {
				t.Errorf("cache_hits = %d, want %d", got, tc.hits)
			}
			if got := s.met.cacheHits.Value(); got != tc.hits {
				t.Errorf("snowwhite_cache_hits_total = %d, want %d", got, tc.hits)
			}
			if got := s.met.cacheMisses.Value(); got != tc.misses {
				t.Errorf("snowwhite_cache_misses_total = %d, want %d", got, tc.misses)
			}
			if got := s.met.predictions.Value(); got != tc.predictions {
				t.Errorf("snowwhite_predictions_total = %d, want %d", got, tc.predictions)
			}
		})
	}
}

// TestWorkerPanicRecovered: a request whose decode panics gets a 500 and
// bumps snowwhite_request_panics_total, and the single worker survives
// to serve the next request.
func TestWorkerPanicRecovered(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	pred, bin := testPredictor(t)
	broken := *pred.Param
	if err := s.RegisterModel("broken", &core.Predictor{Param: &broken, Return: pred.Return, Opts: pred.Opts}, nil, ModelSource{}); err != nil {
		t.Fatal(err)
	}
	broken.Model = nil // the next parameter decode on "broken" dereferences nil

	resp, err := http.Post(ts.URL+"/v1/models/broken/predict?func=first", "application/wasm", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking decode: status = %d, want 500", resp.StatusCode)
	}
	if got := s.met.panics.Value(); got != 1 {
		t.Errorf("snowwhite_request_panics_total = %d, want 1", got)
	}
	if resp, body := postWasm(t, ts.URL, bin, "func=first"); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic: status = %d, body %s", resp.StatusCode, body)
	}
}
