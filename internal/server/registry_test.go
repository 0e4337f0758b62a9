package server

import (
	"bytes"
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
)

// TestModelRouting registers a second model and checks both path-based
// and default routing, plus 404 for unknown names.
func TestModelRouting(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	pred, bin := testPredictor(t)
	if err := s.RegisterModel("alt", pred, nil, ModelSource{}); err != nil {
		t.Fatal(err)
	}

	resp, body := postWasm(t, ts.URL, bin, "func=first")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default route: status %d body %s", resp.StatusCode, body)
	}
	if pr := decodeResponse(t, body); pr.Model != "default" || pr.Version != 1 {
		t.Errorf("default route answered by %q v%d", pr.Model, pr.Version)
	}

	r2, err := http.Post(ts.URL+"/v1/models/alt/predict?func=first", "application/wasm", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("named route: status %d body %s", r2.StatusCode, b2)
	}
	if pr := decodeResponse(t, b2); pr.Model != "alt" {
		t.Errorf("named route answered by %q", pr.Model)
	}

	r3, err := http.Post(ts.URL+"/v1/models/ghost/predict", "application/wasm", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r3.Body)
	r3.Body.Close()
	if r3.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model: status %d, want 404", r3.StatusCode)
	}

	// The query/envelope model field routes too.
	resp, body = postWasm(t, ts.URL, bin, "func=first&model=alt")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model query param: status %d body %s", resp.StatusCode, body)
	}
	if pr := decodeResponse(t, body); pr.Model != "alt" {
		t.Errorf("model query param answered by %q", pr.Model)
	}
}

// TestModelsAdminAPI exercises GET /v1/models and DELETE semantics.
func TestModelsAdminAPI(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	pred, _ := testPredictor(t)
	if err := s.RegisterModel("extra", pred, nil, ModelSource{}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Default string        `json:"default"`
		Models  []ModelStatus `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if listing.Default != "default" || len(listing.Models) != 2 {
		t.Fatalf("listing = %+v", listing)
	}
	for _, st := range listing.Models {
		if len(st.Fingerprint) != 64 {
			t.Errorf("model %q fingerprint %q is not a sha256 hex", st.Name, st.Fingerprint)
		}
		if st.Version != 1 {
			t.Errorf("model %q version %d, want 1", st.Name, st.Version)
		}
	}

	del := func(name string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/"+name, nil)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		return r.StatusCode
	}
	if code := del("extra"); code != http.StatusOK {
		t.Errorf("delete extra: %d", code)
	}
	if code := del("extra"); code != http.StatusNotFound {
		t.Errorf("delete missing: %d, want 404", code)
	}
	if code := del("default"); code != http.StatusBadRequest {
		t.Errorf("delete default: %d, want 400", code)
	}
}

// TestHotSwapVersionAndIsolation: re-registering a name bumps the
// version, keeps serving, and the same weights keep hitting the same
// cache entries (content-hash namespacing survives the swap).
func TestHotSwapVersionAndIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	pred, bin := testPredictor(t)

	_, body := postWasm(t, ts.URL, bin, "func=first")
	first := decodeResponse(t, body)
	if first.Version != 1 {
		t.Fatalf("version = %d, want 1", first.Version)
	}
	if err := s.RegisterModel("default", pred, nil, ModelSource{}); err != nil {
		t.Fatal(err)
	}
	resp, body := postWasm(t, ts.URL, bin, "func=first")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap status %d body %s", resp.StatusCode, body)
	}
	second := decodeResponse(t, body)
	if second.Version != 2 {
		t.Errorf("post-swap version = %d, want 2", second.Version)
	}
	// Same weights → same fingerprint → the swap serves from the cache the
	// old version populated.
	if wantElems := len(second.Functions[0].Elements); second.CacheHits != wantElems {
		t.Errorf("post-swap cache_hits = %d, want %d", second.CacheHits, wantElems)
	}
	if s.met.swaps.Value() != 1 {
		t.Errorf("swap counter = %d, want 1", s.met.swaps.Value())
	}
}

// TestHotSwapUnderLoad hammers the server with concurrent predictions
// while the default model hot-swaps repeatedly; run with -race. Zero
// failed requests is the acceptance bar: every response is a 200 with
// non-empty predictions, before, during, and after the swaps.
func TestHotSwapUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 8, QueueDepth: 256, RequestTimeout: 2 * time.Minute})
	pred, bin := testPredictor(t)

	var stop atomic.Bool
	var wg sync.WaitGroup
	failures := make(chan string, 256)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				fn := []string{"first", "length"}[i%2]
				resp, body := postWasm(t, ts.URL, bin, fmt.Sprintf("func=%s&k=%d", fn, 1+i%3))
				if resp.StatusCode != http.StatusOK {
					failures <- fmt.Sprintf("worker %d request %d: status %d body %s", g, i, resp.StatusCode, body)
					return
				}
				pr := decodeResponse(t, body)
				if len(pr.Functions) != 1 || len(pr.Functions[0].Elements) == 0 {
					failures <- fmt.Sprintf("worker %d request %d: empty predictions", g, i)
					return
				}
			}
		}(g)
	}
	for swap := 0; swap < 5; swap++ {
		time.Sleep(50 * time.Millisecond)
		if err := s.RegisterModel("default", pred, nil, ModelSource{}); err != nil {
			t.Errorf("swap %d: %v", swap, err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}
	if got := s.met.swaps.Value(); got != 5 {
		t.Errorf("swap counter = %d, want 5", got)
	}
	if es, err := s.acquireModel(""); err != nil {
		t.Errorf("post-swap acquire: %v", err)
	} else {
		if es.version != 6 {
			t.Errorf("final version = %d, want 6", es.version)
		}
		es.release()
	}
}

// TestReloadFromDisk saves the predictor, serves it via NewWithSource,
// and checks Reload hot-swaps it from the recorded path (the SIGHUP
// path), bumping the version without dropping requests.
func TestReloadFromDisk(t *testing.T) {
	pred, bin := testPredictor(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	if err := core.SavePredictor(pred, path); err != nil {
		t.Fatal(err)
	}
	s, err := NewWithSource(pred, Config{}, ModelSource{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	reloaded, err := s.Reload()
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if len(reloaded) != 1 || reloaded[0] != "default" {
		t.Fatalf("reloaded = %v, want [default]", reloaded)
	}
	st := s.Models()
	if len(st) != 1 || st[0].Version != 2 {
		t.Fatalf("post-reload status = %+v, want version 2", st)
	}

	// In-memory models (no Path) are skipped, not an error.
	if err := s.RegisterModel("mem", pred, nil, ModelSource{}); err != nil {
		t.Fatal(err)
	}
	reloaded, err = s.Reload()
	if err != nil || len(reloaded) != 1 {
		t.Fatalf("second reload = %v, %v; want just the disk-backed model", reloaded, err)
	}

	// The reloaded engines still serve.
	req := httptest.NewRequest(http.MethodPost, "/v1/predict?func=first", bytes.NewReader(bin))
	req.Header.Set("Content-Type", "application/wasm")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-reload predict: %d %s", rec.Code, rec.Body.String())
	}
}
