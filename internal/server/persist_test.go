package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// fillCache populates a cache with n distinct entries, alternating the
// two engine tiers, plus one get-touch so the LRU order is non-trivial.
func fillCache(c *lruCache, n int) {
	for i := 0; i < n; i++ {
		eng := ""
		if i%2 == 0 {
			eng = "f32"
		}
		k := cacheKey{model: [32]byte{0xAA}, fn: [32]byte{byte(i)}, elem: "param0", k: 5, engine: eng}
		c.put(k, preds(fmt.Sprintf("t%d", i)))
	}
	c.get(cacheKey{model: [32]byte{0xAA}, fn: [32]byte{0}, elem: "param0", k: 5, engine: "f32"})
}

// TestCacheSnapshotRoundTripDeterminism: snapshot → load → snapshot must
// be byte-identical, and the restored cache must match entry for entry in
// LRU order. Records of the retired fast-f64 tier (engine "fast", or
// its older encoding "fast":true) mixed into the log are dropped on
// replay like corrupt lines, so the compacted snapshot omits them.
func TestCacheSnapshotRoundTripDeterminism(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "snap1.jsonl")
	p2 := filepath.Join(dir, "snap2.jsonl")

	c := newLRUCache(16)
	fillCache(c, 8)
	n, err := snapshotTo(p1, c)
	if err != nil || n != 8 {
		t.Fatalf("snapshot: n=%d err=%v", n, err)
	}
	snap, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	fast := recordOf(cacheKey{model: [32]byte{0xAA}, fn: [32]byte{0xF0}, elem: "param0", k: 5}, preds("old"))
	fastLines := `{"model":"` + fast.Model + `","fn":"` + fast.Fn + `","elem":"param0","k":5,"engine":"fast","preds":[{"text":"old","tokens":["old"]}]}` + "\n" +
		`{"model":"` + fast.Model + `","fn":"` + fast.Fn + `","elem":"return","k":5,"fast":true,"preds":[{"text":"old","tokens":["old"]}]}` + "\n"
	log := filepath.Join(dir, "log.jsonl")
	if err := os.WriteFile(log, []byte(fastLines+string(snap)), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := newLRUCache(16)
	loaded, skipped, err := loadCacheFile(log, c2)
	if err != nil || loaded != 8 || skipped != 2 {
		t.Fatalf("load: loaded=%d skipped=%d err=%v, want 8 and 2", loaded, skipped, err)
	}
	e1, e2 := c.entries(), c2.entries()
	if len(e1) != len(e2) {
		t.Fatalf("entry count %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i].key != e2[i].key || e1[i].val[0].Text != e2[i].val[0].Text {
			t.Errorf("entry %d differs after round trip", i)
		}
	}

	if _, err := snapshotTo(p2, c2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("snapshot → load → snapshot not byte-identical:\n%s\nvs\n%s", b1, b2)
	}
}

// TestCacheLogTornTail: a crash mid-append leaves a torn last line; the
// replay must keep everything before it.
func TestCacheLogTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.jsonl")

	c := newLRUCache(16)
	fillCache(c, 4)
	if _, err := snapshotTo(path, c); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"model":"truncated mid-`)
	f.Close()

	c2 := newLRUCache(16)
	loaded, skipped, err := loadCacheFile(path, c2)
	if err != nil {
		t.Fatalf("torn tail should not error: %v", err)
	}
	if loaded != 4 || skipped != 1 {
		t.Errorf("loaded=%d skipped=%d, want 4 and 1", loaded, skipped)
	}
}

// TestCacheLogMissingAndForeign: a missing file is an empty cache;
// foreign records (bad hashes, empty preds) are skipped, not fatal.
func TestCacheLogMissingAndForeign(t *testing.T) {
	c := newLRUCache(4)
	loaded, skipped, err := loadCacheFile(filepath.Join(t.TempDir(), "nope.jsonl"), c)
	if err != nil || loaded != 0 || skipped != 0 {
		t.Fatalf("missing file: loaded=%d skipped=%d err=%v", loaded, skipped, err)
	}

	path := filepath.Join(t.TempDir(), "mixed.jsonl")
	good := recordOf(cacheKey{model: [32]byte{1}, fn: [32]byte{2}, elem: "return", k: 3}, preds("ok"))
	lines := []string{
		`{"model":"zz","fn":"zz","elem":"x","k":1,"preds":[{"text":"bad hex"}]}`,
		`{"model":"` + good.Model + `","fn":"` + good.Fn + `","elem":"return","k":3,"preds":[]}`,
		`{"model":"` + good.Model + `","fn":"` + good.Fn + `","elem":"return","k":3,"preds":[{"text":"ok","tokens":["ok"]}]}`,
	}
	if err := os.WriteFile(path, []byte(lines[0]+"\n"+lines[1]+"\n"+lines[2]+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, skipped, err = loadCacheFile(path, c)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 || skipped != 2 {
		t.Errorf("loaded=%d skipped=%d, want 1 and 2", loaded, skipped)
	}
}

// TestServerWarmStart is the end-to-end persistence property: a server
// with a CachePath answers, shuts down (compacting the log), and a fresh
// server over the same path answers the same request entirely from the
// replayed cache.
func TestServerWarmStart(t *testing.T) {
	pred, bin := testPredictor(t)
	path := filepath.Join(t.TempDir(), "cache.jsonl")

	post := func(s *Server) PredictResponse {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict?func=first", bytes.NewReader(bin))
		req.Header.Set("Content-Type", "application/wasm")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		return decodeResponse(t, rec.Body.Bytes())
	}

	s1, err := New(pred, Config{CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	cold := post(s1)
	if cold.CacheHits != 0 {
		t.Errorf("cold start: cache_hits = %d, want 0", cold.CacheHits)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(pred, Config{CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.met.cacheLoaded.Value(); got == 0 {
		t.Error("warm start replayed 0 entries")
	}
	warm := post(s2)
	wantElems := len(warm.Functions[0].Elements)
	if warm.CacheHits != wantElems {
		t.Errorf("warm start: cache_hits = %d, want %d (all elements replayed)", warm.CacheHits, wantElems)
	}
	// Warm answers must be identical to cold ones.
	if fmt.Sprint(cold.Functions) != fmt.Sprint(warm.Functions) {
		t.Error("warm-start predictions differ from the run that wrote the cache")
	}
}
