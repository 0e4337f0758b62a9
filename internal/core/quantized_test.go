package core

import (
	"bytes"
	"crypto/sha256"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/quant"
	"repro/internal/seq2seq"
	"repro/internal/typelang"
)

// TestQuantizedExportLoadRoundTrip: exporting a predictor in each
// quantization mode and loading it back yields a working f32 predictor,
// and the on-disk round trip agrees exactly with the in-memory
// QuantizePredictor (both decode the same dequantized weights, and f32
// inference is deterministic). A quantized load quantizes again, as
// serving one with an in-memory f32 sibling does.
func TestQuantizedExportLoadRoundTrip(t *testing.T) {
	d := buildTestDataset(t)
	_, param := d.RunTask(Task{Variant: typelang.VariantLSW}, nil)
	_, ret := d.RunTask(Task{Variant: typelang.VariantLSW, Return: true}, nil)
	p := &Predictor{Param: param, Return: ret, Opts: d.Cfg.Extract}
	src := []string{"i32", "<begin>", "local.get", "<param>", ";", "f64.load", "offset=8"}

	for _, mode := range []quant.Mode{quant.F32, quant.Int8} {
		path := filepath.Join(t.TempDir(), "model.qbin")
		if err := ExportQuantized(p, path, mode); err != nil {
			t.Fatalf("ExportQuantized(%s): %v", mode, err)
		}
		got, err := LoadQuantizedPredictor(path)
		if err != nil {
			t.Fatalf("LoadQuantizedPredictor(%s): %v", mode, err)
		}
		if got.Param == nil || got.Return == nil {
			t.Fatal("loaded quantized predictor missing models")
		}
		if got.Param.Model.Precision() != "f32" || got.Return.Model.Precision() != "f32" {
			t.Errorf("%s: quantized load did not land on the f32 engine", mode)
		}
		if got.Param.Task != p.Param.Task || got.Return.Task != p.Return.Task {
			t.Errorf("%s: task metadata lost in round trip", mode)
		}
		if (got.Param.BPE == nil) != (p.Param.BPE == nil) {
			t.Errorf("%s: BPE presence differs after round trip", mode)
		}

		mem, err := QuantizePredictor(p, mode)
		if err != nil {
			t.Fatalf("QuantizePredictor(%s): %v", mode, err)
		}
		a := got.Param.Predict(src, 5)
		b := mem.Param.Predict(src, 5)
		if len(a) == 0 {
			t.Fatalf("%s: quantized predictor returned no predictions", mode)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: disk and in-memory quantization disagree:\n%v\n%v", mode, a, b)
		}
		again, err := QuantizePredictor(got, mode)
		if err != nil {
			t.Fatalf("QuantizePredictor(quantized load, %s): %v", mode, err)
		}
		if len(again.Param.Predict(src, 5)) == 0 {
			t.Fatalf("%s: re-quantized predictor returned no predictions", mode)
		}
	}
}

// TestLoadPredictorAuto routes both on-disk formats to the right loader.
func TestLoadPredictorAuto(t *testing.T) {
	d := buildTestDataset(t)
	_, param := d.RunTask(Task{Variant: typelang.VariantLSW}, nil)
	p := &Predictor{Param: param, Opts: d.Cfg.Extract}
	dir := t.TempDir()

	full := filepath.Join(dir, "full.bin")
	if err := SavePredictor(p, full); err != nil {
		t.Fatal(err)
	}
	quantized := filepath.Join(dir, "quant.bin")
	if err := ExportQuantized(p, quantized, quant.Int8); err != nil {
		t.Fatal(err)
	}

	gotFull, err := LoadPredictorAuto(full)
	if err != nil {
		t.Fatalf("auto-load full-precision: %v", err)
	}
	if pr := gotFull.Param.Model.Precision(); pr != "f64" {
		t.Errorf("full-precision auto-load runs on %s, want f64", pr)
	}
	gotQuant, err := LoadPredictorAuto(quantized)
	if err != nil {
		t.Fatalf("auto-load quantized: %v", err)
	}
	if pr := gotQuant.Param.Model.Precision(); pr != "f32" {
		t.Errorf("quantized auto-load runs on %s, want f32", pr)
	}

	// The quantized loader must refuse the full-precision format.
	if _, err := LoadQuantizedPredictor(full); err == nil {
		t.Error("LoadQuantizedPredictor accepted a full-precision file")
	}
	if _, err := LoadQuantizedPredictor(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("LoadQuantizedPredictor accepted a missing file")
	}
}

// TestQuantizedF32Load: quantized loads dequantize straight into
// float32 parameter storage — the float64 weight and gradient buffers
// are dropped, the models are pinned to the f32 engine, and predictions
// are deterministic.
func TestQuantizedF32Load(t *testing.T) {
	d := buildTestDataset(t)
	_, param := d.RunTask(Task{Variant: typelang.VariantLSW}, nil)
	_, ret := d.RunTask(Task{Variant: typelang.VariantLSW, Return: true}, nil)
	p := &Predictor{Param: param, Return: ret, Opts: d.Cfg.Extract}
	src := []string{"i32", "<begin>", "local.get", "<param>", ";", "f64.load", "offset=8"}

	for _, mode := range []quant.Mode{quant.F32, quant.Int8} {
		path := filepath.Join(t.TempDir(), "model.qbin")
		if err := ExportQuantized(p, path, mode); err != nil {
			t.Fatalf("ExportQuantized(%s): %v", mode, err)
		}
		got, err := LoadQuantizedPredictor(path)
		if err != nil {
			t.Fatalf("LoadQuantizedPredictor(%s): %v", mode, err)
		}
		for _, tr := range []*Trained{got.Param, got.Return} {
			if pr := tr.Model.Precision(); pr != "f32" {
				t.Fatalf("%s: model precision = %q, want f32", mode, pr)
			}
			for i, v := range tr.Model.Params() {
				if v.W != nil || v.G != nil {
					t.Fatalf("%s: tensor %d kept float64 storage after f32 load", mode, i)
				}
				if len(v.W32) != v.R*v.C {
					t.Fatalf("%s: tensor %d W32 has %d elems, want %d", mode, i, len(v.W32), v.R*v.C)
				}
			}
		}

		a := got.Param.Predict(src, 5)
		if len(a) == 0 {
			t.Fatalf("%s: f32 quantized predictor returned no predictions", mode)
		}
		if b := got.Param.Predict(src, 5); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: f32 predictions not deterministic:\n%v\n%v", mode, a, b)
		}
	}
}

// fingerprintFixture is a small full-precision predictor with
// deterministic weights — no training and no random initialization
// survive — so its fingerprint is a fixed function of the
// serialization format.
func fingerprintFixture() *Predictor {
	cfg := seq2seq.DefaultConfig()
	cfg.Hidden, cfg.Embed, cfg.EncLayers = 8, 6, 1
	src := seq2seq.BuildVocab([][]string{{"i32", "local.get", "<param>", ";", "f64.load"}}, 16)
	tgt := seq2seq.BuildVocab([][]string{{"int", "float", "pointer", "struct"}}, 16)
	m := seq2seq.NewModel(cfg, src, tgt)
	for i, v := range m.Params() {
		for j := range v.W {
			v.W[j] = float64((31*i+17*j)%97)/97 - 0.5
		}
	}
	return &Predictor{Param: &Trained{Task: Task{Variant: typelang.VariantLSW}, Model: m}, Opts: DefaultConfig().Extract}
}

// TestFingerprintPredictor pins the content hash the serving cache is
// namespaced by. A full-precision predictor hashes exactly its Save
// stream, as it always has, so persisted cache entries stay valid. (The
// check recomputes that hash rather than comparing a constant: gob
// numbers wire types process-wide in first-use order, so the Save bytes
// depend on which gob types the process encoded or decoded before.) An
// f32-resident predictor has no float64 weights for Save to write, so
// its float32 weights must enter the hash: two quantizations of one
// predictor that differ only in those weights must not share a
// namespace, while the same quantization fingerprints the same twice.
func TestFingerprintPredictor(t *testing.T) {
	p := fingerprintFixture()
	full, err := FingerprintPredictor(p)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte{1})
	if err := p.Param.Save(h); err != nil {
		t.Fatal(err)
	}
	h.Write([]byte{0})
	if want := h.Sum(nil); !bytes.Equal(full[:], want) {
		t.Errorf("full-precision fingerprint = %x, want the Save-stream hash %x", full, want)
	}
	fps := map[quant.Mode][32]byte{}
	for _, mode := range []quant.Mode{quant.Int8, quant.F32} {
		for range 2 {
			q, err := QuantizePredictor(p, mode)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := FingerprintPredictor(q)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := fps[mode]; ok && prev != fp {
				t.Errorf("%s: re-quantizing changed the fingerprint", mode)
			}
			fps[mode] = fp
		}
		if fps[mode] == full {
			t.Errorf("%s: f32-resident predictor shares the full-precision fingerprint", mode)
		}
	}
	if fps[quant.Int8] == fps[quant.F32] {
		t.Errorf("int8 and f32 quantizations share fingerprint %x", fps[quant.Int8])
	}
}
