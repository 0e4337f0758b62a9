package seq2seq

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ad"
)

// TestParamCountMatchesModel holds the allocation-free parameter count
// validate uses to the parameters NewModel actually registers, for both
// encoders, several depths and vocabulary sizes.
func TestParamCountMatchesModel(t *testing.T) {
	for _, enc := range []string{EncoderBiLSTM, EncoderTransformer} {
		for _, layers := range []int{1, 2, 3} {
			cfg := testConfig()
			cfg.Encoder = enc
			cfg.EncLayers = layers
			m := NewModel(cfg, benchVocab("s", 37), benchVocab("t", 11))
			if got, want := cfg.paramCount(m.Src.Size(), m.Tgt.Size()), m.NumParams(); got != want {
				t.Errorf("%s layers=%d: paramCount %d, NumParams %d", EncoderName(enc), layers, got, want)
			}
		}
	}
}

// TestLoadRejectsHostileConfig feeds model files whose gob-decoded
// Config asks for impossible or absurd shapes through every loading
// entry point. Each must fail with a config error, and must fail before
// the model is built: rejecting one costs a handful of allocations (the
// error), never the parameter storage the Config describes.
func TestLoadRejectsHostileConfig(t *testing.T) {
	base := buildModel(t, testConfig(), makeToyData(rand.New(rand.NewSource(5)), 20))
	var buf bytes.Buffer
	if err := base.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var good modelState
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&good); err != nil {
		t.Fatal(err)
	}
	if _, err := modelFromState(good); err != nil {
		t.Fatalf("the unmodified model is rejected: %v", err)
	}

	cases := []struct {
		name string
		edit func(st *modelState)
	}{
		{"hidden zero", func(st *modelState) { st.Cfg.Hidden = 0 }},
		{"hidden negative", func(st *modelState) { st.Cfg.Hidden = -64 }},
		{"hidden odd for bilstm", func(st *modelState) { st.Cfg.Hidden = 33 }},
		{"hidden absurd", func(st *modelState) { st.Cfg.Hidden = 1 << 40 }},
		{"embed zero", func(st *modelState) { st.Cfg.Embed = 0 }},
		{"embed absurd", func(st *modelState) { st.Cfg.Embed = 1 << 30 }},
		{"no encoder layers", func(st *modelState) { st.Cfg.EncLayers = 0 }},
		{"absurd encoder depth", func(st *modelState) { st.Cfg.EncLayers = 1 << 20 }},
		{"unknown encoder", func(st *modelState) { st.Cfg.Encoder = "lstm" }},
		{"absurd target length", func(st *modelState) { st.Cfg.MaxTgtLen = 1 << 40 }},
		{"source vocab over its cap", func(st *modelState) { st.Cfg.SrcVocab = 2 }},
		{"target vocab over its cap", func(st *modelState) { st.Cfg.TgtVocab = 1 }},
		{"negative vocab cap", func(st *modelState) { st.Cfg.SrcVocab = -1 }},
		{"vocab without specials", func(st *modelState) { st.SrcToks = st.SrcToks[len(specials):] }},
		{"empty target vocab", func(st *modelState) { st.TgtToks = nil }},
		{"parameter count over the cap", func(st *modelState) {
			st.Cfg.Hidden, st.Cfg.Embed = 8192, 4096
		}},
	}
	for _, tc := range cases {
		st := good
		st.Cfg.SrcVocab, st.Cfg.TgtVocab = 0, 0 // uncapped unless the case caps
		tc.edit(&st)
		var file bytes.Buffer
		if err := gob.NewEncoder(&file).Encode(st); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(file.Bytes())); err == nil || !strings.Contains(err.Error(), "config:") {
			t.Errorf("%s: Load = %v, want a config error", tc.name, err)
		}
		var ck bytes.Buffer
		if err := gob.NewEncoder(&ck).Encode(checkpointState{Model: st}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadCheckpoint(bytes.NewReader(ck.Bytes())); err == nil || !strings.Contains(err.Error(), "config:") {
			t.Errorf("%s: LoadCheckpoint = %v, want a config error", tc.name, err)
		}
		filled := false
		_, err := NewModelFromFill(st.Cfg, st.SrcToks, st.TgtToks, func(int, *ad.V) error { filled = true; return nil })
		if err == nil || filled {
			t.Errorf("%s: NewModelFromFill = %v (fill called: %v), want a config error before any tensor", tc.name, err, filled)
		}
		if allocs := testing.AllocsPerRun(3, func() { modelFromState(st) }); allocs > 16 {
			t.Errorf("%s: rejecting the config made %.0f allocations — the model was (partly) built first", tc.name, allocs)
		}
	}
}
