package seq2seq

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ad"
)

// TestLayerParamNamesUnique pins the layer-name regression: the old
// name() built layer suffixes with string(rune('0'+l)), so layers ≥ 10
// got garbled punctuation names (':' for 10, ';' for 11) instead of
// "10"/"11". A 12-layer config must register every layer under its
// decimal index, uniquely, for both encoder architectures.
func TestLayerParamNamesUnique(t *testing.T) {
	for _, tc := range []struct {
		encoder string
		want    []string
	}{
		{EncoderBiLSTM, []string{"enc.fwd10.Wx", "enc.fwd11.Wx", "enc.bwd11.Wh"}},
		{EncoderTransformer, []string{"tf.layer10.wq.W", "tf.layer11.ffn2.b", "tf.layer11.ln2g"}},
	} {
		t.Run(EncoderName(tc.encoder), func(t *testing.T) {
			cfg := testConfig()
			cfg.EncLayers = 12
			cfg.Encoder = tc.encoder
			voc := BuildVocab([][]string{{"a", "b"}}, 0)
			m := NewModel(cfg, voc, voc) // Params.Add panics on duplicates
			names := m.params.Names()
			seen := map[string]bool{}
			for _, n := range names {
				if seen[n] {
					t.Fatalf("duplicate parameter name %q", n)
				}
				seen[n] = true
			}
			for _, w := range tc.want {
				if !slices.Contains(names, w) {
					t.Errorf("parameter %q not registered; layer indices >= 10 garbled?", w)
				}
			}
		})
	}
}

// TestEncoderRegistrationOrderStable pins the serialization contract the
// interface refactor must not move: parameter registration order (which
// is the checkpoint weight order) keeps the encoder between the
// embeddings and the bridge, exactly where the pre-interface constructor
// put it.
func TestEncoderRegistrationOrderStable(t *testing.T) {
	voc := BuildVocab([][]string{{"a", "b"}}, 0)
	for _, enc := range []string{EncoderBiLSTM, EncoderTransformer} {
		cfg := testConfig()
		cfg.Encoder = enc
		names := NewModel(cfg, voc, voc).params.Names()
		if names[0] != "emb.src" || names[1] != "emb.tgt" {
			t.Fatalf("%s: embeddings not first: %v", EncoderName(enc), names[:2])
		}
		bridge := slices.Index(names, "bridge.h.W")
		if bridge < 0 {
			t.Fatalf("%s: bridge.h.W missing", EncoderName(enc))
		}
		for i := 2; i < bridge; i++ {
			prefix := "enc."
			if enc == EncoderTransformer {
				prefix = "tf."
			}
			if names[i][:len(prefix)] != prefix {
				t.Errorf("%s: name %q between embeddings and bridge is not an encoder parameter", EncoderName(enc), names[i])
			}
		}
		tail := names[bridge:]
		wantTail := []string{"bridge.h.W", "bridge.h.b", "bridge.c.W", "bridge.c.b",
			"dec.Wx", "dec.Wh", "dec.b", "combine.W", "combine.b", "out.W", "out.b"}
		if !slices.Equal(tail, wantTail) {
			t.Errorf("%s: post-encoder order %v, want %v", EncoderName(enc), tail, wantTail)
		}
	}
}

// TestPredictAttnWorkingSetWidthIndependent is the shared-attention
// memory regression test: the largest buffer beam decoding ever draws
// from its pool must not scale with beam width. The tiled decoder drew a
// [liveRows*Tmax, H] encoder copy every step — width times the packed
// encoder matrix — so reintroducing a tile trips both assertions.
func TestPredictAttnWorkingSetWidthIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	cfg := testConfig()
	cfg.MaxSrcLen = 60
	cfg.MaxTgtLen = 8
	m := buildModel(t, cfg, makeToyData(r, 80))

	srcs := make([][]string, 4)
	for i := range srcs {
		src := makeToyData(r, 8)
		for _, p := range src {
			srcs[i] = append(srcs[i], p.Src...)
		}
		srcs[i] = truncate(srcs[i], cfg.MaxSrcLen)
	}
	Tmax := 0
	for _, s := range srcs {
		if len(s) > Tmax {
			Tmax = len(s)
		}
	}

	maxBuf := func(width int) int {
		pool := ad.NewPool()
		ks := make([]int, len(srcs))
		for i := range ks {
			ks[i] = width
		}
		if _, err := m.predictMultiOn(ad.NewForward(pool), srcs, ks, nil); err != nil {
			t.Fatal(err)
		}
		return pool.MaxBufferElems()
	}

	H := m.Cfg.Hidden
	// The encoder's hoisted input projection — one direction's x·Wx for
	// the whole padded group, [S*Tmax, 4*(H/2)] — is the largest buffer
	// a decode draws; it is twice the shared [S*Tmax,H] operand cache
	// attention reads.
	projElems := len(srcs) * Tmax * 2 * H
	narrow, wide := maxBuf(5), maxBuf(20)
	// At narrow width the encoder projection is the biggest thing in the
	// pool: no attention buffer exceeds that width-independent bound.
	if narrow != projElems {
		t.Errorf("width 5: max pooled buffer %d elems, want the encoder input projection (%d)", narrow, projElems)
	}
	// At any width, the only buffers allowed to scale with the live-row
	// count L are the decoder's own [L,·] matrices — the largest being
	// the LSTM gate matrix [L,4H]. A tiled attention path would draw
	// [L*Tmax,H] (Tmax/4 times bigger); both checks catch it.
	gates := len(srcs) * 20 * 4 * H
	if wide > max(projElems, gates) {
		t.Errorf("width 20: max pooled buffer %d elems exceeds both the encoder input projection (%d) and the decoder gate batch (%d): an attention buffer is scaling with width", wide, projElems, gates)
	}
	// Here the decoder's gate batch at width 20 stays below the
	// projection, so the peak must not move with width at all.
	if gates < projElems && wide != narrow {
		t.Errorf("max pooled buffer %d elems at width 20, %d at width 5: the peak moved with beam width", wide, narrow)
	}
	if tile := len(srcs) * 20 * Tmax * H; wide >= tile {
		t.Errorf("max pooled buffer %d elems >= width-scaled tile %d", wide, tile)
	}
}

// buildModel trains nothing: it builds an initialized model over the
// pairs' vocabulary, enough for decode-path structure tests.
func buildModel(t *testing.T, cfg Config, pairs []Pair) *Model {
	t.Helper()
	var srcs, tgts [][]string
	for _, p := range pairs {
		srcs = append(srcs, p.Src)
		tgts = append(tgts, p.Tgt)
	}
	return NewModel(cfg, BuildVocab(srcs, cfg.SrcVocab), BuildVocab(tgts, cfg.TgtVocab))
}
