package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bpe"
	"repro/internal/cc"
	"repro/internal/dwarf"
	"repro/internal/seq2seq"
)

// syntheticTrained builds an untrained Trained artifact with a real BPE
// model, enough to exercise the batch prediction path end to end
// (equivalence of PredictTyped and Predict does not depend on weights).
func syntheticTrained() *Trained {
	freq := map[string]int{}
	var srcs, tgts [][]string
	for i := 0; i < 40; i++ {
		src := []string{"i32", fmt.Sprintf("local.get_%d", i%7), "i32.add", fmt.Sprintf("call_%d", i%5)}
		tgt := []string{"pointer", "primitive", "int", "32"}
		if i%3 == 0 {
			tgt = []string{"primitive", "float", "64"}
		}
		for _, tok := range src {
			freq[tok]++
		}
		srcs = append(srcs, src)
		tgts = append(tgts, tgt)
	}
	sub := bpe.Learn(freq, 80)
	enc := make([][]string, len(srcs))
	for i, s := range srcs {
		enc[i] = sub.Encode(s)
	}
	cfg := seq2seq.DefaultConfig()
	cfg.Hidden = 32
	cfg.Embed = 24
	m := seq2seq.NewModel(cfg, seq2seq.BuildVocab(enc, 0), seq2seq.BuildVocab(tgts, 0))
	return &Trained{Model: m, BPE: sub}
}

// TestPredictTypedMatchesPredict pins the batched prediction entry point
// to the per-query path: slot i of PredictTyped must be exactly the
// wrapped Predict(srcs[i], ks[i]) — same BPE encoding, empty-beam
// filtering, and fallback — across mixed beam widths and more queries
// than one decode group.
func TestPredictTypedMatchesPredict(t *testing.T) {
	tr := syntheticTrained()
	var srcs [][]string
	var ks []int
	for i := 0; i < 11; i++ {
		srcs = append(srcs, []string{"i32", fmt.Sprintf("local.get_%d", i%7), "i32.add", fmt.Sprintf("call_%d", i%5)})
		ks = append(ks, []int{1, 5, 3}[i%3])
	}
	got := tr.PredictTyped(srcs, ks)
	if len(got) != len(srcs) {
		t.Fatalf("PredictTyped returned %d results for %d queries", len(got), len(srcs))
	}
	for i := range srcs {
		want := wrap(tr.Predict(srcs[i], ks[i]))
		if len(got[i]) != len(want) {
			t.Errorf("query %d (k=%d): batched %d beams, sequential %d", i, ks[i], len(got[i]), len(want))
			continue
		}
		sum := 0.0
		for j := range want {
			if !reflect.DeepEqual(got[i][j].Tokens, want[j].Tokens) || got[i][j].Text != want[j].Text {
				t.Errorf("query %d beam %d: batched %v, sequential %v", i, j, got[i][j], want[j])
			}
			if j > 0 && got[i][j].Confidence > got[i][j-1].Confidence+1e-12 {
				t.Errorf("query %d: confidence not non-increasing at beam %d", i, j)
			}
			sum += got[i][j].Confidence
		}
		fallback := len(got[i]) == 1 && got[i][0].Text == "unknown"
		if !fallback && (sum < 1-1e-9 || sum > 1+1e-9) {
			t.Errorf("query %d: confidences sum to %v, want 1", i, sum)
		}
	}
}

// TestInputAccessors checks the extraction accessors the server uses:
// they produce the exact sequences PredictParam/PredictReturn feed the
// models, and reject the same invalid indices.
func TestInputAccessors(t *testing.T) {
	obj, err := cc.Compile(`
double scale(double *xs, int n) {
	if (xs != 0 && n > 0) { return xs[0] * 2.0; }
	return 0.0;
}
`, cc.Options{Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	dwarf.Strip(obj.Module)
	p := &Predictor{Opts: DefaultConfig().Extract}

	in, err := p.ParamInput(obj.Module, 0, 0)
	if err != nil || len(in) == 0 {
		t.Fatalf("ParamInput: %v (len %d)", err, len(in))
	}
	rin, err := p.ReturnInput(obj.Module, 0)
	if err != nil || len(rin) == 0 {
		t.Fatalf("ReturnInput: %v (len %d)", err, len(rin))
	}
	if reflect.DeepEqual(in, rin) {
		t.Error("param and return inputs unexpectedly identical")
	}
	if _, err := p.ParamInput(obj.Module, 0, 9); err == nil {
		t.Error("bad param index accepted")
	}
	if _, err := p.ParamInput(obj.Module, 99, 0); err == nil {
		t.Error("bad function index accepted")
	}
	if _, err := p.ReturnInput(obj.Module, 99); err == nil {
		t.Error("bad function index accepted")
	}
}
