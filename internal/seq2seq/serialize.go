package seq2seq

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"repro/internal/ad"
)

// modelState is the serialized form of a trained model. Weights are
// stored in parameter-registration order, which is deterministic given
// the config and vocabulary sizes.
type modelState struct {
	Cfg     Config
	SrcToks []string
	TgtToks []string
	Weights [][]float64
}

// Save writes the model (config, vocabularies, weights) to w.
func (m *Model) Save(w io.Writer) error {
	st := modelState{Cfg: m.Cfg, SrcToks: m.Src.toks, TgtToks: m.Tgt.toks}
	for _, v := range m.params.All() {
		st.Weights = append(st.Weights, v.W)
	}
	return gob.NewEncoder(w).Encode(st)
}

// Load reads a model previously written with Save.
func Load(r io.Reader) (*Model, error) {
	var st modelState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("seq2seq: load: %w", err)
	}
	m, err := modelFromState(st)
	if err != nil {
		return nil, fmt.Errorf("seq2seq: load: %w", err)
	}
	return m, nil
}

// Bounds on what a serialized Config may declare. A model file is
// untrusted input — the server loads operator-supplied paths at startup
// and through PUT /v1/models — and NewModel allocates every parameter
// (weights and gradients, 16 bytes each) straight from the Config, so
// it is checked against these before anything is allocated. The caps
// sit orders of magnitude above the paper's model (Hidden 512, Embed
// 100, two encoder layers, ~500-token vocabularies: about 5M
// parameters).
const (
	maxModelDim    = 1 << 16 // Hidden, Embed
	maxEncLayers   = 64
	maxSeqLen      = 1 << 16 // MaxSrcLen, MaxTgtLen
	maxModelParams = 1 << 26 // 1 GiB of weights and gradients
)

// validate checks a deserialized Config together with the vocabulary
// token lists the model will be built over, before NewModel allocates
// anything: dimensions and depth must be positive and bounded, a BiLSTM
// needs an even Hidden (each direction takes Hidden/2), each vocabulary
// must start with the special tokens and fit its Config cap, and the
// total parameter count must stay under maxModelParams.
func (cfg Config) validate(srcToks, tgtToks []string) error {
	if cfg.Encoder != EncoderBiLSTM && cfg.Encoder != EncoderTransformer {
		return fmt.Errorf("config: unknown encoder %q", cfg.Encoder)
	}
	if cfg.Hidden <= 0 || cfg.Hidden > maxModelDim {
		return fmt.Errorf("config: Hidden %d outside [1, %d]", cfg.Hidden, maxModelDim)
	}
	if cfg.Encoder == EncoderBiLSTM && cfg.Hidden%2 != 0 {
		return fmt.Errorf("config: Hidden %d is odd; each BiLSTM direction takes Hidden/2", cfg.Hidden)
	}
	if cfg.Embed <= 0 || cfg.Embed > maxModelDim {
		return fmt.Errorf("config: Embed %d outside [1, %d]", cfg.Embed, maxModelDim)
	}
	if cfg.EncLayers < 1 || cfg.EncLayers > maxEncLayers {
		return fmt.Errorf("config: EncLayers %d outside [1, %d]", cfg.EncLayers, maxEncLayers)
	}
	if cfg.MaxSrcLen > maxSeqLen || cfg.MaxTgtLen > maxSeqLen {
		return fmt.Errorf("config: MaxSrcLen %d / MaxTgtLen %d above %d", cfg.MaxSrcLen, cfg.MaxTgtLen, maxSeqLen)
	}
	for _, v := range []struct {
		name string
		toks []string
		cap  int
	}{{"source", srcToks, cfg.SrcVocab}, {"target", tgtToks, cfg.TgtVocab}} {
		if len(v.toks) < len(specials) || !slices.Equal(v.toks[:len(specials)], specials) {
			return fmt.Errorf("config: %s vocabulary does not start with the special tokens", v.name)
		}
		if v.cap < 0 || (v.cap > 0 && len(v.toks) > v.cap+len(specials)) {
			return fmt.Errorf("config: %s vocabulary has %d tokens, its cap %d allows at most %d",
				v.name, len(v.toks), v.cap, v.cap+len(specials))
		}
	}
	if n := cfg.paramCount(len(srcToks), len(tgtToks)); n > maxModelParams {
		return fmt.Errorf("config: %d parameters exceed the cap of %d", n, maxModelParams)
	}
	return nil
}

// paramCount is the number of scalar parameters NewModel registers for
// cfg over vocabularies of the given sizes, computed without building
// anything (TestParamCountMatchesModel holds it to NumParams). validate
// bounds every dimension first, so no product here can overflow.
func (cfg Config) paramCount(srcVocab, tgtVocab int) int {
	H, E := cfg.Hidden, cfg.Embed
	linear := func(in, out int) int { return in*out + out }
	lstm := func(in, h int) int { return in*4*h + h*4*h + 4*h }
	n := (srcVocab + tgtVocab) * E
	if cfg.Encoder == EncoderTransformer {
		n += linear(E, H)
		n += cfg.EncLayers * (4*linear(H, H) + 4*H + linear(H, 2*H) + linear(2*H, H))
	} else {
		for l := 0; l < cfg.EncLayers; l++ {
			in := E
			if l > 0 {
				in = H
			}
			n += 2 * lstm(in, H/2)
		}
	}
	n += 2 * linear(H, H)    // bridges
	n += lstm(E, H)          // decoder
	n += linear(2*H, H)      // combine
	n += linear(H, tgtVocab) // output projection
	return n
}

// modelFromState rebuilds a model from its serialized form.
func modelFromState(st modelState) (*Model, error) {
	if err := st.Cfg.validate(st.SrcToks, st.TgtToks); err != nil {
		return nil, err
	}
	src := vocabFromTokens(st.SrcToks)
	tgt := vocabFromTokens(st.TgtToks)
	m := NewModel(st.Cfg, src, tgt)
	params := m.params.All()
	if len(params) != len(st.Weights) {
		return nil, fmt.Errorf("%d weight tensors, model has %d", len(st.Weights), len(params))
	}
	for i, v := range params {
		if len(v.W) != len(st.Weights[i]) {
			return nil, fmt.Errorf("tensor %d has %d weights, model wants %d", i, len(st.Weights[i]), len(v.W))
		}
		copy(v.W, st.Weights[i])
	}
	return m, nil
}

// Params returns the model's parameter tensors in registration order —
// the same order Save serializes and NewModelFromWeights consumes.
// Read-only use (quantized export); mutating them mid-inference races
// with Predict.
func (m *Model) Params() []*ad.V { return m.params.All() }

// VocabTokens returns the source and target vocabulary token lists in
// serialization order (specials included).
func (m *Model) VocabTokens() (src, tgt []string) { return m.Src.toks, m.Tgt.toks }

// NewModelFromWeights rebuilds a model from its config, vocabulary
// token lists, and weight slices in registration order — the layout
// Save/Load use, exposed so quantized checkpoints (internal/quant) can
// reconstruct a model without going through gob.
func NewModelFromWeights(cfg Config, srcToks, tgtToks []string, weights [][]float64) (*Model, error) {
	m, err := modelFromState(modelState{Cfg: cfg, SrcToks: srcToks, TgtToks: tgtToks, Weights: weights})
	if err != nil {
		return nil, fmt.Errorf("seq2seq: from weights: %w", err)
	}
	return m, nil
}

// NewModelFromFill rebuilds a model letting the caller write each
// parameter tensor's storage directly, in registration order — the
// zero-copy loading hook for quantized checkpoints: fill(i, v)
// dequantizes straight into v.W (or v.W32 for the f32 engine) instead
// of materializing an intermediate [][]float64 that modelFromState
// would copy once more and discard. fill may drop storage the engine
// will never read (v.W and v.G on an f32-only load); the model must
// then stay on the matching engine.
func NewModelFromFill(cfg Config, srcToks, tgtToks []string, fill func(i int, v *ad.V) error) (*Model, error) {
	if err := cfg.validate(srcToks, tgtToks); err != nil {
		return nil, fmt.Errorf("seq2seq: from fill: %w", err)
	}
	m := NewModel(cfg, vocabFromTokens(srcToks), vocabFromTokens(tgtToks))
	for i, v := range m.params.All() {
		if err := fill(i, v); err != nil {
			return nil, fmt.Errorf("seq2seq: from fill: tensor %d: %w", i, err)
		}
	}
	return m, nil
}

// vocabFromTokens rebuilds a vocabulary from its serialized token list
// (which already includes the specials at the front).
func vocabFromTokens(toks []string) *Vocab {
	v := &Vocab{toks: toks, ids: make(map[string]int, len(toks))}
	for i, t := range toks {
		v.ids[t] = i
	}
	return v
}

// checkpointState is the serialized form of a training checkpoint: the
// current model (weights as of the last completed epoch) plus the
// TrainState needed to continue from there.
type checkpointState struct {
	Model modelState
	State TrainState
}

// SaveCheckpoint writes the model and its mid-training state to w.
// Feeding the result of LoadCheckpoint back into FitResume continues the
// run as if it had never been interrupted.
func (m *Model) SaveCheckpoint(w io.Writer, st *TrainState) error {
	ck := checkpointState{
		Model: modelState{Cfg: m.Cfg, SrcToks: m.Src.toks, TgtToks: m.Tgt.toks},
		State: *st,
	}
	for _, v := range m.params.All() {
		ck.Model.Weights = append(ck.Model.Weights, v.W)
	}
	return gob.NewEncoder(w).Encode(ck)
}

// LoadCheckpoint reads a checkpoint previously written with
// SaveCheckpoint, returning the reconstructed model and the training
// state to pass to FitResume. The checkpoint's Config is validated
// before the model is built (modelFromState), as for Load.
func LoadCheckpoint(r io.Reader) (*Model, *TrainState, error) {
	var ck checkpointState
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, nil, fmt.Errorf("seq2seq: load checkpoint: %w", err)
	}
	m, err := modelFromState(ck.Model)
	if err != nil {
		return nil, nil, fmt.Errorf("seq2seq: load checkpoint: %w", err)
	}
	return m, &ck.State, nil
}
