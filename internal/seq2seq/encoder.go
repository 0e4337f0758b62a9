package seq2seq

import (
	"fmt"
	"math/rand"

	"repro/internal/ad"
	"repro/internal/nn"
)

// Encoder kinds. The paper's final model uses the bidirectional LSTM; the
// Transformer is the alternative the authors "also explored ... but did
// not find it improving accuracy" (Section 4.2), provided for the same
// comparison (EXPERIMENTS.md records ours).
const (
	EncoderBiLSTM      = ""
	EncoderTransformer = "transformer"
)

// ParseEncoder maps a user-facing encoder name (the -encoder flag) to a
// Config.Encoder value. The empty string and "bilstm" both select the
// paper's BiLSTM so existing configs and checkpoints read unchanged.
func ParseEncoder(s string) (string, error) {
	switch s {
	case "", "bilstm":
		return EncoderBiLSTM, nil
	case EncoderTransformer:
		return EncoderTransformer, nil
	}
	return "", fmt.Errorf("unknown encoder %q (want bilstm or transformer)", s)
}

// EncoderName returns the user-facing name of a Config.Encoder value.
func EncoderName(kind string) string {
	if kind == EncoderTransformer {
		return "transformer"
	}
	return "bilstm"
}

// encoder is the architecture boundary between the model and its source
// encoder. An implementation owns its parameters (registered at
// construction — registration order is serialization order, so each
// architecture's checkpoint layout is fixed by its constructor) and
// produces the `encoded` bundle the attention decoder consumes: the
// per-example state matrix, its attention mask, and the decoder's
// initial state. Everything downstream — training loss, beam search,
// batched decoding, f32 inference — is architecture-agnostic and
// works through this interface.
type encoder interface {
	// encode runs the encoder over a PAD-padded [B][T] batch; train
	// enables dropout (drawn from m.rng, so shard-seeded parallel
	// training stays deterministic for every architecture). Every op
	// used must be row-wise independent with fixed ascending-index
	// accumulation so batch row b is bitwise equal to encoding example b
	// alone — the property batched beam search relies on.
	encode(m *Model, t *ad.Tape, srcIDs [][]int, train bool) encoded
}

// newEncoder constructs the encoder cfg.Encoder selects, registering its
// parameters into p.
func newEncoder(p *nn.Params, r *rand.Rand, cfg Config) encoder {
	if cfg.Encoder == EncoderTransformer {
		return newTransformerEncoder(p, r, cfg)
	}
	return newBiLSTMEncoder(p, r, cfg)
}

// bilstmEncoder is the paper's encoder (Section 4.2): EncLayers stacked
// bidirectional LSTM layers, each direction sized Hidden/2.
type bilstmEncoder struct {
	fwd, bwd []*nn.LSTM
}

func newBiLSTMEncoder(p *nn.Params, r *rand.Rand, cfg Config) *bilstmEncoder {
	e := &bilstmEncoder{}
	half := cfg.Hidden / 2
	in := cfg.Embed
	for l := 0; l < cfg.EncLayers; l++ {
		e.fwd = append(e.fwd, nn.NewLSTM(p, name("enc.fwd", l), r, in, half))
		e.bwd = append(e.bwd, nn.NewLSTM(p, name("enc.bwd", l), r, in, half))
		in = cfg.Hidden // next layer consumes concatenated directions
	}
	return e
}

func (e *bilstmEncoder) encode(m *Model, t *ad.Tape, srcIDs [][]int, train bool) encoded {
	B := len(srcIDs)
	T := len(srcIDs[0])
	// Per-timestep masks and token ids, time-major, each one flat
	// allocation; flat is the example-major attention mask.
	masks := make([]float64, T*B)
	ids := make([]int, T*B)
	flat := make([]float64, B*T)
	for tt := 0; tt < T; tt++ {
		for b := 0; b < B; b++ {
			ids[tt*B+b] = srcIDs[b][tt]
			if srcIDs[b][tt] != PAD {
				masks[tt*B+b] = 1
				flat[b*T+tt] = 1
			}
		}
	}
	mask := func(tt int) []float64 { return masks[tt*B : (tt+1)*B] }
	// Layer-0 inputs: embeddings per timestep.
	inputs := make([]*ad.V, T)
	for tt := 0; tt < T; tt++ {
		inputs[tt] = m.embSrc.Lookup(t, ids[tt*B:(tt+1)*B])
	}

	var finalFwd, finalBwd nn.State
	fwdOut := make([]*ad.V, T)
	bwdOut := make([]*ad.V, T)
	for l := range e.fwd {
		// Each direction's input projection for the whole sequence is one
		// GEMM; the steps read their row blocks of it, and nothing reads
		// it after them — not even the backward pass.
		projF, projB := t.ProjectSteps(inputs, e.fwd[l].Wx), t.ProjectSteps(inputs, e.bwd[l].Wx)
		xwF, xwB := projF.RowBlocks(B), projB.RowBlocks(B)
		sf := e.fwd[l].ZeroState(t, B)
		for tt := 0; tt < T; tt++ {
			sf = e.fwd[l].StepMasked(t, inputs[tt], &xwF[tt], sf, mask(tt))
			fwdOut[tt] = sf.H
		}
		sb := e.bwd[l].ZeroState(t, B)
		for tt := T - 1; tt >= 0; tt-- {
			sb = e.bwd[l].StepMasked(t, inputs[tt], &xwB[tt], sb, mask(tt))
			bwdOut[tt] = sb.H
		}
		t.Free(projF, projB)
		next := make([]*ad.V, T)
		for tt := 0; tt < T; tt++ {
			h := t.ConcatCols(fwdOut[tt], bwdOut[tt])
			if train && m.Cfg.Dropout > 0 {
				h = t.Dropout(h, m.Cfg.Dropout, m.rng.Float64)
			}
			next[tt] = h
		}
		inputs = next
		finalFwd, finalBwd = sf, sb
	}
	stack := t.StackRows(inputs) // [B*T, H]

	// Bridge the final states into the decoder's initial state.
	hCat := t.ConcatCols(finalFwd.H, finalBwd.H)
	cCat := t.ConcatCols(finalFwd.C, finalBwd.C)
	init := nn.State{
		H: t.Tanh(m.bridgeH.Apply(t, hCat)),
		C: t.Tanh(m.bridgeC.Apply(t, cCat)),
	}
	return encoded{ops: attnOps{keys: stack, mask: flat, T: T}, init: init}
}
