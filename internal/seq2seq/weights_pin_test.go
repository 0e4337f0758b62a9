package seq2seq

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// pinnedWeights is the SHA-256 of the Float64bits of every weight after
// fitWeightsHash's training run, per encoder. Training is bitwise
// deterministic, so any change to these hashes is a change to the
// training arithmetic (op order, accumulation order, dropout draws,
// initialization). Re-record them only for an intentional change, and
// say in the commit why the trained weights moved.
var pinnedWeights = map[string]string{
	EncoderBiLSTM:      "791aebba904036780ba0580ea9d53d57fd841997a8c6110041be34dcf3ad67d9",
	EncoderTransformer: "fefae4a3a3fded2d76792c933e6dbd641501f5ac13342ae808542e7a21a244d3",
}

// fitWeightsHash trains a tiny model of the given encoder on fixed toy
// data, with dropout and a validation split (so ValidLoss drives early
// stopping), and hashes the final weights in parameter order.
func fitWeightsHash(encoder string) string {
	r := rand.New(rand.NewSource(45))
	train := makeToyData(r, 48)
	valid := makeToyData(r, 12)
	cfg := testConfig()
	cfg.Epochs = 2
	cfg.Parallelism = 2
	cfg.Encoder = encoder
	var srcSeqs, tgtSeqs [][]string
	for _, p := range train {
		srcSeqs = append(srcSeqs, p.Src)
		tgtSeqs = append(tgtSeqs, p.Tgt)
	}
	m := NewModel(cfg, BuildVocab(srcSeqs, cfg.SrcVocab), BuildVocab(tgtSeqs, cfg.TgtVocab))
	m.Fit(train, valid, nil)
	h := sha256.New()
	var b [8]byte
	for _, w := range m.snapshot() {
		for _, x := range w {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFitWeightsPinned pins the trained weights of both encoders across
// commits: a refactor of the training path (tape ops, the decoder step,
// the encoders) must leave them bit-identical. Off amd64 the compiler
// may fuse multiply-adds in the float64 kernels, which changes rounding,
// so the pin holds on amd64 only.
func TestFitWeightsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("weights are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for name, enc := range map[string]string{"bilstm": EncoderBiLSTM, "transformer": EncoderTransformer} {
		t.Run(name, func(t *testing.T) {
			if got := fitWeightsHash(enc); got != pinnedWeights[enc] {
				t.Errorf("trained weights hash %s, pinned %s: the training arithmetic changed", got, pinnedWeights[enc])
			}
		})
	}
}
