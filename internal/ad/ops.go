package ad

import (
	"fmt"
	"math"
)

// SoftmaxCrossEntropy computes the mean masked cross-entropy between
// logits [B,V] and targets (len B). weights (len B) scales each example's
// contribution; zero weight masks padding. The result is a [1,1] scalar;
// the fused backward is the standard (softmax - onehot) * weight / norm.
func (t *Tape) SoftmaxCrossEntropy(logits *V, targets []int, weights []float64) *V {
	norm := 0.0
	for _, w := range weights {
		norm += w
	}
	if norm == 0 {
		norm = 1
	}
	return t.softmaxCE(logits, targets, weights, norm)
}

// SoftmaxCrossEntropySum is SoftmaxCrossEntropy without the weight
// normalization: the result is the summed weighted cross-entropy. Shard
// workers use it so per-shard losses compose exactly — the batch loss is
// the ordered sum of shard sums times one global 1/totalWeight, which is
// the same arithmetic at any shard count.
func (t *Tape) SoftmaxCrossEntropySum(logits *V, targets []int, weights []float64) *V {
	return t.softmaxCE(logits, targets, weights, 1)
}

func (t *Tape) softmaxCE(logits *V, targets []int, weights []float64, norm float64) *V {
	if t.f32 {
		// Training-only op: the f32 engine is inference-only by design
		// (see NewForwardF32). Fail loudly rather than silently reading
		// the absent float64 storage.
		panic("ad: SoftmaxCrossEntropy on an f32 tape")
	}
	if len(targets) != logits.R || len(weights) != logits.R {
		panic(fmt.Sprintf("ad: SoftmaxCrossEntropy %d logit rows, %d targets, %d weights", logits.R, len(targets), len(weights)))
	}
	B, Vc := logits.R, logits.C
	probs := t.scratch(B * Vc)
	loss := 0.0
	for i := 0; i < B; i++ {
		row := logits.W[i*Vc : (i+1)*Vc]
		max := row[0]
		for _, x := range row {
			if x > max {
				max = x
			}
		}
		sum := 0.0
		for j, x := range row {
			e := math.Exp(x - max)
			probs[i*Vc+j] = e
			sum += e
		}
		for j := range row {
			probs[i*Vc+j] /= sum
		}
		if weights[i] != 0 {
			p := probs[i*Vc+targets[i]]
			if p < 1e-12 {
				p = 1e-12
			}
			loss -= weights[i] * math.Log(p)
		}
	}
	out := t.new(1, 1)
	out.W[0] = loss / norm
	if t.grad {
		tg := append([]int(nil), targets...)
		wt := append([]float64(nil), weights...)
		t.record(func() {
			g := out.G[0] / norm
			for i := 0; i < B; i++ {
				if wt[i] == 0 {
					continue
				}
				for j := 0; j < Vc; j++ {
					d := probs[i*Vc+j]
					if j == tg[i] {
						d -= 1
					}
					logits.G[i*Vc+j] += g * wt[i] * d
				}
			}
		})
	}
	return out
}

// LogSoftmaxRow computes the log-softmax of a single row vector without
// recording gradients; used during inference (beam search).
func LogSoftmaxRow(row []float64) []float64 {
	return logSoftmaxRow(make([]float64, len(row)), row)
}

// LogSoftmaxRow on a tape draws the output buffer from the tape's pool:
// it lives until the tape's next ReleaseExcept or Reset, so callers in a
// recycled loop (beam search decode steps) get an allocation-free
// log-softmax. No gradients are recorded either way.
func (t *Tape) LogSoftmaxRow(row []float64) []float64 {
	return logSoftmaxRow(t.scratch(len(row)), row)
}

func logSoftmaxRow(out, row []float64) []float64 {
	max := row[0]
	for _, x := range row {
		if x > max {
			max = x
		}
	}
	sum := 0.0
	for _, x := range row {
		sum += math.Exp(x - max)
	}
	lse := max + math.Log(sum)
	for i, x := range row {
		out[i] = x - lse
	}
	return out
}

// StackRows builds a [len(vs)*B, C] matrix interleaved by example: row
// (b*T + t) is vs[t]'s row b. It converts a time-major sequence of [B,C]
// states into the example-major block layout the attention ops read
// with identity groups (block b holds example b's T states).
func (t *Tape) StackRows(vs []*V) *V {
	T := len(vs)
	B, C := vs[0].R, vs[0].C
	if t.f32 && !t.grad {
		return t.stackRowsF32(vs, T, B, C)
	}
	out := t.new(B*T, C)
	for tt, v := range vs {
		if v.R != B || v.C != C {
			panic("ad: StackRows shape mismatch")
		}
		for b := 0; b < B; b++ {
			copy(out.W[(b*T+tt)*C:(b*T+tt+1)*C], v.W[b*C:(b+1)*C])
		}
	}
	if t.grad {
		t.record(func() {
			for tt, v := range vs {
				for b := 0; b < B; b++ {
					for j := 0; j < C; j++ {
						v.G[b*C+j] += out.G[(b*T+tt)*C+j]
					}
				}
			}
		})
	}
	return out
}

// Blend returns mask*a + (1-mask)*b row-wise: rows of a where mask is 1,
// rows of b where mask is 0. Used to hold LSTM state constant across
// padding timesteps.
func (t *Tape) Blend(a, b *V, mask []float64) *V {
	sameShape("Blend", a, b)
	if len(mask) != a.R {
		panic("ad: Blend mask length mismatch")
	}
	if t.f32 && !t.grad {
		return t.blendF32(a, b, mask)
	}
	out := t.new(a.R, a.C)
	for i := 0; i < a.R; i++ {
		src := b
		if mask[i] != 0 {
			src = a
		}
		copy(out.W[i*a.C:(i+1)*a.C], src.W[i*a.C:(i+1)*a.C])
	}
	if t.grad {
		t.record(func() {
			for i := 0; i < a.R; i++ {
				dst := b
				if mask[i] != 0 {
					dst = a
				}
				for j := 0; j < a.C; j++ {
					dst.G[i*a.C+j] += out.G[i*a.C+j]
				}
			}
		})
	}
	return out
}
