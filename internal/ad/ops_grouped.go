// Luong global-attention ops. One op set serves every attention in the
// model: the decoder's attention during training, validation, the
// sequential reference decoder and batched beam search, and the
// Transformer encoder's self-attention and mean pool. Each op takes a
// decoder batch of L rows, an encoder matrix of S consecutive [T,H]
// blocks, and a row→block map groups: row l attends over block
// groups[l], read in place.
//
// Training and the one-example-per-row callers pass identity groups
// (groups[l] = l, one block per batch row). Beam search passes each live
// hypothesis's search index, so every hypothesis of a search shares that
// search's block and the attention working set stays one block per
// search no matter how wide the beams are. A row's arithmetic depends
// only on its own decoder row and its block (fixed ascending-index
// accumulation), which is what keeps the batched decoder bitwise equal
// to the sequential reference (TestGroupedAttnMatchesTiled, and
// transitively TestPredictBatchedMatchesSequential in seq2seq).
package ad

import (
	"fmt"
	"math"
)

// checkGroups validates a row→block map against the block count.
func checkGroups(op string, groups []int, rows, blocks int) {
	if len(groups) != rows {
		panic(fmt.Sprintf("ad: %s %d groups for %d rows", op, len(groups), rows))
	}
	for _, g := range groups {
		if g < 0 || g >= blocks {
			panic(fmt.Sprintf("ad: %s group %d out of %d blocks", op, g, blocks))
		}
	}
}

// AttnScores computes Luong dot-product attention scores between a
// decoder batch dec [L,H] and encoder blocks enc [S*T,H] (S = enc.R/T
// consecutive [T,H] blocks): scores[l,t] = dec[l] · enc[groups[l]*T+t].
// Groups may repeat (all of a search's hypotheses share one block) and
// blocks may go unused; backward scatter-adds into the blocks in
// ascending row order.
func (t *Tape) AttnScores(dec, enc *V, groups []int, T int) *V {
	L, H := dec.R, dec.C
	if enc.C != H || T <= 0 || enc.R%T != 0 {
		panic(fmt.Sprintf("ad: AttnScores enc %dx%d for L=%d T=%d H=%d", enc.R, enc.C, L, T, H))
	}
	checkGroups("AttnScores", groups, L, enc.R/T)
	out := t.new(L, T)
	if t.f32 && !t.grad {
		attnScores32(out.W32, f32w(dec), f32w(enc), groups, T, H)
		return out
	}
	for l := 0; l < L; l++ {
		dl := dec.W[l*H : (l+1)*H]
		base := groups[l] * T
		for tt := 0; tt < T; tt++ {
			eb := enc.W[(base+tt)*H : (base+tt+1)*H]
			s := 0.0
			for j := 0; j < H; j++ {
				s += dl[j] * eb[j]
			}
			out.W[l*T+tt] = s
		}
	}
	if t.grad {
		gs := append([]int(nil), groups...)
		t.record(func() {
			for l, g := range gs {
				dl := dec.W[l*H : (l+1)*H]
				dg := dec.G[l*H : (l+1)*H]
				base := g * T
				for tt := 0; tt < T; tt++ {
					gv := out.G[l*T+tt]
					if gv == 0 {
						continue
					}
					eb := enc.W[(base+tt)*H : (base+tt+1)*H]
					eg := enc.G[(base+tt)*H : (base+tt+1)*H]
					for j := 0; j < H; j++ {
						dg[j] += gv * eb[j]
						eg[j] += gv * dl[j]
					}
				}
			}
		})
	}
	return out
}

// SoftmaxRowsMasked applies a softmax over each row of a [L,T] score
// matrix, treating positions where row l's mask block
// mask[groups[l]*T : (groups[l]+1)*T] is 0 as -inf (padding). A fully
// masked row yields all-zero attention.
func (t *Tape) SoftmaxRowsMasked(a *V, mask []float64, groups []int) *V {
	L, T := a.R, a.C
	if T <= 0 || len(mask)%T != 0 {
		panic(fmt.Sprintf("ad: SoftmaxRowsMasked mask %d for T=%d", len(mask), T))
	}
	checkGroups("SoftmaxRowsMasked", groups, L, len(mask)/T)
	if t.f32 && !t.grad {
		return t.softmaxRowsMaskedF32(a, mask, groups)
	}
	out := t.new(L, T)
	for l := 0; l < L; l++ {
		mb := mask[groups[l]*T : (groups[l]+1)*T]
		max := math.Inf(-1)
		for tt := 0; tt < T; tt++ {
			if mb[tt] != 0 && a.W[l*T+tt] > max {
				max = a.W[l*T+tt]
			}
		}
		if math.IsInf(max, -1) {
			continue // fully masked row: all-zero attention
		}
		sum := 0.0
		for tt := 0; tt < T; tt++ {
			if mb[tt] != 0 {
				e := math.Exp(a.W[l*T+tt] - max)
				out.W[l*T+tt] = e
				sum += e
			}
		}
		for tt := 0; tt < T; tt++ {
			out.W[l*T+tt] /= sum
		}
	}
	if t.grad {
		t.record(func() {
			for l := 0; l < L; l++ {
				// dL/dx_i = y_i * (g_i - sum_j g_j y_j)
				dot := 0.0
				for tt := 0; tt < T; tt++ {
					dot += out.G[l*T+tt] * out.W[l*T+tt]
				}
				for tt := 0; tt < T; tt++ {
					a.G[l*T+tt] += out.W[l*T+tt] * (out.G[l*T+tt] - dot)
				}
			}
		})
	}
	return out
}

// WeightedSum computes attention contexts: given weights alpha [L,T],
// encoder blocks enc [S*T,H] and a row→block map, returns ctx [L,H] with
// ctx[l] = sum_t alpha[l,t] * enc[groups[l]*T+t]. The exact path skips
// zero weights, so masked positions contribute exactly nothing; the f32
// path hands every block row to the fused axpy kernel.
func (t *Tape) WeightedSum(alpha, enc *V, groups []int, H int) *V {
	L, T := alpha.R, alpha.C
	if enc.C != H || T <= 0 || enc.R%T != 0 {
		panic(fmt.Sprintf("ad: WeightedSum enc %dx%d for L=%d T=%d H=%d", enc.R, enc.C, L, T, H))
	}
	checkGroups("WeightedSum", groups, L, enc.R/T)
	out := t.new(L, H)
	if t.f32 && !t.grad {
		weightedSum32(out.W32, f32w(alpha), f32w(enc), groups, T, H)
		return out
	}
	for l := 0; l < L; l++ {
		ob := out.W[l*H : (l+1)*H]
		base := groups[l] * T
		for tt := 0; tt < T; tt++ {
			w := alpha.W[l*T+tt]
			if w == 0 {
				continue
			}
			eb := enc.W[(base+tt)*H : (base+tt+1)*H]
			for j := 0; j < H; j++ {
				ob[j] += w * eb[j]
			}
		}
	}
	if t.grad {
		gs := append([]int(nil), groups...)
		t.record(func() {
			for l, g := range gs {
				og := out.G[l*H : (l+1)*H]
				base := g * T
				for tt := 0; tt < T; tt++ {
					eb := enc.W[(base+tt)*H : (base+tt+1)*H]
					eg := enc.G[(base+tt)*H : (base+tt+1)*H]
					w := alpha.W[l*T+tt]
					s := 0.0
					for j := 0; j < H; j++ {
						s += og[j] * eb[j]
						eg[j] += og[j] * w
					}
					alpha.G[l*T+tt] += s
				}
			}
		})
	}
	return out
}
