package ad

import (
	"math"
	"math/rand"
	"testing"
)

// groupedFixture builds S encoder blocks of T rows, L decoder rows, a
// row→block map with repeats (several rows sharing a block, one block
// unused), and a mask with ragged real lengths per block.
func groupedFixture(r *rand.Rand) (dec, enc *V, mask []float64, groups []int, T, H int) {
	const S = 3
	T, H = 5, 12
	enc = randV(r, S*T, H)
	groups = []int{0, 2, 0, 2, 2, 0} // block 1 unused; 0 and 2 shared
	dec = randV(r, len(groups), H)
	mask = make([]float64, S*T)
	lens := []int{T, 3, 4} // ragged real lengths, block 1 full
	for b, n := range lens {
		for tt := 0; tt < n; tt++ {
			mask[b*T+tt] = 1
		}
	}
	return dec, enc, mask, groups, T, H
}

// tileBlocks copies each row's encoder block and mask block into a
// per-row tile with plain copy: block l of the result is block
// groups[l] of enc, so the tile pairs with identity groups.
func tileBlocks(enc *V, mask []float64, groups []int, T int) (tile *V, tmask []float64) {
	stride := T * enc.C
	tile = New(len(groups)*T, enc.C)
	tmask = make([]float64, len(groups)*T)
	for l, g := range groups {
		copy(tile.W[l*stride:(l+1)*stride], enc.W[g*stride:(g+1)*stride])
		copy(tmask[l*T:(l+1)*T], mask[g*T:(g+1)*T])
	}
	return tile, tmask
}

// attnChain runs scores → masked softmax → context over enc's blocks.
func attnChain(tape *Tape, dec, enc *V, mask []float64, groups []int, T, H int) (scores, alpha, ctx *V) {
	scores = tape.AttnScores(dec, enc, groups, T)
	alpha = tape.SoftmaxRowsMasked(scores, mask, groups)
	ctx = tape.WeightedSum(alpha, enc, groups, H)
	return scores, alpha, ctx
}

// equalVals reports whether two values have the same shape and
// bitwise-identical storage at both precisions (W and W32).
func equalVals(a, b *V) bool {
	if !equalW(a, b) || len(a.W32) != len(b.W32) {
		return false
	}
	for i, x := range a.W32 {
		if math.Float32bits(x) != math.Float32bits(b.W32[i]) {
			return false
		}
	}
	return true
}

// TestGroupedAttnMatchesTiled pins shared-block reads bitwise to the
// same ops run with identity groups on a per-row tile of the blocks, on
// both the exact and the f32 forward paths: a row's arithmetic depends
// only on its own block, not on where the block is stored or how many
// rows share it — the equivalence the batched decoder's bitwise oracle
// rests on.
func TestGroupedAttnMatchesTiled(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() *Tape
	}{
		{"exact", func() *Tape { return NewForward(NewPool()) }},
		{"f32", func() *Tape { return NewForwardF32(NewPool()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(91))
			dec, enc, mask, groups, T, H := groupedFixture(r)
			tile, tmask := tileBlocks(enc, mask, groups, T)
			ws, wa, wc := attnChain(tc.mk(), dec, tile, tmask, identity(len(groups)), T, H)
			gs, ga, gc := attnChain(tc.mk(), dec, enc, mask, groups, T, H)
			if !equalVals(gs, ws) {
				t.Errorf("shared-block AttnScores differs from the per-row tile")
			}
			if !equalVals(ga, wa) {
				t.Errorf("shared-block SoftmaxRowsMasked differs from the per-row tile")
			}
			if !equalVals(gc, wc) {
				t.Errorf("shared-block WeightedSum differs from the per-row tile")
			}
		})
	}
}

// identity returns the row→block map groups[l] = l.
func identity(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// TestGroupedAttnFullyMaskedRow pins the fully-masked-block contract:
// all-zero attention weights and an all-zero context, matching
// SoftmaxRowsMasked.
func TestGroupedAttnFullyMaskedRow(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	T, H := 4, 6
	enc := randV(r, 2*T, H)
	dec := randV(r, 2, H)
	groups := []int{1, 0}
	mask := make([]float64, 2*T) // block 0 fully masked
	for tt := 0; tt < T; tt++ {
		mask[T+tt] = 1
	}
	tape := NewForward(NewPool())
	_, alpha, ctx := attnChain(tape, dec, enc, mask, groups, T, H)
	for tt := 0; tt < T; tt++ {
		if alpha.W[T+tt] != 0 {
			t.Fatalf("masked row alpha[%d] = %v, want 0", tt, alpha.W[T+tt])
		}
	}
	for j := 0; j < H; j++ {
		if ctx.W[H+j] != 0 {
			t.Fatalf("masked row ctx[%d] = %v, want 0", j, ctx.W[H+j])
		}
	}
}

// TestGroupedAttnBackwardMatchesTiled seeds identical output gradients
// through shared-block reads and through identity groups on a per-row
// tile (recording tapes), then scatter-adds the tile's gradient back
// onto the blocks in ascending row order. The decoder gradient is
// bitwise equal: each row's backward reads only its own block's values.
// A shared block's gradient is the same sum of per-row contributions
// in a different rounding order — the shared reads accumulate per op
// (all WeightedSum rows, then all AttnScores rows) where the tile sums
// both ops into each copy before the scatter — so it is compared
// near-exactly. When every block is read by exactly one row (a
// permutation; identity groups in particular) there is nothing to
// reorder and the block gradients are bitwise equal too.
func TestGroupedAttnBackwardMatchesTiled(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	dec, enc, mask, shared, T, H := groupedFixture(r)
	perm := []int{2, 0, 1} // every block read once, out of order
	for _, tc := range []struct {
		name    string
		dec     *V
		groups  []int
		bitwise bool
	}{
		{"shared", dec, shared, false},
		{"permutation", randV(r, len(perm), H), perm, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := func(v *V) {
				for i := range v.G {
					v.G[i] = 0.01*float64(i%7) - 0.03
				}
			}
			decT := New(tc.dec.R, H)
			copy(decT.W, tc.dec.W)
			tile, tmask := tileBlocks(enc, mask, tc.groups, T)
			tapeT := NewTape()
			_, _, ctxT := attnChain(tapeT, decT, tile, tmask, identity(len(tc.groups)), T, H)
			seed(ctxT)
			tapeT.Backward()
			stride := T * H
			wantEnc := make([]float64, len(enc.W))
			for l, g := range tc.groups {
				for k, gv := range tile.G[l*stride : (l+1)*stride] {
					wantEnc[g*stride+k] += gv
				}
			}

			decG := New(tc.dec.R, H)
			copy(decG.W, tc.dec.W)
			encG := New(enc.R, enc.C)
			copy(encG.W, enc.W)
			tapeG := NewTape()
			_, _, ctxG := attnChain(tapeG, decG, encG, mask, tc.groups, T, H)
			seed(ctxG)
			tapeG.Backward()

			if !equalWSlice(decG.G, decT.G) {
				t.Errorf("dec gradient differs from the per-row tile's")
			}
			for i, want := range wantEnc {
				got := encG.G[i]
				if tc.bitwise && math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("enc gradient[%d]: shared %v, tile %v (want bitwise)", i, got, want)
				}
				if diff := math.Abs(got - want); diff > 1e-12*(1+math.Abs(want)) {
					t.Fatalf("enc gradient[%d]: shared %v, tile %v", i, got, want)
				}
			}
		})
	}
}

// TestGroupedAttnAllocsSteadyState pins the pooled steady state: once
// the pool is warm, a full grouped attention step allocates nothing —
// and in particular never draws a width-scaled [L*T,H] tile buffer. The
// row count L stands in for beam width; the largest buffer the chain
// ever draws must stay the shared encoder matrix (or smaller), not
// L*T*H.
func TestGroupedAttnAllocsSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(94))
	dec, enc, mask, groups, T, H := groupedFixture(r)
	for _, tc := range []struct {
		name string
		mk   func(*Pool) *Tape
	}{
		{"exact", NewForward},
		{"f32", NewForwardF32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewPool()
			tape := tc.mk(pool)
			step := func() {
				attnChain(tape, dec, enc, mask, groups, T, H)
				tape.Reset()
			}
			step() // warm the pool
			if allocs := testing.AllocsPerRun(50, step); allocs > 0 {
				t.Errorf("grouped attention step allocates %v/run after warmup, want 0", allocs)
			}
			if tile := len(groups) * T * H; pool.MaxBufferElems() >= tile {
				t.Errorf("largest pooled buffer %d elems >= tile size %d: a width-scaled buffer is back",
					pool.MaxBufferElems(), tile)
			}
		})
	}
}
