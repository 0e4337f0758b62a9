package ad

import (
	"fmt"
	"math"
)

// ProjectSteps computes xs[s]·w for every step s of a sequence as one
// GEMM over the time-major stack of the xs: the result is
// [len(xs)*B, w.C] and row block s (rows [s*B, (s+1)*B)) is step s's
// product. It is the hoisted input projection of a recurrent layer —
// one band-blocked GEMM instead of one small GEMM per timestep, which
// for a batch of fewer than four rows never reaches the blocked kernel
// at all. Float64 rows do not depend on how many rows share the GEMM
// (the kernels' per-row ascending-p contract), so each block is bitwise
// equal to the per-step product.
//
// It records no backward pass: the product is storage for LSTMCell's xw
// operand, and each cell replays its own step's x·w gradient products.
// Nothing reads the result after the steps, on any tape, so the tape
// does not track it: hand it back with Free once the layer is done. It
// carries no gradient storage.
func (t *Tape) ProjectSteps(xs []*V, w *V) *V {
	B, K, C := xs[0].R, w.R, w.C
	for _, x := range xs {
		if x.R != B || x.C != K {
			panic(fmt.Sprintf("ad: ProjectSteps step %dx%d, want %dx%d", x.R, x.C, B, K))
		}
	}
	R := len(xs) * B
	stack, out := t.tmp(R*K), t.tmp(R*C)
	out.R, out.C = R, C
	if t.F32() {
		for s, x := range xs {
			copy(stack.W32[s*B*K:], f32w(x))
		}
		matmul32(out.W32, stack.W32, f32w(w), R, K, C)
	} else {
		for s, x := range xs {
			copy(stack.W[s*B*K:], x.W)
		}
		matmul(out.W, stack.W, w.W, R, K, C)
	}
	t.Free(stack)
	return out
}

// LSTMCell advances an LSTM layer one timestep in a single tape op:
//
//	z  = (x·wx + h·wh) + b        [B,4H]: gate blocks i | f | g | o
//	c' = σ(z_f)⊙c + σ(z_i)⊙tanh(z_g)
//	h' = σ(z_o)⊙tanh(c')
//
// x is [B,in], h and c are the previous state [B,H], wx [in,4H],
// wh [H,4H], b [1,4H]. Rows whose mask entry is 0 keep h and c
// unchanged (padding timesteps); a nil mask advances every row. xw,
// when non-nil, is x·wx already computed — a [B,4H] row block of
// ProjectSteps — and the op skips its own input GEMM; the backward pass
// still accumulates this step's x and wx gradients.
//
// It stands for the composition MatMul, MatMul, Add, Add (bias), four
// SliceCols, three Sigmoid, two Tanh, three Mul and one Add, plus two
// Blend when masked, and on float64 tapes it is bitwise equal to it in
// values and in all six gradients (x, h, c, wx, wh, b): the forward pass
// evaluates the same scalar expressions in the same order, with
// explicit float64 conversions around products so that no fused
// multiply-add can form, and the backward pass adds into each external
// gradient in the order the composed ops' closures did. On f32 tapes
// the gate nonlinearities run through the vector exp like
// Sigmoid/Tanh do.
func (t *Tape) LSTMCell(x, xw, h, c, wx, wh, b *V, mask []float64) (hOut, cOut *V) {
	B, H := h.R, h.C
	G := 4 * H
	if x.R != B || wx.R != x.C || wx.C != G || wh.R != H || wh.C != G ||
		b.R != 1 || b.C != G || c.R != B || c.C != H ||
		(xw != nil && (xw.R != B || xw.C != G)) || (mask != nil && len(mask) != B) {
		panic(fmt.Sprintf("ad: LSTMCell x %dx%d h %dx%d c %dx%d wx %dx%d wh %dx%d b %dx%d",
			x.R, x.C, h.R, h.C, c.R, c.C, wx.R, wx.C, wh.R, wh.C, b.R, b.C))
	}
	if t.f32 && !t.grad {
		return t.lstmCellF32(x, xw, h, c, wx, wh, b, mask)
	}
	// gates holds h·wh, then z, then the activated gates in place.
	gates, gatesBuf := t.opBuf(B * G)
	matmul(gates, h.W, wh.W, B, H, G)
	var zx []float64
	var zxBuf *V
	if xw != nil {
		zx = xw.W
	} else {
		zx, zxBuf = t.opBuf(B * G)
		matmul(zx, x.W, wx.W, B, x.C, G)
	}
	hOut, cOut = t.new(B, H), t.new(B, H)
	var tc []float64 // tanh(c'), kept for the backward pass
	if t.grad {
		tc = t.scratch(B * H)
	}
	for r := 0; r < B; r++ {
		zr := gates[r*G : (r+1)*G : (r+1)*G]
		xr := zx[r*G : (r+1)*G : (r+1)*G]
		for j := range zr {
			zr[j] = (xr[j] + zr[j]) + b.W[j]
		}
		advance := mask == nil || mask[r] != 0
		for j := 0; j < H; j++ {
			k := r*H + j
			ig := 1 / (1 + math.Exp(-zr[j]))
			fg := 1 / (1 + math.Exp(-zr[H+j]))
			gg := math.Tanh(zr[2*H+j])
			og := 1 / (1 + math.Exp(-zr[3*H+j]))
			zr[j], zr[H+j], zr[2*H+j], zr[3*H+j] = ig, fg, gg, og
			cn := float64(fg*c.W[k]) + float64(ig*gg)
			y := math.Tanh(cn)
			if tc != nil {
				tc[k] = y
			}
			if advance {
				hOut.W[k], cOut.W[k] = og*y, cn
			} else {
				hOut.W[k], cOut.W[k] = h.W[k], c.W[k]
			}
		}
	}
	if t.grad {
		// dz reuses the input-product scratch when the cell owns it.
		dz := zx
		if xw != nil {
			dz = t.scratch(B * G)
		}
		t.recordLSTMCell(x, h, c, wx, wh, b, hOut, cOut, mask, gates, tc, dz)
	}
	t.Free(gatesBuf, zxBuf)
	return hOut, cOut
}

// recordLSTMCell records LSTMCell's backward pass. gates holds the
// activated gates, tc tanh(c'), and dz is [B,4H] scratch for the gate
// pre-activation gradients. Kept out of LSTMCell so that forward tapes
// never pay for the closure's captured variables.
func (t *Tape) recordLSTMCell(x, h, c, wx, wh, b, hOut, cOut *V, mask, gates, tc, dz []float64) {
	B, H := h.R, h.C
	G := 4 * H
	t.record(func() {
		for r := 0; r < B; r++ {
			zr := gates[r*G : (r+1)*G : (r+1)*G]
			dr := dz[r*G : (r+1)*G : (r+1)*G]
			advance := mask == nil || mask[r] != 0
			for j := 0; j < H; j++ {
				k := r*H + j
				ig, fg, gg, og := zr[j], zr[H+j], zr[2*H+j], zr[3*H+j]
				y := tc[k]
				// Each intermediate gradient starts at zero and takes its
				// shares in the composed tape's order; the blend routes the
				// outputs' gradients to the new or the held state.
				dh, dc := 0.0, 0.0
				if advance {
					dc += cOut.G[k]
					dh += hOut.G[k]
				} else {
					c.G[k] += cOut.G[k]
					h.G[k] += hOut.G[k]
				}
				do, dy := 0.0, 0.0
				do += float64(dh * y)
				dy += float64(dh * og)
				dc += float64(dy * (1 - float64(y*y)))
				dfc, dig := 0.0, 0.0
				dfc += dc
				dig += dc
				di, dg, df := 0.0, 0.0, 0.0
				di += float64(dig * gg)
				dg += float64(dig * ig)
				df += float64(dfc * c.W[k])
				c.G[k] += float64(dfc * fg)
				dr[3*H+j] = 0 + float64(float64(do*og)*(1-og))
				dr[2*H+j] = 0 + float64(dg*(1-float64(gg*gg)))
				dr[H+j] = 0 + float64(float64(df*fg)*(1-fg))
				dr[j] = 0 + float64(float64(di*ig)*(1-ig))
			}
		}
		for r := 0; r < B; r++ {
			for j, g := range dz[r*G : (r+1)*G] {
				b.G[j] += g
			}
		}
		matmulNT(h.G, dz, wh.W, B, G, H)
		matmulTN(wh.G, h.W, dz, H, B, G)
		matmulNT(x.G, dz, wx.W, B, G, x.C)
		matmulTN(wx.G, x.W, dz, x.C, B, G)
	})
}

// lstmCellF32 is LSTMCell on a single-precision forward tape: the same
// additions as the composed Add ops (vadd32), the gates through one
// vector exp over the whole [B,4H] batch, and c' = f⊙c + i⊙g with each
// product rounded to float32 before the add, as Mul then Add round.
func (t *Tape) lstmCellF32(x, xw, h, c, wx, wh, b *V, mask []float64) (hOut, cOut *V) {
	B, H := h.R, h.C
	G := 4 * H
	zBuf, zgBuf := t.tmp(B*G), t.tmp(B*H)
	defer t.Free(zBuf, zgBuf)
	z := zBuf.W32
	matmul32(z, f32w(h), f32w(wh), B, H, G)
	if xw != nil {
		vadd32(z, f32w(xw), z)
	} else {
		zx := t.tmp(B * G)
		matmul32(zx.W32, f32w(x), f32w(wx), B, x.C, G)
		vadd32(z, zx.W32, z)
		t.Free(zx)
	}
	bw := f32w(b)
	// zg keeps the g-gate pre-activations: tanh's saturation and sign
	// are restored from them after the shared exp.
	zg := zgBuf.W32
	for r := 0; r < B; r++ {
		zr := z[r*G : (r+1)*G : (r+1)*G]
		vadd32(zr, zr, bw)
		copy(zg[r*H:(r+1)*H], zr[2*H:3*H])
		for j := 0; j < H; j++ {
			zr[j], zr[H+j], zr[3*H+j] = -zr[j], -zr[H+j], -zr[3*H+j]
			zr[2*H+j] = tanhArg32(zr[2*H+j])
		}
	}
	expv32(z, z)
	hOut, cOut = t.new(B, H), t.new(B, H)
	hw, cw := f32w(h), f32w(c)
	ho, co := hOut.W32, cOut.W32
	for r := 0; r < B; r++ {
		zr := z[r*G : (r+1)*G : (r+1)*G]
		for j := 0; j < H; j++ {
			k := r*H + j
			ig := 1 / (1 + zr[j])
			fg := 1 / (1 + zr[H+j])
			gg := tanhFinish32(zg[k], zr[2*H+j])
			zr[3*H+j] = 1 / (1 + zr[3*H+j]) // o, read back below
			co[k] = float32(fg*cw[k]) + float32(ig*gg)
			ho[k] = tanhArg32(co[k])
		}
	}
	expv32(ho, ho)
	for r := 0; r < B; r++ {
		zr := z[r*G : (r+1)*G : (r+1)*G]
		advance := mask == nil || mask[r] != 0
		for j := 0; j < H; j++ {
			k := r*H + j
			if advance {
				ho[k] = zr[3*H+j] * tanhFinish32(co[k], ho[k])
			} else {
				ho[k], co[k] = hw[k], cw[k]
			}
		}
	}
	return hOut, cOut
}
