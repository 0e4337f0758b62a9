package ad

import "math"

// Single-precision inference kernels: the f32 engine, reachable only
// through f32 forward tapes (NewForwardF32) — recording tapes dispatch
// to the bitwise float64 kernels unconditionally, so training can never
// observe these semantics.
//
// Numeric contract, relative to the exact float64 kernels (kernels.go):
//
//  1. Storage and arithmetic are float32: ~2^-24 unit roundoff instead
//     of 2^-53. The matmuls keep the band-fused blocking and ascending-p
//     order; the attention-score dot products stripe their
//     accumulation across 16 fixed lanes. The order is fixed, so results
//     are deterministic across runs and worker counts for a given host.
//  2. Multiply-adds round once per step, and there are no skip-zero
//     tests (0*Inf = NaN propagates). The pure-Go mirrors fuse through
//     float64 (the product of two float32s is exact in float64) and the
//     assembly uses VFMADD231PS; the two can differ in the last float32
//     ulp on round-to-nearest ties, so — unlike the f64 kernels — asm
//     and fallback are held together by ULP bounds
//     (TestF32KernelsULPBound), not bitwise equality.
//  3. The transcendentals (expf32/tanhf32/sigmoidf32) are polynomial
//     approximations accurate to a few float32 ulps, not math.Exp/Tanh
//     rounded.
//
// End-to-end accuracy of the engine is governed by the accbudget
// harness (snowwhite acctest, gated >= 99% top-3 agreement in
// verify.sh).

// fmaf is the float32 fused multiply-add: a*b is exact in float64, so
// a single float64 add-and-round then one round to float32 matches
// hardware FMA except on double-rounding ties (see contract note 2).
func fmaf(a, b, c float32) float32 {
	return float32(float64(a)*float64(b) + float64(c))
}

// axpy32 computes o[j] = fma(s, bv[j], o[j]) over len(bv) elements; no
// skip-zero contract (s may be zero, and 0*Inf = NaN propagates).
func axpy32(o, bv []float32, s float32) {
	o = o[:len(bv)]
	if useFMA && len(bv) >= avxMinC {
		axpyFMA32(&o[0], &bv[0], s, len(bv))
		return
	}
	for j, v := range bv {
		o[j] = fmaf(s, v, o[j])
	}
}

// dot32 returns the striped fused float32 dot product of a and b over
// 16 lanes (two 8-float32 vectors), matching dotFMA32's accumulation
// shape.
func dot32(a, b []float32) float32 {
	n := len(a)
	if useFMA && n >= 2*avxMinC {
		return dotFMA32(&a[0], &b[0], n)
	}
	var acc [16]float32
	p := 0
	for ; p+16 <= n; p += 16 {
		for l := 0; l < 16; l++ {
			acc[l] = fmaf(a[p+l], b[p+l], acc[l])
		}
	}
	var tail float32
	for ; p < n; p++ {
		tail = fmaf(a[p], b[p], tail)
	}
	var s [4]float32
	for l := 0; l < 4; l++ {
		s[l] = (acc[l] + acc[l+8]) + (acc[l+4] + acc[l+12])
	}
	return (s[0] + s[1]) + (s[2] + s[3]) + tail
}

// matmul32 computes out += a@b with out [r,c], a [r,k], b [k,c]: the
// float32 sibling of matmul, same band-fused blocking with the 8-lane
// fused band kernel.
func matmul32(out, a, b []float32, r, k, c int) {
	ib := r - r%blockDim
	for i := 0; i < ib; i += blockDim {
		a0 := a[i*k : i*k+k : i*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k : (i+3)*k+k]
		o0 := out[i*c : i*c+c : i*c+c]
		o1 := out[(i+1)*c : (i+1)*c+c : (i+1)*c+c]
		o2 := out[(i+2)*c : (i+2)*c+c : (i+2)*c+c]
		o3 := out[(i+3)*c : (i+3)*c+c : (i+3)*c+c]
		p := 0
		for ; p+1 < k; p += 2 {
			av00, av01, av02, av03 := a0[p], a1[p], a2[p], a3[p]
			av10, av11, av12, av13 := a0[p+1], a1[p+1], a2[p+1], a3[p+1]
			bp := b[p*c : p*c+c : p*c+c]
			bq := b[(p+1)*c : (p+1)*c+c : (p+1)*c+c]
			if useFMA && c >= avxMinC {
				av := [8]float32{av00, av01, av02, av03, av10, av11, av12, av13}
				band2pFMA32(&o0[0], &o1[0], &o2[0], &o3[0], &bp[0], &bq[0], &av, c)
				continue
			}
			for j, bv0 := range bp {
				bv1 := bq[j]
				o0[j] = fmaf(av10, bv1, fmaf(av00, bv0, o0[j]))
				o1[j] = fmaf(av11, bv1, fmaf(av01, bv0, o1[j]))
				o2[j] = fmaf(av12, bv1, fmaf(av02, bv0, o2[j]))
				o3[j] = fmaf(av13, bv1, fmaf(av03, bv0, o3[j]))
			}
		}
		if p < k { // odd k tail
			bp := b[p*c : p*c+c : p*c+c]
			axpy32(o0, bp, a0[p])
			axpy32(o1, bp, a1[p])
			axpy32(o2, bp, a2[p])
			axpy32(o3, bp, a3[p])
		}
	}
	// Remainder rows: per-row ascending-p fused axpy.
	for i := ib; i < r; i++ {
		ai := a[i*k : (i+1)*k]
		oi := out[i*c : (i+1)*c]
		for p := 0; p < k; p++ {
			axpy32(oi, b[p*c:(p+1)*c], ai[p])
		}
	}
}

// attnScores32 fills out [L,T] with scores[l,t] =
// dec[l] · enc[groups[l]*T+t]: one striped fused dot per score, each
// row reading its encoder block in place.
func attnScores32(out, dec, enc []float32, groups []int, T, H int) {
	for l, g := range groups {
		dl := dec[l*H : (l+1)*H]
		ob := out[l*T : (l+1)*T]
		eb := enc[g*T*H : (g+1)*T*H]
		for tt := 0; tt < T; tt++ {
			ob[tt] = dot32(dl, eb[tt*H:(tt+1)*H])
		}
	}
}

// weightedSum32 fills out [L,H] with ctx[l] = sum_t alpha[l,t] *
// enc[groups[l]*T+t]: one fused axpy per timestep, no skip-zero test.
func weightedSum32(out, alpha, enc []float32, groups []int, T, H int) {
	for l, g := range groups {
		ob := out[l*H : (l+1)*H : (l+1)*H]
		eb := enc[g*T*H : (g+1)*T*H]
		for tt := 0; tt < T; tt++ {
			axpy32(ob, eb[tt*H:(tt+1)*H], alpha[l*T+tt])
		}
	}
}

// Fast float32 transcendentals. Decode time outside the GEMMs is
// dominated by exp/tanh/sigmoid over the LSTM gate activations and the
// softmax rows; math.Exp and math.Tanh compute 53-bit results the f32
// engine immediately throws away. The approximations below target a few
// float32 ulps — far inside the engine's accumulated rounding error —
// at a fraction of the latency.

const (
	expMaxIn  = 88.72283  // above this exp overflows float32
	expMinIn  = -87.33655 // below this exp underflows to zero (subnormals flushed)
	expLog2e  = 1.44269504088896341
	expLn2Hi  = 6.93145752e-1 // ln2 split: hi part exact in float32
	expLn2Lo  = 1.42860677e-6 // ln2 - expLn2Hi
	expPolyC0 = 1.9875691500e-4
	expPolyC1 = 1.3981999507e-3
	expPolyC2 = 8.3334519073e-3
	expPolyC3 = 4.1665795894e-2
	expPolyC4 = 1.6666665459e-1
	expPolyC5 = 5.0000001201e-1
)

// expf32 approximates e^x in float32: argument reduction against a
// split ln2 (x = n*ln2 + r, |r| <= ln2/2) followed by a degree-5
// minimax polynomial for e^r (Cephes expf coefficients) and exponent
// reconstruction. Relative error is a few float32 ulps over the finite
// range; out-of-range arguments saturate to +Inf/0. NaN propagates
// (n=int32(NaN) is implementation-pinned but the polynomial keeps NaN).
func expf32(x float32) float32 {
	if x != x {
		return x
	}
	if x > expMaxIn {
		return float32(math.Inf(1))
	}
	if x < expMinIn {
		return 0
	}
	// n = round(x / ln2), round half away from zero.
	z := x * expLog2e
	var n int32
	if z >= 0 {
		n = int32(z + 0.5)
	} else {
		n = int32(z - 0.5)
	}
	nf := float32(n)
	r := x - nf*expLn2Hi
	r -= nf * expLn2Lo
	p := float32(expPolyC0)
	p = p*r + expPolyC1
	p = p*r + expPolyC2
	p = p*r + expPolyC3
	p = p*r + expPolyC4
	p = p*r + expPolyC5
	y := p*r*r + r + 1
	// Scale by 2^n in two halves so n=128 (x near expMaxIn, result near
	// MaxFloat32) does not overflow the single-factor exponent field.
	n1 := n >> 1
	n2 := n - n1
	return y * math.Float32frombits(uint32(n1+127)<<23) * math.Float32frombits(uint32(n2+127)<<23)
}

// expConsts32 is vexpFMA32's constant table: each constant pre-broadcast
// to a full 8-lane vector so the assembly reads them as plain m256
// operands (no per-iteration VBROADCASTSS). Slot order is fixed by the
// assembly's 32-byte offsets; the last two slots hold integer bit
// patterns (the exponent bias as a dword, +Inf) smuggled through
// Float32frombits.
var expConsts32 = buildExpConsts32()

func buildExpConsts32() *[14 * 8]float32 {
	vals := [14]float32{
		expMaxIn, expMinIn, expLog2e, expLn2Hi, expLn2Lo,
		expPolyC0, expPolyC1, expPolyC2, expPolyC3, expPolyC4, expPolyC5,
		1,
		math.Float32frombits(127),        // exponent bias, read as a dword
		math.Float32frombits(0x7F800000), // +Inf
	}
	var t [14 * 8]float32
	for i, v := range vals {
		for l := 0; l < 8; l++ {
			t[i*8+l] = v
		}
	}
	return &t
}

// expv32 fills o[i] = exp(x[i]) under expf32's contract. The vector body
// (vexpFMA32) runs the same reduction and polynomial 8 lanes at a time
// but rounds n to nearest-even (VCVTPS2DQ) where the scalar rounds half
// away from zero, and fuses the polynomial steps (VFMADD213PS) where the
// scalar rounds each one — so vector and scalar lanes can differ by a
// few float32 ulps (TestVExp32TracksScalar bounds them together);
// saturation and NaN edges match exactly by construction (the masks
// compare the original input, as the scalar does). o and x may alias.
//
// Where the vector body runs, it runs for every element: the len%8
// tail goes through it too, padded to a full vector on the stack, so an
// element's result never depends on its index or on the slice's length.
// A row of attention scores padded to its group's longest source
// therefore exponentiates exactly as it does unpadded
// (TestExpV32PositionInvariant).
func expv32(o, x []float32) {
	o = o[:len(x)]
	if !useFMA {
		for i, v := range x {
			o[i] = expf32(v)
		}
		return
	}
	m := len(x) &^ 7
	if m > 0 {
		vexpFMA32(&o[0], &x[0], &expConsts32[0], m)
	}
	if m < len(x) {
		var tail [8]float32
		n := copy(tail[:], x[m:])
		vexpFMA32(&tail[0], &tail[0], &expConsts32[0], 8)
		copy(o[m:], tail[:n])
	}
}

// vadd32 fills o[i] = a[i] + b[i]. Plain single additions on both paths
// — no fusion anywhere — so the VADDPS body is bitwise-identical to the
// scalar loop (TestVAdd32Bitwise), unlike the FMA kernels. o may alias
// a or b.
func vadd32(o, a, b []float32) {
	o = o[:len(a)]
	if useFMA && len(a) >= avxMinC {
		vaddFMA32(&o[0], &a[0], &b[0], len(a))
		return
	}
	for i := range o {
		o[i] = a[i] + b[i]
	}
}

// tanhf32 approximates tanh(x) via expf32: t = (1-e)/(1+e) with
// e = exp(-2|x|), saturating to ±1 beyond |x| > 9.01 where float32
// tanh is exactly ±1 anyway.
func tanhf32(x float32) float32 {
	if x != x {
		return x
	}
	ax := x
	if ax < 0 {
		ax = -ax
	}
	if ax > 9.01 {
		if x < 0 {
			return -1
		}
		return 1
	}
	e := expf32(-2 * ax)
	t := (1 - e) / (1 + e)
	if x < 0 {
		return -t
	}
	return t
}

// sigmoidf32 approximates the logistic function 1/(1+e^-x) via expf32.
func sigmoidf32(x float32) float32 {
	return 1 / (1 + expf32(-x))
}

// logSoftmaxRow32 is logSoftmaxRow in float32: max-shifted exp sum with
// one float64 log per row (the log of a float32 sum is cheap and
// removes the last meaningful error term from beam scores). The shifted
// exponentials run through the vector exp with out as scratch — the
// vocabulary-width rows here are the engine's single largest
// transcendental bill — then sum in ascending index order.
func logSoftmaxRow32(out, row []float32) {
	max := row[0]
	for _, x := range row {
		if x > max {
			max = x
		}
	}
	for i, x := range row {
		out[i] = x - max
	}
	expv32(out, out)
	var sum float32
	for _, e := range out {
		sum += e
	}
	lse := max + float32(math.Log(float64(sum)))
	for i, x := range row {
		out[i] = x - lse
	}
}
