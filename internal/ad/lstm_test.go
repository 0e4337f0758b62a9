package ad

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// composedLSTMCell is the op composition LSTMCell replaced, kept as its
// oracle: z = (x·wx + h·wh) + b, the four gate slices, c' = f⊙c + i⊙g,
// h' = o⊙tanh(c'), and — for a non-nil mask — a Blend of each output
// with the held state.
func composedLSTMCell(t *Tape, x, h, c, wx, wh, b *V, mask []float64) (*V, *V) {
	H := h.C
	z := t.Add(t.Add(t.MatMul(x, wx), t.MatMul(h, wh)), b)
	i := t.Sigmoid(t.SliceCols(z, 0, H))
	f := t.Sigmoid(t.SliceCols(z, H, 2*H))
	g := t.Tanh(t.SliceCols(z, 2*H, 3*H))
	o := t.Sigmoid(t.SliceCols(z, 3*H, 4*H))
	cn := t.Add(t.Mul(f, c), t.Mul(i, g))
	hn := t.Mul(o, t.Tanh(cn))
	if mask == nil {
		return hn, cn
	}
	return t.Blend(hn, h, mask), t.Blend(cn, c, mask)
}

// cellCase is one LSTM sequence setup: T steps of a [B,in] input into
// an H-unit cell, with optional per-step masks and special values.
type cellCase struct {
	B, in, H, T int
	masked      bool
	specials    bool
}

func (cc cellCase) String() string {
	return fmt.Sprintf("B=%d/in=%d/H=%d/T=%d/masked=%v/specials=%v", cc.B, cc.in, cc.H, cc.T, cc.masked, cc.specials)
}

var cellCases = []cellCase{
	{B: 1, in: 5, H: 3, T: 1},
	{B: 1, in: 5, H: 3, T: 4, masked: true},
	{B: 4, in: 6, H: 8, T: 3},
	{B: 5, in: 7, H: 4, T: 4, masked: true},
	{B: 6, in: 8, H: 8, T: 5, masked: true, specials: true},
	{B: 1, in: 3, H: 2, T: 3, masked: true, specials: true},
}

// cellFixture holds one case's operands: weights and inputs as values
// to clone onto each tape under test, plus the output-gradient seeds.
type cellFixture struct {
	cellCase
	wx, wh, b, h0, c0 []float64
	xs                [][]float64
	masks             [][]float64
	seedH, seedC      [][]float64 // per-step gradient seeds for h and c
}

func newCellFixture(r *rand.Rand, cc cellCase) *cellFixture {
	fill := func(n int, scale float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64() * scale
		}
		return v
	}
	fx := &cellFixture{cellCase: cc,
		wx: fill(cc.in*4*cc.H, 0.5), wh: fill(cc.H*4*cc.H, 0.5), b: fill(4*cc.H, 0.5),
		h0: fill(cc.B*cc.H, 0.5), c0: fill(cc.B*cc.H, 1)}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), 40, -40, 1e-300}
	for s := 0; s < cc.T; s++ {
		x := fill(cc.B*cc.in, 1)
		if cc.specials {
			// A few specials per step, plus exact zeros: the matmul
			// kernels' skip-zero tests, 0*Inf and the saturated gates
			// must all agree with the composition.
			for k := 0; k < 3; k++ {
				x[r.Intn(len(x))] = specials[r.Intn(len(specials))]
			}
			x[r.Intn(len(x))] = 0
		}
		fx.xs = append(fx.xs, x)
		var m []float64
		if cc.masked {
			m = make([]float64, cc.B)
			for i := range m {
				if r.Intn(3) > 0 {
					m[i] = 1
				}
			}
		}
		fx.masks = append(fx.masks, m)
		// Seeds stand for the gradient consumers accumulated into each
		// output: sums started from +0, so never -0.
		fx.seedH = append(fx.seedH, fill(cc.B*cc.H, 1))
		fx.seedC = append(fx.seedC, fill(cc.B*cc.H, 1))
	}
	if cc.specials {
		fx.c0[0] = math.Inf(1)
		fx.h0[len(fx.h0)-1] = math.Copysign(0, -1)
		fx.wh[1] = 0
	}
	return fx
}

// cellRun is one evaluation of a fixture: the parameter and input values
// it ran on (their gradients after Backward) and every step's outputs.
type cellRun struct {
	wx, wh, b, h0, c0 *V
	xs                []*V
	hs, cs            []*V
}

// run unrolls the fixture's sequence on tape with either the fused cell
// (hoisting the input projection when hoist is set) or the composition,
// then — on recording tapes — seeds every step's output gradients and
// runs the backward pass.
func (fx *cellFixture) run(tape *Tape, fused, hoist bool) cellRun {
	clone := func(r, c int, w []float64) *V { return FromSlice(r, c, append([]float64(nil), w...)) }
	cr := cellRun{
		wx: clone(fx.in, 4*fx.H, fx.wx), wh: clone(fx.H, 4*fx.H, fx.wh), b: clone(1, 4*fx.H, fx.b),
		h0: clone(fx.B, fx.H, fx.h0), c0: clone(fx.B, fx.H, fx.c0),
	}
	for _, x := range fx.xs {
		cr.xs = append(cr.xs, clone(fx.B, fx.in, x))
	}
	var xw []V
	if fused && hoist {
		proj := tape.ProjectSteps(cr.xs, cr.wx)
		defer tape.Free(proj)
		xw = proj.RowBlocks(fx.B)
	}
	h, c := cr.h0, cr.c0
	for s, x := range cr.xs {
		if fused {
			var blk *V
			if xw != nil {
				blk = &xw[s]
			}
			h, c = tape.LSTMCell(x, blk, h, c, cr.wx, cr.wh, cr.b, fx.masks[s])
		} else {
			h, c = composedLSTMCell(tape, x, h, c, cr.wx, cr.wh, cr.b, fx.masks[s])
		}
		cr.hs, cr.cs = append(cr.hs, h), append(cr.cs, c)
	}
	if tape.Recording() {
		for s := range cr.hs {
			copy(cr.hs[s].G, fx.seedH[s])
			copy(cr.cs[s].G, fx.seedC[s])
		}
		tape.Backward()
	}
	return cr
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), composition %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestLSTMCellMatchesComposition is the fused cell's oracle: over
// batch 1 and batch >= 4, masked and unmasked sequences, and inputs with
// Inf, NaN, ±0 and saturating values, the fused op — with and without
// the hoisted input projection — must reproduce the composition it
// replaced bitwise: every step's h and c on forward, pooled-forward and
// recording tapes, and on recording tapes all six external gradients
// (x, h, c, wx, wh, b) after a backward pass through the whole
// sequence, which pins the order each gradient accumulates in.
func TestLSTMCellMatchesComposition(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	tapes := map[string]func() *Tape{
		"forward":   func() *Tape { return NewForward(nil) },
		"pooled":    func() *Tape { return NewForward(NewPool()) },
		"recording": NewTape,
		"training":  func() *Tape { return NewTraining(NewPool()) },
	}
	for _, cc := range cellCases {
		fx := newCellFixture(r, cc)
		for name, mk := range tapes {
			want := fx.run(mk(), false, false)
			for _, hoist := range []bool{false, true} {
				got := fx.run(mk(), true, hoist)
				where := fmt.Sprintf("%v/%s/hoist=%v", cc, name, hoist)
				for s := range want.hs {
					requireSameBits(t, where+fmt.Sprintf(" h[%d]", s), got.hs[s].W, want.hs[s].W)
					requireSameBits(t, where+fmt.Sprintf(" c[%d]", s), got.cs[s].W, want.cs[s].W)
				}
				if name != "recording" && name != "training" {
					continue
				}
				for s := range want.xs {
					requireSameBits(t, where+fmt.Sprintf(" x[%d].G", s), got.xs[s].G, want.xs[s].G)
				}
				requireSameBits(t, where+" h0.G", got.h0.G, want.h0.G)
				requireSameBits(t, where+" c0.G", got.c0.G, want.c0.G)
				requireSameBits(t, where+" wx.G", got.wx.G, want.wx.G)
				requireSameBits(t, where+" wh.G", got.wh.G, want.wh.G)
				requireSameBits(t, where+" b.G", got.b.G, want.b.G)
			}
		}
	}
}

// TestLSTMCellGradients checks the fused cell's backward pass against
// central differences directly, independent of the composition.
func TestLSTMCellGradients(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	x, h, c := randV(r, 3, 4), randV(r, 3, 2), randV(r, 3, 2)
	wx, wh, b := randV(r, 4, 8), randV(r, 2, 8), randV(r, 1, 8)
	for _, mask := range [][]float64{nil, {1, 0, 1}} {
		checkGrads(t, []*V{x, h, c, wx, wh, b}, func(tape *Tape) *V {
			hn, cn := tape.LSTMCell(x, nil, h, c, wx, wh, b, mask)
			s := tape.Add(hn, tape.Scale(cn, 0.5))
			return tape.SoftmaxCrossEntropy(tape.MatMul(s, FromSlice(2, 1, []float64{1, -1})), []int{0, 0, 0}, []float64{1, 1, 1})
		})
	}
}

// TestLSTMCellF32TracksComposition holds the f32 cell to the f32
// composition: both run the same float32 additions, products and vector
// exp, so every finite output must agree within a few float32 ulps
// (they agree exactly where the exp lanes line up), and the NaN pattern
// must be identical.
func TestLSTMCellF32TracksComposition(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	for _, cc := range cellCases {
		fx := newCellFixture(r, cc)
		want := fx.run(NewForwardF32(NewPool()), false, false)
		for _, hoist := range []bool{false, true} {
			got := fx.run(NewForwardF32(NewPool()), true, hoist)
			for s := range want.hs {
				for _, pair := range [][2]*V{{got.hs[s], want.hs[s]}, {got.cs[s], want.cs[s]}} {
					for i, w := range pair[1].W32 {
						g := pair[0].W32[i]
						if (g != g) != (w != w) {
							t.Fatalf("%v hoist=%v step %d elem %d: f32 cell %v, composition %v", cc, hoist, s, i, g, w)
						}
						if g != g || g == w {
							continue
						}
						if math.IsInf(float64(g), 0) || math.IsInf(float64(w), 0) || math.Signbit(float64(g)) != math.Signbit(float64(w)) || ulpDiff32(g, w) > 4 {
							t.Fatalf("%v hoist=%v step %d elem %d: f32 cell %v, composition %v", cc, hoist, s, i, g, w)
						}
					}
				}
			}
		}
	}
}

// TestProjectStepsMatchesPerStep pins the hoist's premise: a row block
// of the one-GEMM projection is bitwise the per-step MatMul, on float64
// tapes, for batches below and above the kernels' 4-row band. A freed
// projection is recycled: projecting again allocates nothing.
func TestProjectStepsMatchesPerStep(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	for _, B := range []int{1, 2, 3, 4, 5, 9} {
		w := randV(r, 7, 12)
		xs := make([]*V, 6)
		for s := range xs {
			xs[s] = randV(r, B, 7)
			xs[s].W[0] = 0 // engage the skip-zero path
		}
		tape := NewForward(NewPool())
		proj := tape.ProjectSteps(xs, w)
		blocks := proj.RowBlocks(B)
		for s, x := range xs {
			requireSameBits(t, fmt.Sprintf("B=%d step %d", B, s), blocks[s].W, tape.MatMul(x, w).W)
		}
		tape.Free(proj)
		if allocs := testing.AllocsPerRun(5, func() { tape.Free(tape.ProjectSteps(xs, w)) }); allocs > 0 {
			t.Errorf("B=%d: a freed projection is not recycled: %.0f allocations per projection", B, allocs)
		}
	}
}

// BenchmarkLSTMCell compares the fused cell with the composition it
// replaced — forward-only on float64 and f32 tapes, and forward+backward
// on a pooled training tape — at the encoder's shape (a search group of
// 8, 32 units per direction) and the decoder's (40 live hypotheses, 64
// units).
func BenchmarkLSTMCell(b *testing.B) {
	for _, shape := range []struct {
		name     string
		B, in, H int
	}{{"encoder", 8, 48, 32}, {"decoder", 40, 48, 64}} {
		r := rand.New(rand.NewSource(65))
		x, h, c := randV(r, shape.B, shape.in), randV(r, shape.B, shape.H), randV(r, shape.B, shape.H)
		wx, wh, bias := randV(r, shape.in, 4*shape.H), randV(r, shape.H, 4*shape.H), randV(r, 1, 4*shape.H)
		mask := make([]float64, shape.B)
		for i := range mask {
			mask[i] = float64(i % 2)
		}
		for _, v := range []*V{x, h, c, wx, wh, bias} {
			v.SyncF32()
		}
		for _, mode := range []string{"forward", "forward-f32", "backward"} {
			for _, impl := range []string{"fused", "composed"} {
				b.Run(fmt.Sprintf("%s/%s/%s", shape.name, mode, impl), func(b *testing.B) {
					pool := NewPool()
					tape := NewForward(pool)
					switch mode {
					case "forward-f32":
						tape = NewForwardF32(pool)
					case "backward":
						tape = NewTraining(pool)
					}
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						var hn, cn *V
						if impl == "fused" {
							hn, cn = tape.LSTMCell(x, nil, h, c, wx, wh, bias, mask)
						} else {
							hn, cn = composedLSTMCell(tape, x, h, c, wx, wh, bias, mask)
						}
						if mode == "backward" {
							hn.G[0], cn.G[0] = 1, 1
							tape.Backward()
						}
						tape.Reset()
					}
				})
			}
		}
	}
}
