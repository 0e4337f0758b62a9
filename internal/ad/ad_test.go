package ad

import (
	"math"
	"math/rand"
	"testing"
)

// numGrad estimates d(loss)/d(x[i]) by central differences, where forward
// rebuilds the computation from scratch.
func numGrad(x []float64, i int, forward func() float64) float64 {
	const eps = 1e-6
	orig := x[i]
	x[i] = orig + eps
	fp := forward()
	x[i] = orig - eps
	fm := forward()
	x[i] = orig
	return (fp - fm) / (2 * eps)
}

// checkGrads compares analytic gradients against numeric ones for every
// element of every input.
func checkGrads(t *testing.T, inputs []*V, forward func(tape *Tape) *V) {
	t.Helper()
	run := func() (*Tape, *V) {
		tape := NewTape()
		for _, in := range inputs {
			in.ZeroGrad()
		}
		return tape, forward(tape)
	}
	tape, out := run()
	if out.R != 1 || out.C != 1 {
		t.Fatalf("forward must return a scalar, got %dx%d", out.R, out.C)
	}
	out.G[0] = 1
	tape.Backward()
	// Snapshot all analytic gradients before numeric re-runs zero them.
	analytics := make([][]float64, len(inputs))
	for vi, in := range inputs {
		analytics[vi] = append([]float64(nil), in.G...)
	}
	for vi, in := range inputs {
		analytic := analytics[vi]
		for i := range in.W {
			num := numGrad(in.W, i, func() float64 {
				_, o := run()
				return o.W[0]
			})
			if diff := math.Abs(num - analytic[i]); diff > 1e-4*(1+math.Abs(num)) {
				t.Errorf("input %d elem %d: analytic %g, numeric %g", vi, i, analytic[i], num)
			}
		}
	}
}

func randV(r *rand.Rand, rows, cols int) *V {
	v := New(rows, cols)
	for i := range v.W {
		v.W[i] = r.NormFloat64()
	}
	return v
}

// sumAll reduces a matrix to a scalar through a weighted sum so gradients
// are non-uniform.
func sumAll(tape *Tape, v *V) *V {
	w := New(v.R, v.C)
	for i := range w.W {
		w.W[i] = 0.1*float64(i) + 0.5
	}
	prod := tape.Mul(v, w)
	ones := New(v.C, 1)
	for i := range ones.W {
		ones.W[i] = 1
	}
	rowSums := tape.MatMul(prod, ones) // [R,1]
	onesR := New(1, v.R)
	for i := range onesR.W {
		onesR.W[i] = 1
	}
	return tape.MatMul(onesR, rowSums) // [1,1]
}

func TestGradMatMul(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a, b := randV(r, 3, 4), randV(r, 4, 2)
	checkGrads(t, []*V{a, b}, func(tape *Tape) *V {
		return sumAll(tape, tape.MatMul(a, b))
	})
}

func TestGradAddBroadcast(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a, b := randV(r, 3, 4), randV(r, 1, 4)
	checkGrads(t, []*V{a, b}, func(tape *Tape) *V {
		return sumAll(tape, tape.Add(a, b))
	})
}

func TestGradElementwise(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a, b := randV(r, 2, 3), randV(r, 2, 3)
	checkGrads(t, []*V{a, b}, func(tape *Tape) *V {
		x := tape.Mul(tape.Sigmoid(a), tape.Tanh(b))
		x = tape.Add(x, tape.Scale(b, -0.3))
		return sumAll(tape, x)
	})
}

func TestGradConcatSlice(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a, b := randV(r, 2, 3), randV(r, 2, 2)
	checkGrads(t, []*V{a, b}, func(tape *Tape) *V {
		cat := tape.ConcatCols(a, b)       // [2,5]
		left := tape.SliceCols(cat, 0, 2)  // [2,2]
		right := tape.SliceCols(cat, 2, 5) // [2,3]
		prod := tape.MatMul(left, right)   // [2,3]
		return sumAll(tape, tape.Tanh(prod))
	})
}

func TestGradRows(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	table := randV(r, 5, 3)
	idx := []int{0, 3, 3, 1}
	checkGrads(t, []*V{table}, func(tape *Tape) *V {
		return sumAll(tape, tape.Rows(table, idx))
	})
}

func TestGradSoftmaxCE(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	logits := randV(r, 4, 5)
	targets := []int{1, 0, 4, 2}
	weights := []float64{1, 1, 0, 0.5} // includes a masked row
	checkGrads(t, []*V{logits}, func(tape *Tape) *V {
		return tape.SoftmaxCrossEntropy(logits, targets, weights)
	})
}

// TestGradAttention checks the attention chain's backward by finite
// differences on the two ways the model uses it: identity groups (one
// block per row, as in training) and shared blocks (repeated groups, an
// unused block and a ragged mask, as in beam decoding).
func TestGradAttention(t *testing.T) {
	t.Run("identity", func(t *testing.T) {
		r := rand.New(rand.NewSource(7))
		B, T, H := 2, 3, 4
		dec := randV(r, B, H)
		enc := randV(r, B*T, H)
		mask := []float64{1, 1, 0, 1, 1, 1} // padding in example 0
		groups := []int{0, 1}
		checkGrads(t, []*V{dec, enc}, func(tape *Tape) *V {
			scores := tape.AttnScores(dec, enc, groups, T)
			alpha := tape.SoftmaxRowsMasked(scores, mask, groups)
			return sumAll(tape, tape.WeightedSum(alpha, enc, groups, H))
		})
	})
	t.Run("shared", func(t *testing.T) {
		r := rand.New(rand.NewSource(8))
		dec, enc, mask, groups, T, H := groupedFixture(r)
		checkGrads(t, []*V{dec, enc}, func(tape *Tape) *V {
			scores := tape.AttnScores(dec, enc, groups, T)
			alpha := tape.SoftmaxRowsMasked(scores, mask, groups)
			return sumAll(tape, tape.WeightedSum(alpha, enc, groups, H))
		})
	})
}

// TestGradStackAndMask checks StackRows' backward through a row mask
// (Blend against zeros: masked rows pass no gradient).
func TestGradStackAndMask(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	a, b := randV(r, 2, 3), randV(r, 2, 3)
	checkGrads(t, []*V{a, b}, func(tape *Tape) *V {
		st := tape.StackRows([]*V{a, b})
		masked := tape.Blend(st, New(st.R, st.C), []float64{1, 0, 1, 1})
		return sumAll(tape, masked)
	})
}

func TestGradBlend(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a, b := randV(r, 3, 2), randV(r, 3, 2)
	checkGrads(t, []*V{a, b}, func(tape *Tape) *V {
		return sumAll(tape, tape.Blend(a, b, []float64{1, 0, 1}))
	})
}

func TestDropout(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	a := randV(r, 10, 10)
	tape := NewTape()
	rng := rand.New(rand.NewSource(11))
	out := tape.Dropout(a, 0.5, rng.Float64)
	zeros := 0
	for i := range out.W {
		if out.W[i] == 0 {
			zeros++
		} else if math.Abs(out.W[i]-2*a.W[i]) > 1e-12 {
			t.Fatalf("survivor not scaled: %g vs %g", out.W[i], a.W[i])
		}
	}
	if zeros < 20 || zeros > 80 {
		t.Errorf("dropout zeroed %d of 100", zeros)
	}
	// p=0 is the identity (same value returned).
	if tape.Dropout(a, 0, nil) != a {
		t.Error("Dropout(p=0) should be identity")
	}
}

func TestLogSoftmaxRow(t *testing.T) {
	ls := LogSoftmaxRow([]float64{1, 2, 3})
	sum := 0.0
	for _, x := range ls {
		sum += math.Exp(x)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("exp(logsoftmax) sums to %g", sum)
	}
	if !(ls[2] > ls[1] && ls[1] > ls[0]) {
		t.Errorf("ordering broken: %v", ls)
	}
}

func TestShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MatMul with bad shapes should panic")
		}
	}()
	tape := NewTape()
	tape.MatMul(New(2, 3), New(2, 3))
}

func TestGradReLU(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := randV(r, 3, 4)
	// Keep values away from the kink for numeric stability.
	for i := range a.W {
		if math.Abs(a.W[i]) < 0.1 {
			a.W[i] += 0.5
		}
	}
	checkGrads(t, []*V{a}, func(tape *Tape) *V {
		return sumAll(tape, tape.ReLU(a))
	})
}

func TestGradLayerNorm(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	a := randV(r, 3, 5)
	gain := randV(r, 1, 5)
	bias := randV(r, 1, 5)
	checkGrads(t, []*V{a, gain, bias}, func(tape *Tape) *V {
		return sumAll(tape, tape.LayerNorm(a, gain, bias))
	})
}

func TestGradAddRowsConst(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := randV(r, 2, 3)
	c := []float64{1, 2, 3, 4, 5, 6}
	checkGrads(t, []*V{a}, func(tape *Tape) *V {
		return sumAll(tape, tape.AddRowsConst(a, c))
	})
}
