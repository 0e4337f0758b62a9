package ad

import (
	"math/rand"
	"testing"
)

// chain runs a representative op mix (the ones beam search executes) on
// the given tape and returns the final value.
func chain(t *Tape, a, b *V) *V {
	h := t.Tanh(t.MatMul(a, b))             // [2,3]
	h = t.Add(h, t.Sigmoid(h))              // same shape
	h = t.Mul(h, h)                         //
	cat := t.ConcatCols(h, t.Scale(h, 0.5)) // [2,6]
	s := t.SliceCols(cat, 1, 4)             // [2,3]
	r := t.Rows(s, []int{1, 0, 1})          // [3,3]
	groups := []int{0, 1, 2}
	sm := t.SoftmaxRowsMasked(r, []float64{1, 1, 0, 1, 0, 1, 1, 1, 1}, groups)
	stack := t.StackRows([]*V{r, s2r(t, s), r}) // [9,3], T=3 per example
	return t.WeightedSum(sm, stack, groups, 3)  // [3,3]
}

// s2r pads a [2,3] value to [3,3] by gathering rows, keeping shapes
// aligned for the stacked attention ops above.
func s2r(t *Tape, s *V) *V {
	return t.Rows(s, []int{0, 1, 0})
}

// TestForwardTapeMatchesRecording runs the same computation on a
// recording tape, a pool-less forward tape, and a pooled forward tape
// (twice, to exercise reuse): all four results must be bitwise equal.
func TestForwardTapeMatchesRecording(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := randV(r, 2, 4)
	b := randV(r, 4, 3)

	want := chain(NewTape(), a, b)
	if got := chain(NewForward(nil), a, b); !equalW(got, want) {
		t.Errorf("forward tape differs: %v vs %v", got.W, want.W)
	}
	pool := NewPool()
	first := chain(NewForward(pool), a, b)
	if !equalW(first, want) {
		t.Errorf("pooled tape differs: %v vs %v", first.W, want.W)
	}
	// Release everything and rerun on the warmed pool: recycled buffers
	// must be re-zeroed, so the result is still identical.
	tape := NewForward(pool)
	tape.ReleaseExcept() // no-op, empty live set
	got := chain(tape, a, b)
	snapshot := append([]float64(nil), got.W...)
	tape.ReleaseExcept()
	again := chain(tape, a, b)
	if !equalWSlice(again.W, snapshot) {
		t.Errorf("pool reuse corrupted results: %v vs %v", again.W, snapshot)
	}
	if !equalW(again, want) {
		t.Errorf("warmed pool differs from recording tape: %v vs %v", again.W, want.W)
	}
}

// TestReleaseExceptKeepsLiveValues checks that kept values survive one
// release round untouched and are recycled after they leave the keep set.
func TestReleaseExceptKeepsLiveValues(t *testing.T) {
	pool := NewPool()
	tape := NewForward(pool)
	a := randV(rand.New(rand.NewSource(3)), 2, 2)
	kept := tape.Tanh(a)
	before := append([]float64(nil), kept.W...)
	dropped := tape.Sigmoid(a)
	_ = dropped
	tape.ReleaseExcept(kept)
	// A new allocation of the same size must not alias the kept value.
	fresh := tape.Scale(a, 2)
	if fresh == kept {
		t.Fatal("kept value was recycled")
	}
	if !equalWSlice(kept.W, before) {
		t.Errorf("kept value overwritten: %v vs %v", kept.W, before)
	}
	// Once dropped from the keep set, the value's storage is reusable.
	tape.ReleaseExcept()
	reused := tape.Scale(a, 3)
	if reused != kept && reused != fresh {
		t.Error("released storage not reused")
	}
}

// TestForwardTapeRecordsNothing ensures inference tapes stay empty.
func TestForwardTapeRecordsNothing(t *testing.T) {
	tape := NewForward(NewPool())
	a := randV(rand.New(rand.NewSource(5)), 3, 3)
	chain(tape, a, a)
	if tape.Len() != 0 {
		t.Errorf("forward tape recorded %d ops", tape.Len())
	}
	if tape.Recording() {
		t.Error("forward tape claims to be recording")
	}
	if !NewTape().Recording() {
		t.Error("recording tape claims not to be")
	}
}

func equalW(a, b *V) bool {
	return a.R == b.R && a.C == b.C && equalWSlice(a.W, b.W)
}

func equalWSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
