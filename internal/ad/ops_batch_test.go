package ad

import (
	"math/rand"
	"testing"
)

// TestGatherRowsMatchesRows pins the beam re-selection gather (Rows with
// repeated indices) to its semantics: each output row copies its source
// row, and backward scatter-adds into parents gathered more than once.
func TestGatherRowsMatchesRows(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	a := randV(r, 4, 3)
	idx := []int{2, 0, 2, 3}

	tape := NewTape()
	got := tape.Rows(a, idx)
	for i, id := range idx {
		for j := 0; j < a.C; j++ {
			if got.W[i*a.C+j] != a.W[id*a.C+j] {
				t.Fatalf("row %d col %d: got %v want %v", i, j, got.W[i*a.C+j], a.W[id*a.C+j])
			}
		}
	}
	for i := range got.G {
		got.G[i] = float64(i + 1)
	}
	tape.Backward()
	// Row 2 was gathered twice (output rows 0 and 2): its gradient is the
	// sum of both output rows' seeds.
	for j := 0; j < a.C; j++ {
		want := float64(0*a.C+j+1) + float64(2*a.C+j+1)
		if a.G[2*a.C+j] != want {
			t.Errorf("a.G[2,%d] = %v, want %v", j, a.G[2*a.C+j], want)
		}
	}
}

// TestLogSoftmaxRowsMatchesRow pins the batched log-softmax to the
// one-row reference, bitwise, row by row.
func TestLogSoftmaxRowsMatchesRow(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	a := randV(r, 5, 7)
	tape := NewForward(NewPool())
	got := tape.LogSoftmaxRows(a)
	if tape.Len() != 0 {
		t.Errorf("LogSoftmaxRows recorded %d ops on a forward tape", tape.Len())
	}
	for i := 0; i < a.R; i++ {
		want := LogSoftmaxRow(a.W[i*a.C : (i+1)*a.C])
		if !equalWSlice(got.W[i*a.C:(i+1)*a.C], want) {
			t.Errorf("row %d: %v vs %v", i, got.W[i*a.C:(i+1)*a.C], want)
		}
	}
}
