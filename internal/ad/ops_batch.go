// Batched beam-search scoring. Beam search packs every live hypothesis
// — across all searches decoded together — into one batch so each
// decode step runs the band-fused GEMM kernels once instead of a matvec
// per hypothesis. Parent states for surviving beams are gathered with
// Rows (nn.GatherState), attention reads each search's encoder block in
// place through the row→block map of the attention ops (ops_grouped.go),
// and LogSoftmaxRows below scores all rows at once. Each is row-wise
// identical to its one-row counterpart (copies, or the same
// ascending-index arithmetic), which is what keeps the batched decoder
// bitwise equal to the sequential reference.
package ad

// LogSoftmaxRows computes the log-softmax of every row of a [B,V] matrix
// into one pooled value. Each row runs the exact LogSoftmaxRow
// arithmetic (max, exp-sum in ascending index order, subtract), so
// batched beam scores are bitwise equal to scoring each hypothesis
// alone. No gradients are recorded, matching LogSoftmaxRow
// (inference-only).
func (t *Tape) LogSoftmaxRows(a *V) *V {
	if t.f32 && !t.grad {
		return t.logSoftmaxRowsF32(a)
	}
	out := t.new(a.R, a.C)
	for i := 0; i < a.R; i++ {
		logSoftmaxRow(out.W[i*a.C:(i+1)*a.C], a.W[i*a.C:(i+1)*a.C])
	}
	return out
}
