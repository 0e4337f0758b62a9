package seq2seq

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/ad"
)

// fanOut runs f(0..n-1) over at most par workers (0 = NumCPU) and waits
// for all of them — the same bounded-pool shape as the dataset pipeline.
func fanOut(par, n int, f func(int)) {
	if par <= 0 {
		par = runtime.NumCPU()
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// parallel returns the model's configured worker count.
func (m *Model) parallel() int {
	if m.Cfg.Parallelism > 0 {
		return m.Cfg.Parallelism
	}
	return runtime.NumCPU()
}

// EvalParallel fans beam searches over a worker pool of par workers
// (0 = NumCPU) in fixed groups of predictGroup examples, so each worker
// decodes a whole group's live hypotheses — j × group × width rows —
// per batched decoder step. Results merge by input index and the
// grouping is position-determined, so the output is byte-identical at
// any worker count: each prediction is a pure function of (model,
// source), and slot i always holds Predict(srcs[i], k). Each worker
// draws buffer pools from the model's cache, reused across its groups.
//
// observe (may be nil) receives every completed example's index and its
// amortized share of the group's wall-clock decode seconds (searches in
// a group finish together); it is called from worker goroutines and
// must be safe for concurrent use (the metrics types are).
func EvalParallel(m *Model, srcs [][]string, k, par int, observe func(i int, seconds float64)) [][]Prediction {
	out := make([][]Prediction, len(srcs))
	if len(srcs) == 0 {
		return out
	}
	ks := make([]int, predictGroup)
	for i := range ks {
		ks[i] = k
	}
	groups := (len(srcs) + predictGroup - 1) / predictGroup
	fanOut(par, groups, func(g int) {
		lo := g * predictGroup
		hi := min(lo+predictGroup, len(srcs))
		start := time.Now()
		preds := m.PredictMulti(srcs[lo:hi], ks[:hi-lo])
		seconds := time.Since(start).Seconds() / float64(hi-lo)
		for i := lo; i < hi; i++ {
			out[i] = preds[i-lo]
			if observe != nil {
				observe(i, seconds)
			}
		}
	})
	return out
}

// validBatchScore is one batch's contribution to the validation loss.
type validBatchScore struct {
	sum    float64 // summed token cross-entropy
	tokens float64 // number of scored (non-PAD) target tokens
}

// scoreBatches computes every batch's token-loss sum on pooled
// forward-only tapes, fanned over par workers; results land in
// batch-index order. Buffer pools are drawn from the model's cache, so
// repeated validation passes recycle their tensors.
func (m *Model) scoreBatches(batches []batch, par int) []validBatchScore {
	scores := make([]validBatchScore, len(batches))
	fanOut(par, len(batches), func(i int) {
		pool := m.getPool()
		tape := ad.NewForward(pool)
		scores[i].sum, scores[i].tokens = m.batchLossSum(tape, batches[i])
		tape.Reset()
		m.putPool(pool)
	})
	return scores
}
