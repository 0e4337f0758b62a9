package seq2seq

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/ad"
	"repro/internal/nn"
)

// Pair is one training example: instruction tokens in, type tokens out.
type Pair struct {
	Src []string
	Tgt []string
}

// Train builds vocabularies from the training pairs and trains a model,
// early-stopping on validation token loss (Section 6.1: "we check the
// accuracy on the validation set and stop early if it regresses"). The
// progress callback (may be nil) receives one line per epoch.
func Train(cfg Config, train, valid []Pair, progress func(string)) *Model {
	srcSeqs := make([][]string, len(train))
	tgtSeqs := make([][]string, len(train))
	for i, p := range train {
		srcSeqs[i] = p.Src
		tgtSeqs[i] = p.Tgt
	}
	src := BuildVocab(srcSeqs, cfg.SrcVocab)
	tgt := BuildVocab(tgtSeqs, cfg.TgtVocab)
	m := NewModel(cfg, src, tgt)
	m.Fit(train, valid, progress)
	return m
}

// batch is a padded minibatch.
type batch struct {
	src [][]int // [B][Tsrc]
	tgt [][]int // [B][Ttgt] including BOS/EOS
}

// makeBatches length-sorts the pairs (less padding), slices them into
// minibatches, and shuffles batch order.
func (m *Model) makeBatches(pairs []Pair, r *rand.Rand) []batch {
	idx := make([]int, len(pairs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return len(pairs[idx[a]].Src) < len(pairs[idx[b]].Src)
	})
	var batches []batch
	for lo := 0; lo < len(idx); lo += m.Cfg.BatchSize {
		hi := lo + m.Cfg.BatchSize
		if hi > len(idx) {
			hi = len(idx)
		}
		var b batch
		maxS, maxT := 1, 2
		for _, i := range idx[lo:hi] {
			s := m.Src.Encode(truncate(pairs[i].Src, m.Cfg.MaxSrcLen))
			tg := m.Tgt.Encode(truncate(pairs[i].Tgt, m.Cfg.MaxTgtLen))
			tg = append(append([]int{BOS}, tg...), EOS)
			b.src = append(b.src, s)
			b.tgt = append(b.tgt, tg)
			if len(s) > maxS {
				maxS = len(s)
			}
			if len(tg) > maxT {
				maxT = len(tg)
			}
		}
		for i := range b.src {
			b.src[i] = pad(b.src[i], maxS)
			b.tgt[i] = pad(b.tgt[i], maxT)
		}
		batches = append(batches, b)
	}
	r.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
	return batches
}

func truncate(s []string, n int) []string {
	if n > 0 && len(s) > n {
		return s[:n]
	}
	return s
}

func pad(s []int, n int) []int {
	for len(s) < n {
		s = append(s, PAD)
	}
	return s
}

// batchLossSum runs the teacher-forced forward pass without dropout and
// returns the summed token cross-entropy plus the number of scored
// (non-PAD) target tokens — the pieces of a token-weighted validation
// mean. The sum accumulates per-step summed cross-entropies directly
// (never a mean scaled back up), matching the training objective's
// arithmetic exactly.
func (m *Model) batchLossSum(t *ad.Tape, b batch) (sum, tokens float64) {
	enc := m.encode(t, b.src, false)
	B := len(b.tgt)
	Ttgt := len(b.tgt[0])
	groups := identityGroups(B)
	s := enc.init
	for step := 0; step+1 < Ttgt; step++ {
		prev := make([]int, B)
		targets := make([]int, B)
		weights := make([]float64, B)
		n := 0.0
		for i := 0; i < B; i++ {
			prev[i] = b.tgt[i][step]
			targets[i] = b.tgt[i][step+1]
			if targets[i] != PAD {
				weights[i] = 1
				n++
			}
		}
		var logits *ad.V
		s, logits = m.decodeStep(t, enc.ops, groups, s, prev, false)
		if n > 0 {
			ce := t.SoftmaxCrossEntropySum(logits, targets, weights)
			sum += ce.W[0]
			tokens += n
		}
	}
	return sum, tokens
}

// earlyStop tracks patience-based early stopping on validation loss.
// A loss equal to the best so far counts as a new best: a flat plateau
// is not a regression, and treating it as one (strict <) stops training
// two epochs into any plateau and discards the later — equally good —
// snapshots.
type earlyStop struct {
	best     float64
	seen     bool
	bad      int
	patience int
}

// observe scores one epoch's validation loss. newBest asks the caller to
// snapshot; stop means patience is exhausted and training should halt at
// the best snapshot.
func (e *earlyStop) observe(vl float64) (newBest, stop bool) {
	if !e.seen || vl <= e.best {
		e.best = vl
		e.seen = true
		e.bad = 0
		return true, false
	}
	e.bad++
	return false, e.bad >= e.patience
}

// TrainState is everything Fit needs to resume training at an epoch
// boundary: completed-epoch count, early-stopping bookkeeping, the best
// snapshot so far, and the optimizer moments. Together with the model
// weights it makes a resumed run bitwise-identical to an uninterrupted
// one (per-epoch seeding keeps the shuffle and dropout streams aligned).
type TrainState struct {
	Epoch     int // completed epochs
	BestValid float64
	Bad       int
	Best      [][]float64 // nil when no validation epoch has completed
	Opt       nn.AdamState
}

// Fit trains the model in place.
func (m *Model) Fit(train, valid []Pair, progress func(string)) {
	m.FitResume(train, valid, nil, nil, progress)
}

// FitResume trains like Fit, but optionally resumes from a TrainState
// and persists one after every epoch. st (may be nil) continues a run
// checkpointed earlier; checkpoint (may be nil) receives the full
// training state after each completed epoch — returning an error aborts
// training. The batch shuffle is derived from (Seed, epoch) alone and
// each shard's dropout stream from (Seed, epoch, batch, shard), so a
// killed run resumed from its last checkpoint — at any worker count —
// replays the exact streams an uninterrupted run would have used and
// converges to the same weights.
func (m *Model) FitResume(train, valid []Pair, st *TrainState, checkpoint func(*TrainState) error, progress func(string)) error {
	if len(train) == 0 {
		return nil
	}
	opt := nn.NewAdam(&m.params, m.Cfg.LR)
	es := earlyStop{patience: 2}
	var bestSnapshot [][]float64
	start := 0
	if st != nil {
		start = st.Epoch
		if err := opt.Restore(st.Opt); err != nil {
			return err
		}
		if st.Best != nil {
			es = earlyStop{best: st.BestValid, seen: true, bad: st.Bad, patience: 2}
			bestSnapshot = st.Best
		}
	}
	emit := func(epoch int) *TrainState {
		return &TrainState{
			Epoch:     epoch,
			BestValid: es.best,
			Bad:       es.bad,
			Best:      bestSnapshot,
			Opt:       opt.Export(),
		}
	}
	ts := m.newTrainShards(m.parallel())
	for epoch := start; epoch < m.Cfg.Epochs; epoch++ {
		epochStart := time.Now()
		// Per-epoch seeding: the batch shuffle depends only on (Seed,
		// epoch), never on how many epochs this process has already run —
		// the property checkpoint resumption relies on. Dropout streams
		// are seeded per (Seed, epoch, batch, shard) inside the sharded
		// step for the same reason (and for -j invariance).
		r := rand.New(rand.NewSource(m.Cfg.Seed + 100 + 1009*int64(epoch)))
		batches := m.makeBatches(train, r)
		epochSum, epochTokens := 0.0, 0.0
		for bi, b := range batches {
			sum, tokens := m.trainStep(ts, opt, epoch, bi, b)
			epochSum += sum
			epochTokens += tokens
		}
		trainLoss := epochSum / epochTokens
		vl := m.ValidLoss(valid)
		if m.trainObs.Epoch != nil {
			m.trainObs.Epoch(TrainEpochEvent{
				Epoch: epoch, Batches: len(batches),
				Seconds:   time.Since(epochStart).Seconds(),
				TrainLoss: trainLoss, ValidLoss: vl,
			})
		}
		if progress != nil {
			progress(fmt.Sprintf("epoch %d: train loss %.4f, valid loss %.4f", epoch+1, trainLoss, vl))
		}
		if len(valid) == 0 {
			// No validation set: train the full epoch budget.
			if checkpoint != nil {
				if err := checkpoint(emit(epoch + 1)); err != nil {
					return err
				}
			}
			continue
		}
		newBest, stop := es.observe(vl)
		if newBest {
			bestSnapshot = m.snapshot()
		}
		if checkpoint != nil {
			if err := checkpoint(emit(epoch + 1)); err != nil {
				return err
			}
		}
		if stop {
			m.restore(bestSnapshot)
			if progress != nil {
				progress(fmt.Sprintf("epoch %d: validation regressed twice, stopping early", epoch+1))
			}
			return nil
		}
	}
	if bestSnapshot != nil {
		m.restore(bestSnapshot)
	}
	return nil
}

// ValidLoss computes the token-weighted mean cross-entropy over a
// held-out set without updating parameters; returns 0 for an empty set.
// Every scored token carries equal weight regardless of which batch it
// landed in — a per-batch mean of means would overweight the final short
// batch and skew early stopping. Batches are scored concurrently
// (Cfg.Parallelism workers) on forward-only tapes and reduced in batch
// order, so the result is independent of worker count and scheduling.
func (m *Model) ValidLoss(valid []Pair) float64 {
	if len(valid) == 0 {
		return 0
	}
	batches := m.makeBatches(valid, rand.New(rand.NewSource(7)))
	scores := m.scoreBatches(batches, m.parallel())
	sum, tokens := 0.0, 0.0
	for _, s := range scores {
		sum += s.sum
		tokens += s.tokens
	}
	if tokens == 0 {
		return 0
	}
	return sum / tokens
}

func (m *Model) snapshot() [][]float64 {
	out := make([][]float64, 0, len(m.params.All()))
	for _, v := range m.params.All() {
		out = append(out, append([]float64(nil), v.W...))
	}
	return out
}

func (m *Model) restore(snap [][]float64) {
	if snap == nil {
		return
	}
	for i, v := range m.params.All() {
		copy(v.W, snap[i])
	}
}
