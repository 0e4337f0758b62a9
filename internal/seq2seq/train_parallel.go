package seq2seq

import (
	"math/rand"
	"time"

	"repro/internal/ad"
	"repro/internal/nn"
)

// Data-parallel training step. Every padded minibatch is decomposed into
// fixed shards of shardRows examples; each shard runs its own
// forward+backward pass — on a private shadow model (shared weights,
// private gradients and dropout stream) and a pooled recording tape — in
// a bounded worker pool. Per-parameter gradients then reduce in
// ascending shard order into the master model before a single optimizer
// step.
//
// The decomposition is what makes -j invariance hold bitwise: the shard
// boundaries, each shard's dropout stream (seeded from Seed, epoch,
// batch, shard), and the reduction order are all pure functions of the
// data and configuration — worker count only decides how many shards
// are in flight at once. Float addition is not associative, so any
// scheme that let a worker's finish order pick the summation bracketing
// would drift between runs; slot-per-shard buffers plus the ordered
// merge in nn.ReduceGrads pin the bracketing instead.

// shardRows is the number of examples per training shard. It is a fixed
// property of the arithmetic — NOT derived from the worker count — so
// the gradient bracketing is identical at any -j. Four rows keeps the
// per-shard matmuls on the blocked kernels' fast path while exposing
// BatchSize/4 units of concurrency per step.
const shardRows = 4

// shardSeed mixes the run seed and a (epoch, batch, shard) coordinate
// into the shard's dropout seed (splitmix64 finalizer, the dataset
// pipeline's per-package idiom): every shard draws an uncorrelated,
// position-determined stream, so a resumed run replays exactly the
// streams an uninterrupted run would have used.
func shardSeed(seed int64, epoch, batch, shard int) int64 {
	z := uint64(seed) * 0x9e3779b97f4a7c15
	z += uint64(epoch)*0xbf58476d1ce4b9b9 + uint64(batch)*0x94d049bb133111eb + uint64(shard+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// shadow returns a model that shares m's weights but owns private
// gradient storage and a private RNG: the unit of shard isolation.
// Weight slices alias, so the master's optimizer steps are visible to
// every shadow immediately and for free; gradient slices stay separate
// so concurrent backward passes never race.
func (m *Model) shadow() *Model {
	s := NewModel(m.Cfg, m.Src, m.Tgt)
	mine := m.params.All()
	theirs := s.params.All()
	for i := range mine {
		theirs[i].W = mine[i].W
	}
	return s
}

// trainSlot is the per-shard-index training resource set. Slot s is
// used exclusively for shard s of the current batch, whichever worker
// picks it up — worker identity never touches the arithmetic.
type trainSlot struct {
	model  *Model
	tape   *ad.Tape
	sum    float64 // summed token cross-entropy of the last shard run
	tokens float64
}

// trainShards owns the slots and scratch for sharded training steps.
type trainShards struct {
	m     *Model
	par   int
	slots []*trainSlot
	sets  []*nn.Params // slots[i].model's parameters, for ReduceGrads
}

func (m *Model) newTrainShards(par int) *trainShards {
	return &trainShards{m: m, par: par}
}

// ensure grows the slot list to n shards.
func (ts *trainShards) ensure(n int) {
	for len(ts.slots) < n {
		sh := ts.m.shadow()
		ts.slots = append(ts.slots, &trainSlot{model: sh, tape: ad.NewTraining(ad.NewPool())})
		ts.sets = append(ts.sets, &sh.params)
	}
}

// runBatch executes forward+backward for every shard of b concurrently
// and returns the shard count. Afterwards slot s holds shard s's summed
// loss, token count, and parameter gradients.
func (ts *trainShards) runBatch(epoch, bi int, b batch) int {
	B := len(b.src)
	ns := (B + shardRows - 1) / shardRows
	ts.ensure(ns)
	fanOut(ts.par, ns, func(s int) {
		slot := ts.slots[s]
		lo := s * shardRows
		hi := lo + shardRows
		if hi > B {
			hi = B
		}
		slot.model.rng = rand.New(rand.NewSource(shardSeed(ts.m.Cfg.Seed, epoch, bi, s)))
		loss, tokens := slot.model.batchShardLoss(slot.tape, batch{src: b.src[lo:hi], tgt: b.tgt[lo:hi]})
		loss.G[0] = 1
		slot.tape.Backward()
		slot.sum, slot.tokens = loss.W[0], tokens
		slot.tape.Reset()
	})
	return ns
}

// batchShardLoss runs the teacher-forced forward pass with dropout and
// returns the summed (not averaged) token cross-entropy plus the number
// of scored tokens. Shard sums compose exactly: the batch loss is
// (sum over shards in order) / (token total), computed by the caller,
// so the objective's value and gradient are independent of how the
// batch was sharded. Every target row contains at least BOS->token, so
// the loss node always exists.
func (m *Model) batchShardLoss(t *ad.Tape, b batch) (loss *ad.V, tokens float64) {
	enc := m.encode(t, b.src, true)
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
		s, logits = m.decodeStep(t, enc.ops, groups, s, prev, true)
		if n == 0 {
			continue
		}
		ce := t.SoftmaxCrossEntropySum(logits, targets, weights)
		if loss == nil {
			loss = ce
		} else {
			loss = t.Add(loss, ce)
		}
		tokens += n
	}
	return loss, tokens
}

// trainStep runs one optimizer step over a minibatch: parallel shard
// forward+backward, ordered gradient reduction scaled to the token-mean
// objective, then Adam. Returns the batch's summed loss and token count
// for epoch-level (token-weighted, -j-invariant) loss reporting.
func (m *Model) trainStep(ts *trainShards, opt *nn.Adam, epoch, bi int, b batch) (sum, tokens float64) {
	shardStart := time.Now()
	ns := ts.runBatch(epoch, bi, b)
	shardSecs := time.Since(shardStart).Seconds()
	mergeStart := time.Now()
	for _, slot := range ts.slots[:ns] {
		sum += slot.sum
		tokens += slot.tokens
	}
	m.params.ReduceGrads(ts.sets[:ns], 1/tokens)
	opt.Step()
	if m.trainObs.Step != nil {
		m.trainObs.Step(TrainEvent{
			Epoch: epoch, Batch: bi, Shards: ns, Tokens: tokens,
			ShardSeconds: shardSecs, MergeSeconds: time.Since(mergeStart).Seconds(),
		})
	}
	return sum, tokens
}

// TrainEvent describes one completed optimizer step (one minibatch).
type TrainEvent struct {
	Epoch  int // zero-based epoch index
	Batch  int // zero-based batch index within the epoch
	Shards int // shards the batch was decomposed into
	Tokens float64
	// ShardSeconds is the wall clock of the parallel forward+backward
	// phase; MergeSeconds covers gradient reduction plus the optimizer
	// step (the serial tail of every step).
	ShardSeconds float64
	MergeSeconds float64
}

// TrainEpochEvent describes one completed training epoch, including its
// validation pass.
type TrainEpochEvent struct {
	Epoch     int
	Batches   int
	Seconds   float64
	TrainLoss float64
	ValidLoss float64
}

// TrainObserver receives training progress callbacks for metrics;
// either field may be nil. Callbacks run on the training goroutine
// between steps, never concurrently.
type TrainObserver struct {
	Step  func(TrainEvent)
	Epoch func(TrainEpochEvent)
}

// SetTrainObserver installs obs for subsequent Fit/FitResume calls.
func (m *Model) SetTrainObserver(obs TrainObserver) { m.trainObs = obs }
