package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it. With fewer, the "percentile" is really one of the
// last few samples (at the extreme, the maximum), so it is marked
// unresolved instead.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples
// and whether it is resolved: at least minBeyond samples rank above it.
// samples need not be sorted and are not modified.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], true
}

// resolved renders a percentile for the detail report: its value, or
// "unresolved".
func resolved(v float64, ok bool) any {
	if !ok {
		return "unresolved"
	}
	return v
}

// median returns the middle value of samples (the mean of the two middle
// values for an even count); 0 for none. It summarizes repeated
// measurements of one quantity (set-up times, per-pass rates), not a
// latency distribution, so the percentile rule does not apply.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0 (the layer did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rung is one step of the serve workload's rate ladder.
type rung struct {
	Rate     float64   // offered requests per second
	Sent     int       // requests issued
	OK       int       // 200 responses with every signature element
	Failed   int       // refused, non-200, malformed or unfinished
	Latency  []float64 // per successful request, ms from its due time
	Backlog  int       // requests due but unfinished when the last one was due
	Duration float64   // seconds from the first due time to the last completion
}

// passes reports whether a rung met the latency limit: every request
// succeeded (a failed or refused request misses any limit), at most 1% of
// requests took longer than limitMs — which is exactly "p99 <= limit" and
// needs no resolved p99 — and the backlog stayed within what a system
// answering within the limit can hold at this rate (Little's law), so it
// was not growing.
func (r rung) passes(limitMs float64) bool {
	if r.Sent == 0 || r.Failed > 0 || r.OK != r.Sent {
		return false
	}
	over := 0
	for _, l := range r.Latency {
		if l > limitMs {
			over++
		}
	}
	if over > r.Sent/100 {
		return false
	}
	maxBacklog := int(math.Ceil(r.Rate*limitMs/1000)) + 1
	return r.Backlog <= maxBacklog
}

// maxPassing returns the index of the highest rung that passes, climbing
// from the lowest and stopping at the first failure; -1 when the lowest
// rung fails. rungs are in ascending rate order.
func maxPassing(rungs []rung, limitMs float64) int {
	best := -1
	for i, r := range rungs {
		if !r.passes(limitMs) {
			break
		}
		best = i
	}
	return best
}
