package ad

import "testing"

// TestPoolRetentionCapped: capacity classes bound retention only while
// the in-use shapes stay within a few classes. In-use sets of one size
// spread over different classes — one 1,024-element buffer, then two of
// 512, four of 256, and so on, as search groups of different batch
// sizes over the same total length draw them — would otherwise each
// stay on their own free list. The pool must retain at most
// retainFactor times the most it ever had handed out at once, and still
// recycle: drawing the last set again allocates nothing.
func TestPoolRetentionCapped(t *testing.T) {
	p := NewPool()
	const total = 1024
	cycle := func(k int) {
		vs := make([]*V, 1<<k)
		for i := range vs {
			vs[i] = p.get(total>>k, 1)
		}
		for _, v := range vs {
			p.put(v)
		}
	}
	for k := 0; k <= 8; k++ {
		cycle(k)
		if got, limit := p.RetainedBytes(), retainFactor*8*total; got > limit {
			t.Fatalf("after in-use set %d the pool retains %d bytes, cap %d", k, got, limit)
		}
	}
	// cycle's own slice of handles is its one allocation.
	if allocs := testing.AllocsPerRun(5, func() { cycle(8) }); allocs > 1 {
		t.Errorf("re-drawing the last set allocates %.0f objects: the cap evicted the set in use instead of stale ones", allocs)
	}
}
