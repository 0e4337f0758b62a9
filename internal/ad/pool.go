package ad

import "math/bits"

// Pool recycles the storage of tape values between uses. Beam search
// allocates the same tensor shapes at every decode step and again for
// every search group; drawing them from a Pool and returning them —
// per step through ReleaseExcept, and the whole encoder working set
// through Reset at the end of a group — keeps a decode's steady-state
// allocation to the handful of objects that escape into results.
//
// Free lists are keyed by capacity class: a buffer for n elements has
// capacity n rounded up to a power of two, and any request in that
// class can reuse it. Exact-size keys would retain one buffer per
// distinct shape ever seen — every B×T of every ragged search group —
// and grow without bound under varied source lengths. What the pool
// retains is additionally capped at retainFactor times the largest
// number of bytes it ever had handed out at once (RetainedBytes): a
// release that would pass the cap first empties the free lists, leaving
// buffers of shapes the workload has stopped drawing to the garbage
// collector, and the pool relearns the current mix.
//
// float64 and float32 storage are recycled through separate free lists
// (a value is one or the other, discriminated by which slice is
// non-empty), so a pool shared across engine tiers never hands f32
// storage to an f64 tape or vice versa.
//
// A Pool is not safe for concurrent use: give each goroutine its own
// (Model.Predict and the parallel evaluators do this internally).
type Pool struct {
	free   map[int][]*V // float64 values by capacity class
	free32 map[int][]*V // float32 values by capacity class
	// maxElems is the element count of the largest buffer ever drawn
	// from this pool — the high-water mark of the working set. Tests use
	// it to pin memory-footprint properties (e.g. that beam decoding's
	// attention working set is independent of beam width).
	maxElems int
	// maxBytes is the byte size of the largest value buffer ever drawn
	// (8 bytes/elem for float64, 4 for float32; gradient storage not
	// counted). Tests use it to pin that the f32 engine's working set is
	// half the f64 one for the same shapes.
	maxBytes int
	// retained is the storage capacity, in bytes, sitting on the free
	// lists; inUse is the capacity handed out and not yet returned, and
	// peakInUse its high-water mark, which bounds retained at
	// retainFactor times it.
	retained, inUse, peakInUse int
}

// retainFactor caps what a pool retains as a multiple of its in-use
// high-water mark. Decoding groups of varied sizes and lengths keeps
// buffers of several classes on the free lists at once — more than
// twice the peak on a mixed ingest workload, where a cap of 2 emptied
// the lists often enough to double the bytes allocated per element —
// so the cap only catches workloads whose shape mix has moved on.
const retainFactor = 4

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{free: map[int][]*V{}, free32: map[int][]*V{}} }

// MaxBufferElems returns the element count of the largest single buffer
// drawn from the pool since creation (recycled or fresh).
func (p *Pool) MaxBufferElems() int { return p.maxElems }

// MaxBufferBytes returns the byte size of the largest single value
// buffer drawn from the pool since creation, accounting for element
// width (float32 buffers count 4 bytes per element, float64 count 8).
func (p *Pool) MaxBufferBytes() int { return p.maxBytes }

// RetainedBytes returns the storage capacity, in bytes (values and
// gradients), that the pool currently holds on its free lists for
// reuse. It never exceeds retainFactor times the most the pool ever
// had handed out at once.
func (p *Pool) RetainedBytes() int { return p.retained }

// class returns the capacity class of an n-element request: the
// smallest k with 1<<k >= n.
func class(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// capClass returns the class a buffer of the given capacity serves: the
// largest k with 1<<k <= capacity, so every request of that class fits.
func capClass(capacity int) int { return bits.Len(uint(capacity)) - 1 }

// storageBytes is the capacity, in bytes, of every slice v carries.
func storageBytes(v *V) int { return 8*(cap(v.W)+cap(v.G)) + 4*cap(v.W32) }

// note records an n-element draw of elemBytes-wide values in the
// high-water marks.
func (p *Pool) note(n, elemBytes int) {
	if n > p.maxElems {
		p.maxElems = n
	}
	if b := n * elemBytes; b > p.maxBytes {
		p.maxBytes = b
	}
}

// handOut accounts for v leaving the pool.
func (p *Pool) handOut(v *V) *V {
	p.inUse += storageBytes(v)
	if p.inUse > p.peakInUse {
		p.peakInUse = p.inUse
	}
	return v
}

// get returns a zeroed [r,c] value, reusing released storage of the same
// capacity class when available. Values from get carry no gradient
// storage; forward tapes, which never run Backward, use them directly.
func (p *Pool) get(r, c int) *V {
	n := r * c
	p.note(n, 8)
	v := p.take(n)
	if v == nil {
		v = &V{W: make([]float64, n, 1<<class(n))}
	}
	v.R, v.C = r, c
	return p.handOut(v)
}

// get32 returns a zeroed [r,c] float32-backed value for single-precision
// forward tapes, recycled through the pool's separate f32 free list.
func (p *Pool) get32(r, c int) *V {
	n := r * c
	p.note(n, 4)
	v := p.take32(n)
	if v == nil {
		v = &V{W32: make([]float32, n, 1<<class(n))}
	}
	v.R, v.C = r, c
	return p.handOut(v)
}

// getGrad returns a zeroed [r,c] value with zeroed gradient storage, for
// pooled training tapes. A recycled value that last served a forward
// tape gains its gradient slice here; the pool is shared either way.
func (p *Pool) getGrad(r, c int) *V {
	n := r * c
	p.note(n, 8)
	v := p.take(n)
	if v == nil {
		v = &V{W: make([]float64, n, 1<<class(n))}
	}
	v.R, v.C = r, c
	if cap(v.G) < n {
		v.G = make([]float64, n, cap(v.W))
	} else {
		v.G = v.G[:n]
		clear(v.G)
	}
	return p.handOut(v)
}

// take pops a free value of n's capacity class with W resized to n and
// zeroed, or nil.
func (p *Pool) take(n int) *V {
	k := class(n)
	vs := p.free[k]
	if len(vs) == 0 {
		return nil
	}
	v := vs[len(vs)-1]
	vs[len(vs)-1] = nil
	p.free[k] = vs[:len(vs)-1]
	p.retained -= storageBytes(v)
	v.W = v.W[:n]
	clear(v.W)
	return v
}

// take32 pops a free float32 value of n's capacity class with W32
// resized to n and zeroed, or nil.
func (p *Pool) take32(n int) *V {
	k := class(n)
	vs := p.free32[k]
	if len(vs) == 0 {
		return nil
	}
	v := vs[len(vs)-1]
	vs[len(vs)-1] = nil
	p.free32[k] = vs[:len(vs)-1]
	p.retained -= storageBytes(v)
	v.W32 = v.W32[:n]
	clear(v.W32)
	return v
}

// put returns a value's storage to the pool. The caller must not use v
// after releasing it. float32-only values go to the f32 free list;
// everything else is keyed by its float64 storage. If keeping v would
// take the retained total past retainFactor times the in-use
// high-water mark, the free lists are emptied first.
func (p *Pool) put(v *V) {
	b := storageBytes(v)
	p.inUse = max(p.inUse-b, 0)
	if b == 0 {
		return
	}
	if p.retained+b > retainFactor*p.peakInUse {
		clear(p.free)
		clear(p.free32)
		p.retained = 0
	}
	if cap(v.W) > 0 {
		k := capClass(cap(v.W))
		p.free[k] = append(p.free[k], v)
	} else {
		k := capClass(cap(v.W32))
		p.free32[k] = append(p.free32[k], v)
	}
	p.retained += b
}
