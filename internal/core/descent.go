package core

import (
	"math"

	"flexcore/internal/cmatrix"
)

// This file holds the complex128 backend's detection descent (DESIGN.md
// §15). The paper gives each selected path its own processing element,
// which walks the whole tree (§3.2, Fig. 2). On a CPU the selected paths
// share long top-of-tree prefixes, so the descent walks them in top-down
// lexicographic rank order and restarts each path at the first level
// where it differs from its predecessor: every node of the paths' trie
// is visited once. Each node slices through the half-unit core
// constellation.KthClosestHalf with the per-level multiplier
// w[i] = 1/(R_ii·scale) folded in, so no node divides. Decisions,
// distances and tie-breaks are those of walking every path from the
// root in path-index order.

// plan is the per-prepared-channel descent plan, built lazily on the
// first detection after Prepare or Select marked it dirty, never per
// received vector.
type plan struct {
	w          []float64 // per level: b·w[i] is the effective point in half-distance units
	degenerate bool      // some R_ii ≤ 0: every path deactivates, detection takes the fallback
	steps      []lexStep // the paths in top-down lexicographic rank order
	tmp        []lexStep // counting-sort scratch, swapped with steps per pass
	count      []int32   // counting-sort buckets, indexed by rank (≤ |Q|)
	dirty      bool
}

// lexStep is one position of the lexicographic walk.
type lexStep struct {
	path int32 // index into the selected path set
	from int32 // highest level where the path differs from its lex predecessor (−1: identical)
}

// scratch is one goroutine's per-vector detection state. Everything is
// grown only when the stream count grows, so steady-state detection is
// allocation-free.
type scratch struct {
	ybar []complex128 // rotated received vector
	idx  []int        // symbol index per level of the path being walked
	sym  []complex128 // symbol value per level of the path being walked
	ped  []float64    // ped[i]: partial distance after levels n−1..i; ped[n] = 0
	best []int        // symbol indices of the current winner
}

// ensure sizes the scratch for n streams.
func (s *scratch) ensure(n int) {
	if cap(s.ped) < n+1 {
		s.ybar = make([]complex128, n)
		s.idx = make([]int, n)
		s.sym = make([]complex128, n)
		s.ped = make([]float64, n+1)
		s.best = make([]int, n)
	}
	s.ybar = s.ybar[:n]
	s.idx = s.idx[:n]
	s.sym = s.sym[:n]
	s.ped = s.ped[:n+1]
	s.ped[n] = 0
	s.best = s.best[:n]
}

// planRefresh rebuilds the descent plan for the active channel and path
// set when Prepare or Select marked it dirty. The lexicographic order is
// an LSD counting sort over the levels (ranks are ≤ |Q|), so the build
// is O(n·(N_PE + |Q|)); steady state performs no allocation.
//
//flexcore:noalloc
func (d *FlexCore) planRefresh() {
	pl := &d.plan
	if !pl.dirty {
		return
	}
	pl.dirty = false
	n, P, m := d.n, len(d.paths), d.cons.Size()
	if cap(pl.w) < n {
		pl.w = make([]float64, n) //lint:ignore noalloc amortised: regrows only when the stream count grows
	}
	if cap(pl.steps) < P {
		pl.steps = make([]lexStep, P) //lint:ignore noalloc amortised: regrows only when the path count grows
		pl.tmp = make([]lexStep, P)   //lint:ignore noalloc amortised: see above
	}
	if cap(pl.count) < m+1 {
		pl.count = make([]int32, m+1) //lint:ignore noalloc amortised: regrows only when the constellation grows
	}
	pl.w = pl.w[:n]
	pl.count = pl.count[:m+1]
	scale := d.cons.Scale()
	pl.degenerate = false
	for i := range pl.w {
		rii := real(d.qr.R.At(i, i))
		if rii <= 0 {
			pl.degenerate = true
		}
		pl.w[i] = 1 / (rii * scale)
	}

	steps, tmp := pl.steps[:P], pl.tmp[:P]
	for p := range steps {
		steps[p].path = int32(p)
	}
	// Stable counting sort by each level, least significant (bottom)
	// level first; equal rank vectors keep path-index order.
	for i := 0; i < n && P > 1; i++ {
		cnt := pl.count
		clear(cnt)
		for _, st := range steps {
			cnt[d.paths[st.path].Ranks[i]]++
		}
		var sum int32
		for r, c := range cnt {
			cnt[r] = sum
			sum += c
		}
		for _, st := range steps {
			r := d.paths[st.path].Ranks[i]
			tmp[cnt[r]] = st
			cnt[r]++
		}
		steps, tmp = tmp, steps
	}
	for pos := range steps {
		from := n - 1
		if pos > 0 {
			a, b := d.paths[steps[pos-1].path].Ranks, d.paths[steps[pos].path].Ranks
			for from >= 0 && a[from] == b[from] {
				from--
			}
		}
		steps[pos].from = int32(from)
	}
	pl.steps, pl.tmp = steps, tmp
}

// walk descends one path from level `from` down to the leaf, reusing the
// symbols and partial distances above `from` left in s by the previous
// path. At each level it cancels the decided interference, forms the
// effective received point (Eq. 5) with the folded multiplier and picks
// the rank[i]-th closest symbol. A candidate outside the constellation
// saturates the slicer per axis (default) or deactivates the path
// (StrictDeactivation, the paper's literal §3.2 wording); a partial
// distance above bound prunes it (DESIGN.md §15.6). walk returns the
// level it deactivated or was pruned at, or −1 when the path reached its
// leaf with distance s.ped[0]. ExactSlicer slices the divided point with
// the sort-based exact lookup instead. The plan must not be degenerate.
//
//flexcore:noalloc
func (d *FlexCore) walk(yb []complex128, ranks []int, from int, bound float64, s *scratch) (dead int) {
	r := d.qr.R
	w := d.plan.w
	exact := d.opts.ExactSlicer
	clamp := !d.opts.StrictDeactivation
	for i := from; i >= 0; i-- {
		b := cmatrix.CancelRow(r, yb, s.sym, i)
		rii := real(r.At(i, i))
		var k int
		if exact {
			k = d.cons.ExactKth(b/complex(rii, 0), ranks[i])
		} else {
			var in bool
			k, in = d.cons.KthClosestHalf(real(b)*w[i], imag(b)*w[i], ranks[i], clamp)
			if !in && !clamp {
				return i
			}
		}
		q := d.cons.Point(k)
		s.idx[i] = k
		s.sym[i] = q
		s.ped[i] = s.ped[i+1] + cmatrix.PEDIncrement(b, rii, q)
		if s.ped[i] > bound {
			return i
		}
	}
	return -1
}

// descend walks lex positions [lo, hi) of the plan against the rotated
// vector yb and returns the block winner: the least (leaf distance, path
// index) pair, with its symbol indices in s.best — the same path a
// strict-minimum scan in path-index order picks, so ties go to the
// lowest path index. A NaN distance never wins; win is −1 when no path
// of the block survives. The first position restarts at the top, so
// any contiguous block can run on its own scratch. Under
// StrictDeactivation a dead node kills its whole subtree: the paths
// that share it are skipped without a walk. A node whose partial
// distance already exceeds the block's best leaf is dead the same way,
// whether the walk meets it or a later path would restart below it.
//
//flexcore:noalloc
func (d *FlexCore) descend(yb []complex128, lo, hi int, s *scratch) (win int, ped float64) {
	win, ped = -1, math.Inf(1)
	dead := -1 // level at which the walked prefix deactivated or was pruned, −1 while alive
	for pos, st := range d.plan.steps[lo:hi] {
		from := int(st.from)
		if pos == 0 {
			from = d.n - 1
		}
		if dead > from {
			continue
		}
		if s.ped[from+1] > ped {
			dead = from + 1
			continue
		}
		if dead = d.walk(yb, d.paths[st.path].Ranks, from, ped, s); dead >= 0 {
			continue
		}
		p := int(st.path)
		if leaf := s.ped[0]; leaf <= ped && (leaf < ped || p < win) {
			win, ped = p, leaf
			copy(s.best, s.idx)
		}
	}
	return win, ped
}

// detectOne runs one full detection with caller-owned scratch and writes
// the unpermuted result into out; the plan must be refreshed already. It
// reports whether the clamped-SIC fallback resolved the vector. It is
// the sequential per-vector kernel shared by Detect, the sequential
// DetectBatch route and the pool's batch workers.
//
//flexcore:noalloc
func (d *FlexCore) detectOne(y []complex128, s *scratch, out []int) bool {
	yb := d.qr.YbarInto(y, s.ybar)
	if d.plan.degenerate {
		d.clampedSICInto(yb, s.idx, s.sym)
		d.qr.UnpermuteIntsInto(s.idx, out)
		return true
	}
	if win, _ := d.descend(yb, 0, len(d.plan.steps), s); win < 0 {
		d.clampedSICInto(yb, s.idx, s.sym)
		d.qr.UnpermuteIntsInto(s.idx, out)
		return true
	}
	d.qr.UnpermuteIntsInto(s.best, out)
	return false
}

// clampedSICInto is the deactivation fallback: a rank-one descent through
// the saturating half-unit slicer (the nearest symbol, which never
// deactivates), written into caller-owned idx/sym scratch. A level with
// R_ii ≤ 0 slices the origin.
//
//flexcore:noalloc
func (d *FlexCore) clampedSICInto(ybar []complex128, idx []int, sym []complex128) []int {
	scale := d.cons.Scale()
	for i := d.n - 1; i >= 0; i-- {
		b := cmatrix.CancelRow(d.qr.R, ybar, sym, i)
		var x, y float64
		if rii := real(d.qr.R.At(i, i)); rii > 0 {
			w := 1 / (rii * scale)
			x, y = real(b)*w, imag(b)*w
		}
		idx[i], _ = d.cons.KthClosestHalf(x, y, 1, true)
		sym[i] = d.cons.Point(idx[i])
	}
	return idx
}
