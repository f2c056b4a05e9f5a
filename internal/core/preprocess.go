package core

import (
	"math"

	"flexcore/internal/kernel32"
)

// Path is one sphere-decoder tree path selected by pre-processing,
// described relative to the future received signal: Ranks[i] is the
// 1-based closest-symbol rank chosen at R row i (row n−1 is the top tree
// level, decided first). LogP is the model log-probability log Pc.
type Path struct {
	Ranks []int
	LogP  float64
}

// Prob returns Pc(p) = exp(LogP).
func (p Path) Prob() float64 { return math.Exp(p.LogP) }

// PreprocessStats reports the work done by the pre-processing tree
// search, in the units of the paper's Table 2, plus the coherence-reuse
// counters of the channel-rate fast path.
type PreprocessStats struct {
	// RealMuls counts the probability-update multiplications the search
	// performs: the Nt-term root product plus one Pc(child) =
	// Pc(parent)·Pe(w) per child probability it evaluates.
	RealMuls int64
	// Expanded counts expanded pre-processing tree nodes.
	Expanded int64
	// CumulativeProb is Σ Pc over the returned set E.
	CumulativeProb float64
	// CacheHits counts Prepare calls that reused the position vectors of
	// a coherent earlier channel instead of re-running the tree search
	// (0 unless Options.PathReuse is enabled).
	CacheHits int64
	// CacheMisses counts Prepare calls that ran the tree search afresh
	// while the reuse cache was enabled.
	CacheMisses int64
}

// Add accumulates the counter fields of other into s — the
// aggregation the serving layer uses to merge per-shard detector
// stats into one metrics snapshot. CumulativeProb is a per-Prepare
// instantaneous value, not a counter, so Add keeps s's value.
func (s *PreprocessStats) Add(other PreprocessStats) {
	s.RealMuls += other.RealMuls
	s.Expanded += other.Expanded
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
}

// pathFinder owns the reusable storage of the pre-processing tree
// search: the candidate heap, the per-path child cursors and the result
// arena the selected paths are emitted into. Repeated searches with the
// same (N_PE, Nt) shape perform no allocation — the paper's point that
// pre-processing is O(N_PE·Nt) cheap holds for memory traffic too, not
// only arithmetic. One finder serves both backends; find's f32 flag
// picks the key width.
//
// The returned paths alias the finder's arena and stay valid until its
// next find call. A finder is not safe for concurrent use.
type pathFinder struct {
	heap   frontier
	resBuf []int // result arena, cap × n
	paths  []Path
	st     []pathState // per-emitted-path child enumeration
	lpe    []float64   // per-level log Pe at the search's key width
	ord    []int32     // levels by descending lpe (ties: ascending level)
	near   []bool      // near[t]: the child at ord[t] can share a key with a later one
	f32    bool        // float32 keys and Exp32 (the SoA backend)
	m      int         // constellation order: the rank cap
	muls   int64       // probability multiplies of the current search
	n, cap int
}

// pathState is the lazy child enumeration of one emitted path. Its
// children — the legal levels along ord — have keys that fall
// monotonically along ord. They enter the heap one at a time, run by
// run of bit-identical keys, and within a run in ascending level: the
// eager search's order.
type pathState struct {
	key        uint64 // the current run's key
	start, end int32  // the current run: ord positions [start, end)
	last       int32  // duplicate-suppression bound: children increment levels ≤ last
}

// ensure grows the finder's arenas for an n-level, nPE-path search.
func (f *pathFinder) ensure(n, nPE int) {
	if f.n != n || f.cap < nPE {
		f.n = n
		f.cap = nPE
		f.resBuf = make([]int, nPE*n)
		f.paths = make([]Path, nPE)
		f.st = make([]pathState, nPE)
		// The heap holds at most one child per opened path, and the
		// last emitted path is never opened.
		f.heap = make(frontier, 0, nPE)
	}
	if cap(f.lpe) < n {
		f.lpe = make([]float64, n)
		f.ord = make([]int32, n)
		f.near = make([]bool, n)
	}
	f.lpe = f.lpe[:n]
	f.ord = f.ord[:n]
	f.near = f.near[:n]
	f.heap = f.heap[:0]
}

// round rounds x to the search's key width. At float32 width x is the
// float64 sum of two float32 values; float64 carries more than 2·24+2
// bits, so this one rounding equals a float32 addition.
//
//flexcore:noalloc
func (f *pathFinder) round(x float64) float64 {
	if f.f32 {
		return float64(float32(x))
	}
	return x
}

// exp returns Pc = e^logP at the search's key width.
//
//flexcore:noalloc
func (f *pathFinder) exp(logP float64) float64 {
	if f.f32 {
		return float64(kernel32.Exp32(float32(logP)))
	}
	return math.Exp(logP)
}

// seek returns the first ord position ≥ t holding a legal child of path
// q — a level within q's duplicate-suppression bound whose rank is
// below |Q| — or n when none is left.
//
//flexcore:noalloc
func (f *pathFinder) seek(q int, t int32) int32 {
	ranks := f.paths[q].Ranks
	last := f.st[q].last
	for ; int(t) < f.n; t++ {
		if w := f.ord[t]; w <= last && ranks[w] < f.m {
			return t
		}
	}
	return int32(f.n)
}

// childKey evaluates the key of path q's child at ord position t:
// Pc(child) = Pc(q)·Pe(w) in the log domain, rounded to the key width.
//
//flexcore:noalloc
func (f *pathFinder) childKey(q int, t int32) uint64 {
	f.muls++
	return orderKey(f.round(f.paths[q].LogP + f.lpe[f.ord[t]]))
}

// open starts the child enumeration of the just-emitted path q, whose
// last increment was level last, and pushes its first child.
//
//flexcore:noalloc
func (f *pathFinder) open(q int, last int32) {
	f.st[q] = pathState{last: last}
	f.nextRun(q)
}

// nextRun moves path q to its next run of children — the first legal
// child after the current run and every later child with the
// bit-identical key — and pushes the run's lowest level. A run is longer
// than one child when log Pe values repeat (clamped levels) or when
// rounding gives two distinct log Pe the same key; the eager search
// extracts such ties in level order, which ord does not give. near
// confines the key comparisons that find a run's end to the positions
// where a tie is possible at all.
//
//flexcore:noalloc
func (f *pathFinder) nextRun(q int) {
	s := &f.st[q]
	t := f.seek(q, s.end)
	if int(t) == f.n {
		return
	}
	s.start, s.end, s.key = t, t+1, f.childKey(q, t)
	for u := t; f.near[u]; {
		if u = f.seek(q, u+1); int(u) == f.n || f.childKey(q, u) != s.key {
			break
		}
		s.end = u + 1
	}
	if s.end == t+1 {
		f.heap.push(candidate{key: s.key, tie: uint64(q)<<16 | uint64(f.ord[t])})
		return
	}
	f.pushAbove(q, -1)
}

// pushAbove pushes path q's child in the current run with the lowest
// level above w, reporting whether the run had one left.
//
//flexcore:noalloc
func (f *pathFinder) pushAbove(q int, w int32) bool {
	s := &f.st[q]
	ranks := f.paths[q].Ranks
	next := int32(-1)
	for t := s.start; t < s.end; t++ {
		if v := f.ord[t]; v > w && v <= s.last && ranks[v] < f.m && (next < 0 || v < next) {
			next = v
		}
	}
	if next < 0 {
		return false
	}
	f.heap.push(candidate{key: s.key, tie: uint64(q)<<16 | uint64(next)})
	return true
}

// find runs the pre-processing tree search of §3.1.1 (see FindPaths for
// the algorithm contract) into the finder's pooled storage, with float64
// keys or, when f32 is set, float32 keys and Exp32.
//
//flexcore:noalloc
func (f *pathFinder) find(m *Model, nPE int, stopThreshold float64, f32 bool) ([]Path, PreprocessStats) {
	n := m.Levels()
	if nPE < 1 {
		nPE = 1
	}
	// Cap at the total number of tree paths |Q|^Nt (avoiding overflow).
	total := 1.0
	for i := 0; i < n; i++ {
		total *= float64(m.M)
		if total > 1e15 {
			total = 1e15
			break
		}
	}
	if float64(nPE) > total {
		nPE = int(total)
	}
	f.ensure(n, nPE)
	f.f32, f.m = f32, m.M

	// Per-level key increments, the root product Σ log(1−Pe) and the
	// child order: levels by descending log Pe, the insertion sort
	// stable in the level index.
	root, span := 0.0, 0.0
	for i := 0; i < n; i++ {
		f.lpe[i] = f.round(m.logPe[i])
		root = f.round(root + f.round(m.log1mPe[i]))
		span -= f.lpe[i]
		f.ord[i] = int32(i)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && f.lpe[f.ord[j-1]] < f.lpe[f.ord[j]]; j-- {
			f.ord[j-1], f.ord[j] = f.ord[j], f.ord[j-1]
		}
	}
	// near[t]: can the child at ord[t] share a rounded key with a later
	// sibling? Keys a = fl(base + log Pe) of two siblings coincide only
	// if their log Pe differ by at most ulp(a) ≤ |a|·2^−52 (2^−23 at
	// float32), and no key exceeds |root| + (|Q|−1)·Σ|log Pe| in
	// magnitude beyond rounding drift, so a gap above twice that bound
	// times the epsilon rules a tie out under every parent. Log Pe falls
	// along ord, so the gap to the next level bounds the gap to any later
	// one.
	eps := 0x1p-52
	if f32 {
		eps = 0x1p-23
	}
	tol := 2 * (-root + float64(m.M-1)*span) * eps
	for t := 0; t < n; t++ {
		f.near[t] = t+1 < n && f.lpe[f.ord[t]]-f.lpe[f.ord[t+1]] <= tol
	}
	f.muls = int64(n)

	// Root: the all-ones position vector, emitted directly.
	res := f.resBuf[:n:n]
	for i := range res {
		res[i] = 1
	}
	f.paths[0] = Path{Ranks: res, LogP: root}
	emitted := 1
	cumulative := f.exp(root)
	if nPE > 1 && !(stopThreshold > 0 && cumulative >= stopThreshold) {
		f.open(0, int32(n-1))
	}
	for len(f.heap) > 0 {
		// Extract the best candidate and materialise its rank vector
		// from its parent's.
		c := f.heap.popMax()
		p, w := int(c.tie>>16), int32(c.tie&0xffff)
		q := emitted
		res := f.resBuf[q*n : (q+1)*n : (q+1)*n]
		copy(res, f.paths[p].Ranks)
		res[w]++
		f.paths[q] = Path{Ranks: res, LogP: keyLogP(c.key)}
		emitted++
		cumulative += f.exp(f.paths[q].LogP)
		if emitted == nPE || stopThreshold > 0 && cumulative >= stopThreshold {
			break
		}
		// Two deferred pushes replace the eager fan-out of every child:
		// the parent's next child and the new path's first.
		if s := &f.st[p]; s.end-s.start == 1 || !f.pushAbove(p, w) {
			f.nextRun(p)
		}
		f.open(q, w)
	}
	return f.paths[:emitted], PreprocessStats{RealMuls: f.muls, Expanded: int64(emitted), CumulativeProb: cumulative}
}

// FindPaths runs the pre-processing tree search of §3.1.1: starting from
// the all-ones position vector it repeatedly expands the most promising
// node of the candidate list, collecting expanded nodes into the result
// set E, until nPE paths are selected or (if stopThreshold > 0) the
// cumulative probability of E exceeds the threshold — the a-FlexCore
// stopping criterion. The returned paths are in descending Pc order;
// equal probabilities extract in generation order — earlier-emitted
// parent first, then lower level.
//
// Duplicate suppression follows Fig. 5: a node generated by incrementing
// element l only generates children for elements w ≤ l, so every position
// vector is produced exactly once (its increments sorted in non-
// increasing element order form the unique generation path).
//
// The search is the lazy top-k form of that expansion (DESIGN.md §9):
// each path's children are visited in descending probability, and an
// extraction pushes only the extracted node's next sibling and the new
// path's first child, so the candidate list never holds more than N_PE
// entries, is never trimmed, and yields exactly the paths, in exactly
// the order, of pushing every child. FindPaths uses float64 keys; this
// standalone entry point allocates a fresh pool per call, so the
// returned paths are the caller's to keep. FlexCore detectors reuse a
// persistent pool across Prepare calls instead.
func FindPaths(m *Model, nPE int, stopThreshold float64) ([]Path, PreprocessStats) {
	var f pathFinder
	return f.find(m, nPE, stopThreshold, false)
}

// FindPaths32 is FindPaths at the SoA backend's key width: every key
// addition is rounded to float32 and Σ Pc accumulates kernel32.Exp32.
// Position vectors are exact either way; only LogP carries float32
// precision. FlexCore detectors with Options.Backend == BackendSoA32
// run this search on their persistent pool.
func FindPaths32(m *Model, nPE int, stopThreshold float64) ([]Path, PreprocessStats) {
	var f pathFinder
	return f.find(m, nPE, stopThreshold, true)
}

// candidate is one entry of the lazy search's candidate list: the child
// of emitted path tie>>16 that increments level tie&0xffff (levels fit
// 16 bits by a wide margin).
type candidate struct {
	key uint64 // orderKey of the child's log Pc
	tie uint64 // parent<<16 | level: generation order among equal keys
}

// better is the extraction order: higher probability first, then the
// earlier-generated candidate.
//
//flexcore:noalloc
func (a *candidate) better(b *candidate) bool {
	return a.key > b.key || a.key == b.key && a.tie < b.tie
}

// frontier is a binary max-heap of candidates under better. Its capacity
// is reserved by pathFinder.ensure; push re-slices within it.
type frontier []candidate

// push inserts a candidate.
//
//flexcore:noalloc
func (h *frontier) push(c candidate) {
	a := (*h)[:len(*h)+1]
	*h = a
	j := len(a) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !c.better(&a[p]) {
			break
		}
		a[j] = a[p]
		j = p
	}
	a[j] = c
}

// popMax removes and returns the best candidate.
//
//flexcore:noalloc
func (h *frontier) popMax() candidate {
	a := *h
	top := a[0]
	last := len(a) - 1
	c := a[last]
	a = a[:last]
	*h = a
	// Sift the former last entry down from the root.
	i := 0
	for {
		k := 2*i + 1
		if k >= last {
			break
		}
		if k+1 < last && a[k+1].better(&a[k]) {
			k++
		}
		if !a[k].better(&c) {
			break
		}
		a[i] = a[k]
		i = k
	}
	if last > 0 {
		a[i] = c
	}
	return top
}

// orderKey maps a float64 to a uint64 whose unsigned order is the
// float's order (the sign-aware bits transform), so key comparisons are
// integer compares.
//
//flexcore:noalloc
func orderKey(x float64) uint64 {
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// keyLogP inverts orderKey.
//
//flexcore:noalloc
func keyLogP(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}
