package core

import (
	"math"
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
	// RealMuls counts the probability-update multiplications
	// (Pc(child) = Pc(parent)·Pe(w), one per generated child, plus the
	// Nt-term root product).
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
// search: the bounded candidate heap and the result arena the selected
// paths are emitted into. Repeated searches with the same (N_PE, Nt)
// shape perform no allocation — the paper's point that pre-processing is
// O(N_PE·Nt) cheap holds for memory traffic too, not only arithmetic.
//
// The returned paths alias the finder's arena and stay valid until its
// next find call. A finder is not safe for concurrent use.
type pathFinder struct {
	heap   candHeap
	resBuf []int // result arena, cap × n
	paths  []Path
	n, cap int
}

// ensure grows the finder's arenas for an n-level, nPE-path search.
func (f *pathFinder) ensure(n, nPE int) {
	if f.n != n || f.cap < nPE {
		f.n = n
		f.cap = nPE
		f.resBuf = make([]int, nPE*n)
		f.paths = make([]Path, 0, nPE)
		// compact fires above 2·nPE; the burst of children pushed between
		// checks never exceeds n.
		f.heap = make(candHeap, 0, 2*nPE+n)
	}
	f.heap = f.heap[:0]
	f.paths = f.paths[:0]
}

// find runs the pre-processing tree search of §3.1.1 (see FindPaths for
// the algorithm contract) into the finder's pooled storage.
//
//flexcore:noalloc
func (f *pathFinder) find(m *Model, nPE int, stopThreshold float64) ([]Path, PreprocessStats) {
	var stats PreprocessStats
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
	f.ensure(n, nPE) //lint:ignore noalloc amortised: the inlined arena helper allocates only when the search shape changes

	// Root: the all-ones position vector.
	seq := int32(0)
	f.heap.push(candNode{logP: m.RootLogP(), seq: seq, lastInc: int32(n - 1), parent: -1})
	stats.RealMuls += int64(n) // root product of (1−Pe) terms

	var cumulative float64
	for len(f.paths) < nPE && len(f.heap) > 0 {
		// Expand the most promising candidate, materializing its rank
		// vector from its parent's (already in the result set).
		node := f.heap.popMax()
		res := f.resBuf[len(f.paths)*n : (len(f.paths)+1)*n : (len(f.paths)+1)*n]
		if node.parent < 0 {
			for i := range res {
				res[i] = 1
			}
		} else {
			copy(res, f.paths[node.parent].Ranks)
			res[node.lastInc]++
		}
		parent := int32(len(f.paths))
		f.paths = append(f.paths, Path{Ranks: res, LogP: node.logP}) //lint:ignore noalloc amortised: ensure reserves cap nPE and the loop emits at most nPE paths
		cumulative += math.Exp(node.logP)
		stats.Expanded++
		if stopThreshold > 0 && cumulative >= stopThreshold {
			break
		}
		// Generate children: increment element w for w ≤ lastInc (the
		// Fig. 5 duplicate-suppression rule — every position vector has a
		// unique generation path).
		for w := 0; w <= int(node.lastInc); w++ {
			if res[w] >= m.M {
				continue // rank cannot exceed the constellation order
			}
			seq++
			f.heap.push(candNode{
				logP:    node.logP + m.logPe[w], // Pc(child) = Pc·Pe(w)
				seq:     seq,
				lastInc: int32(w),
				parent:  parent,
			})
			stats.RealMuls++
		}
		// Bound |L|: the paper trims to N_PE after every insertion, but a
		// trimmed entry can provably never be extracted, so compacting
		// lazily at 2·N_PE is output-identical and amortizes to O(1).
		if len(f.heap) > 2*nPE {
			f.heap.compact(nPE)
		}
	}
	stats.CumulativeProb = cumulative
	return f.paths, stats
}

// FindPaths runs the pre-processing tree search of §3.1.1: starting from
// the all-ones position vector it repeatedly expands the most promising
// node of the candidate list, collecting expanded nodes into the result
// set E, until nPE paths are selected or (if stopThreshold > 0) the
// cumulative probability of E exceeds the threshold — the a-FlexCore
// stopping criterion. The returned paths are in descending Pc order.
//
// Duplicate suppression follows Fig. 5: a node generated by incrementing
// element l only generates children for elements w ≤ l, so every position
// vector is produced exactly once (its increments sorted in non-
// increasing element order form the unique generation path).
//
// The candidate list is a bounded min-max heap capped at nPE entries
// with all node storage pooled (see pathFinder); this standalone entry
// point allocates a fresh pool per call, so the returned paths are the
// caller's to keep. FlexCore detectors reuse a persistent pool across
// Prepare calls instead.
func FindPaths(m *Model, nPE int, stopThreshold float64) ([]Path, PreprocessStats) {
	var f pathFinder
	return f.find(m, nPE, stopThreshold)
}
