package core

import (
	"fmt"
	"math"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
	"flexcore/internal/kernel32"
)

// The eager form of the §3.1.1 search, kept as the bit-identity oracle
// of the lazy pathFinder: every extraction pushes all of the new path's
// children onto a max-heap ordered by (logP, insertion sequence) — FIFO
// among equal keys, which is the paper's sorted candidate list — and the
// heap is trimmed to its best N_PE entries whenever it exceeds 2·N_PE
// (a trimmed entry can never be extracted: fewer than N_PE extractions
// remain and each outranks it). With f32 set, every key addition is
// rounded to float32 and Σ Pc accumulates Exp32, the SoA backend's
// arithmetic.

// candNode is one eager candidate: the child of result path parent
// obtained by incrementing element lastInc.
type candNode struct {
	logP    float64
	seq     int32 // insertion order: the FIFO tie-break
	lastInc int32 // index whose increment generated this node (dedup rule)
	parent  int32 // index into the result set (-1 = root node)
}

// worse reports whether a ranks strictly below b: lower logP, or equal
// logP and later insertion.
func (a *candNode) worse(b *candNode) bool {
	if a.logP != b.logP {
		return a.logP < b.logP
	}
	return a.seq > b.seq
}

// candHeap is a binary max-heap of candidates under worse.
type candHeap []candNode

func (h *candHeap) push(n candNode) {
	a := append(*h, n)
	*h = a
	j := len(a) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !a[p].worse(&a[j]) {
			break
		}
		a[p], a[j] = a[j], a[p]
		j = p
	}
}

func (h *candHeap) popMax() candNode {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	*h = a
	a.siftDown(0)
	return top
}

func (h candHeap) siftDown(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c].worse(&h[c+1]) {
			c++
		}
		if !h[i].worse(&h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// compact trims the heap to its k best candidates (quickselect, then
// re-heapify).
func (h *candHeap) compact(k int) {
	a := *h
	if len(a) <= k {
		return
	}
	selectBest(a, k)
	a = a[:k]
	for i := k/2 - 1; i >= 0; i-- {
		a.siftDown(i)
	}
	*h = a
}

// selectBest partially partitions a so its k best candidates occupy
// a[:k] — an iterative median-of-three quickselect.
func selectBest(a []candNode, k int) {
	lo, hi := 0, len(a)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if a[lo].worse(&a[mid]) {
			a[lo], a[mid] = a[mid], a[lo]
		}
		if a[mid].worse(&a[hi-1]) {
			a[mid], a[hi-1] = a[hi-1], a[mid]
			if a[lo].worse(&a[mid]) {
				a[lo], a[mid] = a[mid], a[lo]
			}
		}
		pivot := a[mid]
		a[mid], a[hi-1] = a[hi-1], a[mid]
		p := lo
		for j := lo; j < hi-1; j++ {
			if pivot.worse(&a[j]) {
				a[p], a[j] = a[j], a[p]
				p++
			}
		}
		a[p], a[hi-1] = a[hi-1], a[p]
		switch {
		case p == k || p == k-1:
			return
		case p > k:
			hi = p
		default:
			lo = p + 1
		}
	}
}

// eagerFindPaths is the eager search with FindPaths' contract.
func eagerFindPaths(m *Model, nPE int, stopThreshold float64, f32 bool) ([]Path, PreprocessStats) {
	round := func(x float64) float64 {
		if f32 {
			return float64(float32(x))
		}
		return x
	}
	var stats PreprocessStats
	n := m.Levels()
	if nPE < 1 {
		nPE = 1
	}
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
	root := m.RootLogP()
	if f32 {
		var r float32
		for _, v := range m.log1mPe {
			r += float32(v)
		}
		root = float64(r)
	}
	var heap candHeap
	var paths []Path
	seq := int32(0)
	heap.push(candNode{logP: root, seq: seq, lastInc: int32(n - 1), parent: -1})
	stats.RealMuls += int64(n)
	var cumulative float64
	for len(paths) < nPE && len(heap) > 0 {
		node := heap.popMax()
		res := make([]int, n)
		if node.parent < 0 {
			for i := range res {
				res[i] = 1
			}
		} else {
			copy(res, paths[node.parent].Ranks)
			res[node.lastInc]++
		}
		parent := int32(len(paths))
		paths = append(paths, Path{Ranks: res, LogP: node.logP})
		if f32 {
			cumulative += float64(kernel32.Exp32(float32(node.logP)))
		} else {
			cumulative += math.Exp(node.logP)
		}
		stats.Expanded++
		if stopThreshold > 0 && cumulative >= stopThreshold {
			break
		}
		for w := 0; w <= int(node.lastInc); w++ {
			if res[w] >= m.M {
				continue
			}
			seq++
			heap.push(candNode{
				logP:    round(node.logP + round(m.logPe[w])),
				seq:     seq,
				lastInc: int32(w),
				parent:  parent,
			})
			stats.RealMuls++
		}
		if len(heap) > 2*nPE {
			heap.compact(nPE)
		}
	}
	stats.CumulativeProb = cumulative
	return paths, stats
}

// sameSearch reports the first difference between two searches' paths
// (Ranks, LogP bits, order) and stats (Expanded, CumulativeProb bits),
// or "" when they are bit-identical.
func sameSearch(got, want []Path, gs, ws PreprocessStats) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d paths, want %d", len(got), len(want))
	}
	for i := range want {
		if !equalInts(got[i].Ranks, want[i].Ranks) {
			return fmt.Sprintf("ranks differ at path %d: %v, want %v", i, got[i].Ranks, want[i].Ranks)
		}
		if math.Float64bits(got[i].LogP) != math.Float64bits(want[i].LogP) {
			return fmt.Sprintf("LogP differs at path %d: %v, want %v", i, got[i].LogP, want[i].LogP)
		}
	}
	if gs.Expanded != ws.Expanded {
		return fmt.Sprintf("Expanded %d, want %d", gs.Expanded, ws.Expanded)
	}
	if math.Float64bits(gs.CumulativeProb) != math.Float64bits(ws.CumulativeProb) {
		return fmt.Sprintf("CumulativeProb %v, want %v", gs.CumulativeProb, ws.CumulativeProb)
	}
	return ""
}

// TestFindPathsMatchesEagerOracle pins the lazy search to the eager one
// bit for bit — Ranks, LogP bits, order, Expanded and CumulativeProb
// bits — at both key widths. The grid is seeded Rayleigh channels over
// |Q| ∈ {4, 16, 64}, Nt ∈ {2, 4, 8, 12}, σ² from 1e-6 (levels clamped
// at peMin: exact key ties across parents) to 2 (levels clamped at
// peMax), N_PE ∈ {1, 7, 64, 512} and θ ∈ {0, 0.95}, on one finder reused
// across the whole grid as a detector reuses its own. The absorbed-tie
// cases cover keys that tie only after rounding: two levels with
// distinct log Pe whose sums with the root's log Pc round to the same
// key. The level with the larger log Pe comes first in the child order,
// but the eager search extracts the lower level first (it was pushed
// first), so the lazy search must push the whole equal-key run and let
// the heap's tie order decide.
func TestFindPathsMatchesEagerOracle(t *testing.T) {
	t.Run("grid", func(t *testing.T) {
		seeds := 20
		if testing.Short() {
			seeds = 2
		}
		var f pathFinder
		for _, q := range []int{4, 16, 64} {
			cons := constellation.MustNew(q)
			for _, nt := range []int{2, 4, 8, 12} {
				for _, sigma2 := range []float64{1e-6, 1e-3, 0.05, 0.3, 2} {
					for seed := 0; seed < seeds; seed++ {
						rng := channel.NewStreamRNG(0x1a2b, uint64(q<<16|nt<<8|seed))
						qr := cmatrix.SortedQR(channel.Rayleigh(rng, nt, nt), cmatrix.OrderSQRD)
						m := NewModel(qr.R, sigma2, cons)
						for _, f32 := range []bool{false, true} {
							for _, npe := range []int{1, 7, 64, 512} {
								for _, theta := range []float64{0, 0.95} {
									want, ws := eagerFindPaths(m, npe, theta, f32)
									got, gs := f.find(m, npe, theta, f32)
									if diff := sameSearch(got, want, gs, ws); diff != "" {
										t.Fatalf("|Q|=%d Nt=%d σ²=%v seed %d f32=%v N_PE %d θ=%v: %s",
											q, nt, sigma2, seed, f32, npe, theta, diff)
									}
								}
							}
						}
					}
				}
			}
		}
	})
	for _, tc := range []struct {
		name string
		f32  bool
		lo   float64 // log Pe of level 0; level 1 has log Pe −1
	}{
		{"absorbed-tie/float64", false, -1 - 1e-15},
		{"absorbed-tie/float32", true, -1 - 0x1p-20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			logPe := []float64{tc.lo, -1, -1.5, -2}
			log1mPe := []float64{-100, -100, -100, -100}
			m := &Model{Pe: make([]float64, len(logPe)), logPe: logPe, log1mPe: log1mPe, M: 4}
			round := func(x float64) float64 {
				if tc.f32 {
					return float64(float32(x))
				}
				return x
			}
			root := -400.0
			if round(logPe[0]) == round(logPe[1]) || round(root+round(logPe[0])) != round(root+round(logPe[1])) {
				t.Fatalf("precondition: log Pe %v and −1 must differ at this width yet give the root the same child key", tc.lo)
			}
			var f pathFinder
			for _, npe := range []int{2, 3, 16, 64} {
				want, ws := eagerFindPaths(m, npe, 0, tc.f32)
				got, gs := f.find(m, npe, 0, tc.f32)
				if diff := sameSearch(got, want, gs, ws); diff != "" {
					t.Fatalf("N_PE %d: %s", npe, diff)
				}
			}
			if got, _ := f.find(m, 2, 0, tc.f32); got[1].Ranks[0] != 2 {
				t.Fatalf("second path %v, want level 0 incremented first", got[1].Ranks)
			}
		})
	}
}

// TestFindPathsWidthsAgreeOnClampedTies: at σ² 1e-6 most levels clamp
// at peMin, so their log Pe repeat exactly and keys tie across parents
// at both widths. Both widths must then select the same paths in the
// same order — the eager search's (parent, level) order. A FIFO on push
// order, which the lazy search reaches in a different sequence than the
// eager one, breaks these ties differently.
func TestFindPathsWidthsAgreeOnClampedTies(t *testing.T) {
	for _, q := range []int{4, 16, 64} {
		cons := constellation.MustNew(q)
		for _, nt := range []int{2, 4, 8} {
			for seed := 0; seed < 10; seed++ {
				rng := channel.NewStreamRNG(0x7e5, uint64(q<<16|nt<<8|seed))
				qr := cmatrix.SortedQR(channel.Rayleigh(rng, nt, nt), cmatrix.OrderSQRD)
				m := NewModel(qr.R, 1e-6, cons)
				clamped := 0
				for _, pe := range m.Pe {
					if pe == peMin {
						clamped++
					}
				}
				if clamped < 2 {
					t.Fatalf("|Q|=%d Nt=%d seed %d: %d levels clamped, want repeated log Pe", q, nt, seed, clamped)
				}
				want, _ := FindPaths(m, 64, 0)
				got, _ := FindPaths32(m, 64, 0)
				if len(got) != len(want) {
					t.Fatalf("|Q|=%d Nt=%d seed %d: %d paths (f32) vs %d", q, nt, seed, len(got), len(want))
				}
				for i := range want {
					if !equalInts(got[i].Ranks, want[i].Ranks) {
						t.Fatalf("|Q|=%d Nt=%d seed %d path %d: ranks %v (f32) vs %v (f64)",
							q, nt, seed, i, got[i].Ranks, want[i].Ranks)
					}
				}
			}
		}
	}
}
