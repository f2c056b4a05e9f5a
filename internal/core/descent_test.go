package core

import (
	"fmt"
	"math"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// oracleResult is one detection by the per-path reference walk.
type oracleResult struct {
	dec      []int   // unpermuted decision
	win      int     // winning path index, −1 for the fallback
	ped      float64 // winning distance
	fallback bool
}

// oracleDetect is the per-path descent the shared-prefix walk replaced,
// kept as the bit-identity oracle: every path walks from the root with a
// complex division per node and the KthClosest/KthClosestClamped
// wrappers (ExactKth under ExactSlicer), the winner is the first strict
// minimum in path-index order, and no survivor resolves through a
// nearest-symbol SIC on the divided point.
func oracleDetect(d *FlexCore, y []complex128) oracleResult {
	n := d.n
	yb := d.qr.Ybar(y)
	idx := make([]int, n)
	sym := make([]complex128, n)
	res := oracleResult{win: -1, ped: math.Inf(1)}
	var best []int
	for p, path := range d.paths {
		ped, ok := oraclePath(d, yb, path.Ranks, idx, sym)
		if ok && ped < res.ped {
			res.win, res.ped = p, ped
			best = append(best[:0], idx...)
		}
	}
	if res.win < 0 {
		res.fallback = true
		for i := n - 1; i >= 0; i-- {
			b := cmatrix.CancelRow(d.qr.R, yb, sym, i)
			rii := real(d.qr.R.At(i, i))
			var z complex128
			if rii > 0 {
				z = b / complex(rii, 0)
			}
			idx[i] = d.cons.Slice(z)
			sym[i] = d.cons.Point(idx[i])
		}
		best = idx
	}
	res.dec = d.qr.UnpermuteInts(best)
	return res
}

// oraclePath walks one path from the root.
func oraclePath(d *FlexCore, yb []complex128, ranks, idx []int, sym []complex128) (ped float64, ok bool) {
	for i := d.n - 1; i >= 0; i-- {
		b := cmatrix.CancelRow(d.qr.R, yb, sym, i)
		rii := real(d.qr.R.At(i, i))
		if rii <= 0 {
			return 0, false
		}
		z := b / complex(rii, 0)
		var k int
		switch {
		case d.opts.ExactSlicer:
			k = d.cons.ExactKth(z, ranks[i])
		case d.opts.StrictDeactivation:
			var kok bool
			if k, kok = d.cons.KthClosest(z, ranks[i]); !kok {
				return 0, false
			}
		default:
			k, _ = d.cons.KthClosestClamped(z, ranks[i])
		}
		idx[i] = k
		sym[i] = d.cons.Point(k)
		ped += cmatrix.PEDIncrement(b, rii, sym[i])
	}
	return ped, true
}

// checkAgainstOracle detects ys on d through every route the detector's
// options allow and compares each with the oracle: the plan's own
// descent (winning path index and distance, bit for bit), Detect (with
// Workers > 1 also the merged block winner of the path fan-out), and
// DetectBatch, plus the FallbackDetections count. It returns how many of
// ys the oracle resolved through the fallback.
func checkAgainstOracle(t *testing.T, d *FlexCore, ys [][]complex128, what string) int64 {
	t.Helper()
	want := make([]oracleResult, len(ys))
	fallbacks := int64(0)
	for v, y := range ys {
		want[v] = oracleDetect(d, y)
		if want[v].fallback {
			fallbacks++
		}
	}
	fb0 := d.FallbackDetections()
	for v, y := range ys {
		w := want[v]
		got := d.Detect(y)
		if !equalInts(got, w.dec) {
			t.Fatalf("%s vector %d: Detect %v, oracle %v", what, v, got, w.dec)
		}
		if d.plan.degenerate {
			if !w.fallback {
				t.Fatalf("%s vector %d: degenerate plan but the oracle found path %d", what, v, w.win)
			}
			continue
		}
		var s scratch
		s.ensure(d.n)
		win, ped := d.descend(d.qr.Ybar(y), 0, len(d.plan.steps), &s)
		if win != w.win || (win >= 0 && math.Float64bits(ped) != math.Float64bits(w.ped)) {
			t.Fatalf("%s vector %d: descent won path %d at %v, oracle path %d at %v", what, v, win, ped, w.win, w.ped)
		}
		if d.pool != nil && len(d.paths) > 1 {
			win, ped := -1, math.Inf(1)
			if bw := d.pool.blockWinner(); bw != nil {
				win, ped = bw.win, bw.ped
			}
			if win != w.win || (win >= 0 && math.Float64bits(ped) != math.Float64bits(w.ped)) {
				t.Fatalf("%s vector %d: path fan-out won path %d at %v, oracle path %d at %v", what, v, win, ped, w.win, w.ped)
			}
		}
	}
	out := d.DetectBatch(ys)
	for v := range ys {
		if !equalInts(out[v], want[v].dec) {
			t.Fatalf("%s vector %d: DetectBatch %v, oracle %v", what, v, out[v], want[v].dec)
		}
	}
	if got := d.FallbackDetections() - fb0; got != 2*fallbacks {
		t.Fatalf("%s: %d fallback detections over both routes, oracle %d", what, got, 2*fallbacks)
	}
	return fallbacks
}

// TestDescentMatchesPerPathOracle is the bit-identity property of the
// shared-prefix, division-free, bounded descent: across 400 seeded
// Rayleigh channels per geometry (2×2, 4×4, 8×8, 16-QAM, four noise
// levels), N_PE ∈ {1, 8, 64, 512}, clamped and strict slicing and
// Workers ∈ {1, 3}, every decision, winning path, winning distance and
// fallback count equals the per-path oracle's on both the Detect and
// the DetectBatch route. At σ² = 0.001 nearly every path that leaves
// the winner's prefix is pruned at its restart node. The corpus must
// reach the fallback (strict slicing at high noise deactivates every
// path of small N_PE), so that branch is compared too.
func TestDescentMatchesPerPathOracle(t *testing.T) {
	channels := 400
	if testing.Short() {
		channels = 40
	}
	cons := constellation.MustNew(16)
	sigmas := []float64{0.001, 0.01, 0.05, 0.3}
	var vectors, fallbacks int64
	for _, nt := range []int{2, 4, 8} {
		var dets []*FlexCore
		var names []string
		for _, npe := range []int{1, 8, 64, 512} {
			for _, strict := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					d := New(cons, Options{NPE: npe, StrictDeactivation: strict, Workers: workers})
					defer d.Close()
					dets = append(dets, d)
					names = append(names, d.Name())
				}
			}
		}
		rng := newRng(uint64(1200 + nt))
		for c := 0; c < channels; c++ {
			sigma2 := sigmas[c%len(sigmas)]
			h := channel.Rayleigh(rng, nt, nt)
			ys := make([][]complex128, 3)
			for v := range ys {
				ys[v] = transmit(rng, h, cons, randSymbols(rng, cons, nt), sigma2)
			}
			for k, d := range dets {
				if err := d.Prepare(h, sigma2); err != nil {
					t.Fatal(err)
				}
				fallbacks += checkAgainstOracle(t, d, ys, names[k])
				vectors += int64(len(ys))
			}
		}
	}
	t.Logf("%d vectors per route, %d resolved by the fallback", vectors, fallbacks)
	if fallbacks == 0 {
		t.Fatal("no vector reached the fallback; the corpus no longer covers it")
	}
}

// TestDescentMatchesOracleAfterSelect covers the plan's Select
// invalidation, the ExactSlicer route and DetectSoft's hard decision: a
// frame prepared with PrepareAll is detected subcarrier by subcarrier,
// each against the oracle.
func TestDescentMatchesOracleAfterSelect(t *testing.T) {
	cons := constellation.MustNew(16)
	hs := frameChannels(1210, 6, 4, 6)
	rng := newRng(1211)
	for _, opts := range []Options{{NPE: 32}, {NPE: 32, Workers: 3, PathReuse: true}, {NPE: 16, ExactSlicer: true}} {
		d := New(cons, opts)
		defer d.Close()
		if err := d.PrepareAll(hs, 0.05); err != nil {
			t.Fatal(err)
		}
		for k, h := range hs {
			if err := d.Select(k); err != nil {
				t.Fatal(err)
			}
			ys := [][]complex128{
				transmit(rng, h, cons, randSymbols(rng, cons, 4), 0.05),
				transmit(rng, h, cons, randSymbols(rng, cons, 4), 0.05),
			}
			checkAgainstOracle(t, d, ys, d.Name())
			for v, y := range ys {
				if got, _ := d.DetectSoft(y, 0.05); !equalInts(got, oracleDetect(d, y).dec) {
					t.Fatalf("%s subcarrier %d vector %d: DetectSoft %v, oracle %v", d.Name(), k, v, got, oracleDetect(d, y).dec)
				}
			}
		}
	}
}

// TestDescentTieGoesToLowestPathIndex builds two paths whose leaves are
// bit-identical and orders them so the lexicographic walk meets the
// higher path index first. The lower index must still win, on the
// sequential descent and on the path fan-out (Workers 3 puts each path in
// its own block, so the merge decides), although the running best already
// equals its leaf when the walk reaches it:
//   - "one level": both ranks saturate to the same corner symbol for a
//     point far outside the constellation;
//   - "saturated": the same below a shared top level, so the bound meets
//     the tie on the walk;
//   - "absorbed": the top level's distance is so large that every bottom
//     increment rounds away, so the shared prefix node already equals
//     the best leaf when the second path restarts below it.
func TestDescentTieGoesToLowestPathIndex(t *testing.T) {
	cons := constellation.MustNew(16)
	cases := []struct {
		name           string
		y              []complex128 // received point per level, bottom first
		ranks0, ranks1 []int        // Ranks of paths 0 and 1
		prefixTies     bool         // the shared prefix node equals the leaf
	}{
		{"one level", []complex128{complex(10, 10)}, []int{3}, []int{2}, false},
		{"saturated", []complex128{complex(10, 10), complex(0.1, 0.2)}, []int{3, 1}, []int{2, 1}, false},
		{"absorbed", []complex128{complex(0.1, 0.2), complex(1e9, 1e9)}, []int{2, 1}, []int{1, 1}, true},
	}
	for _, tc := range cases {
		n := len(tc.y)
		gains := make([]float64, n)
		for i := range gains {
			gains[i] = 1
		}
		for _, workers := range []int{1, 3} {
			d := New(cons, Options{NPE: 2, Workers: workers})
			defer d.Close()
			if err := d.Prepare(diagMatrix(gains), 0.05); err != nil {
				t.Fatal(err)
			}
			y := make([]complex128, n)
			for i, v := range tc.y {
				y[d.qr.Perm[i]] = v
			}
			d.paths = []Path{{Ranks: tc.ranks0}, {Ranks: tc.ranks1}}
			d.plan.dirty = true
			checkAgainstOracle(t, d, [][]complex128{y}, tc.name)

			yb := d.qr.Ybar(y)
			idx, sym := make([]int, n), make([]complex128, n)
			leaf0, _ := oraclePath(d, yb, tc.ranks0, idx, sym)
			leaf1, _ := oraclePath(d, yb, tc.ranks1, idx, sym)
			if math.Float64bits(leaf0) != math.Float64bits(leaf1) {
				t.Fatalf("%s: leaves %v and %v differ; the case must tie", tc.name, leaf0, leaf1)
			}
			if w := oracleDetect(d, y); w.win != 0 {
				t.Fatalf("%s: oracle won path %d, want the tie at path 0", tc.name, w.win)
			}
			if d.plan.steps[0].path != 1 {
				t.Fatalf("%s: lex order starts at path %d, want 1 (the case must walk the higher index first)", tc.name, d.plan.steps[0].path)
			}
			if n > 1 {
				var s scratch
				s.ensure(n)
				d.descend(yb, 0, 2, &s)
				if got := s.ped[1] == leaf0; got != tc.prefixTies || d.plan.steps[1].from != 0 {
					t.Fatalf("%s: path 0 restarts at level %d below a prefix at %v, leaf %v; want level 0 and equal %v",
						tc.name, d.plan.steps[1].from, s.ped[1], leaf0, tc.prefixTies)
				}
			}
		}
	}
}

// TestDescentBlockSplitsPrunedSubtree puts a fan-out block boundary
// inside a subtree the sequential walk prunes. Path 0 ends near the
// received point; paths 1…5 share a top-level node whose partial
// distance alone exceeds path 0's leaf, so the sequential walk prunes
// them at that node. With Workers 3 the first block prunes the subtree
// after path 0, while the next blocks start inside it with no best leaf
// of their own and must walk it: each block's winner is exact, and the
// merged winner is still path 0.
func TestDescentBlockSplitsPrunedSubtree(t *testing.T) {
	cons := constellation.MustNew(16)
	d := New(cons, Options{NPE: 6, Workers: 3})
	defer d.Close()
	if err := d.Prepare(diagMatrix([]float64{1, 1}), 0.05); err != nil {
		t.Fatal(err)
	}
	y := make([]complex128, 2)
	y[d.qr.Perm[0]] = cons.Point(5) + complex(0.01, -0.02)
	y[d.qr.Perm[1]] = cons.Point(9) + complex(-0.02, 0.01)
	d.paths = []Path{
		{Ranks: []int{1, 1}},
		{Ranks: []int{1, 2}}, {Ranks: []int{2, 2}}, {Ranks: []int{3, 2}}, {Ranks: []int{4, 2}}, {Ranks: []int{5, 2}},
	}
	d.plan.dirty = true
	checkAgainstOracle(t, d, [][]complex128{y}, "split")
	if w := oracleDetect(d, y); w.win != 0 {
		t.Fatalf("oracle won path %d, want path 0", w.win)
	}
	yb := d.qr.Ybar(y)
	var s scratch
	s.ensure(2)
	lo, _ := laneBlock(1, 3, len(d.plan.steps))
	win, best := d.descend(yb, 0, lo, &s)
	if win != 0 || !(s.ped[1] > best) {
		t.Fatalf("first block: winner %d at %v, subtree node at %v; want path 0 and the subtree pruned", win, best, s.ped[1])
	}
	if d.plan.steps[lo].from != 0 {
		t.Fatalf("block boundary at lex position %d restarts at level %d, want inside the subtree (level 0)", lo, d.plan.steps[lo].from)
	}
	if win, _ := d.descend(yb, lo, len(d.plan.steps), &s); win <= 0 {
		t.Fatalf("later blocks won path %d, want one of the subtree's paths", win)
	}
}

// TestDescentNaNAndDegenerateFallBack pins the two no-survivor inputs:
// a NaN in y (every distance is NaN, and a NaN never wins) and a
// channel with a zero column (R_ii = 0 makes the plan degenerate). Both
// resolve through the clamped-SIC fallback exactly like the oracle.
func TestDescentNaNAndDegenerateFallBack(t *testing.T) {
	cons := constellation.MustNew(16)
	rng := newRng(1220)
	h := channel.Rayleigh(rng, 4, 4)
	zero := channel.Rayleigh(rng, 4, 4)
	for i := 0; i < 4; i++ {
		zero.Set(i, 2, 0)
	}
	nan := transmit(rng, h, cons, randSymbols(rng, cons, 4), 0.05)
	nan[1] = complex(math.NaN(), 0)
	for _, strict := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			d := New(cons, Options{NPE: 16, StrictDeactivation: strict, Workers: workers})
			defer d.Close()
			if err := d.Prepare(h, 0.05); err != nil {
				t.Fatal(err)
			}
			if w := oracleDetect(d, nan); !w.fallback {
				t.Fatalf("NaN input: oracle found path %d", w.win)
			}
			checkAgainstOracle(t, d, [][]complex128{nan}, "nan")

			if err := d.Prepare(zero, 0.05); err != nil {
				t.Fatal(err)
			}
			y := transmit(rng, zero, cons, randSymbols(rng, cons, 4), 0.05)
			checkAgainstOracle(t, d, [][]complex128{y}, "zero column")
			if !d.plan.degenerate {
				t.Fatalf("zero column: plan not degenerate, R diagonal %v", d.qr.R.Data)
			}
		}
	}
}

// BenchmarkDetect times one subcarrier of the static-reuse serving
// workload: Select a prepared 8×8 16-QAM channel (N_PE 64) and detect a
// 14-vector burst with DetectBatch on one worker. The σ² legs bracket
// the running-best bound: at 0.05 (the served noise level) most paths
// are pruned high in the tree, at 0.3 far fewer are. The custom metric
// divides by the per-PE node count N_PE·n per vector.
func BenchmarkDetect(b *testing.B) {
	for _, sigma2 := range []float64{0.05, 0.3} {
		b.Run(fmt.Sprintf("sigma2=%g", sigma2), func(b *testing.B) { benchmarkDetect(b, sigma2) })
	}
}

func benchmarkDetect(b *testing.B, sigma2 float64) {
	const nt, npe, burst, nSC = 8, 64, 14, 8
	rng := newRng(1201)
	cons := constellation.MustNew(16)
	hs := make([]*cmatrix.Matrix, nSC)
	ys := make([][][]complex128, nSC)
	for k := range hs {
		hs[k] = channel.Rayleigh(rng, nt, nt)
		ys[k] = make([][]complex128, burst)
		for v := range ys[k] {
			ys[k][v] = transmit(rng, hs[k], cons, randSymbols(rng, cons, nt), sigma2)
		}
	}
	fc := New(cons, Options{NPE: npe})
	defer fc.Close()
	if err := fc.PrepareAll(hs, sigma2); err != nil {
		b.Fatal(err)
	}
	for k := range hs { // warm every arena outside the timed loop
		if err := fc.Select(k); err != nil {
			b.Fatal(err)
		}
		fc.DetectBatch(ys[k])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % nSC
		if err := fc.Select(k); err != nil {
			b.Fatal(err)
		}
		fc.DetectBatch(ys[k])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst*npe*nt), "ns/path-node")
}
