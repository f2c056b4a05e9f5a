package core

import (
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
// shared-prefix, division-free descent: across 300 seeded Rayleigh
// channels per geometry (2×2, 4×4, 8×8, 16-QAM, three noise levels),
// N_PE ∈ {1, 8, 64, 512}, clamped and strict slicing and Workers ∈
// {1, 3}, every decision, winning path, winning distance and fallback
// count equals the per-path oracle's on both the Detect and the
// DetectBatch route. The corpus must reach the fallback (strict slicing
// at high noise deactivates every path of small N_PE), so that branch
// is compared too.
func TestDescentMatchesPerPathOracle(t *testing.T) {
	channels := 300
	if testing.Short() {
		channels = 30
	}
	cons := constellation.MustNew(16)
	sigmas := []float64{0.01, 0.05, 0.3}
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
// bit-identical — both ranks saturate to the same corner symbol for a
// point far outside the constellation — and orders them so the
// lexicographic walk meets the higher path index first. The lower index
// must still win, on the sequential descent and on the path fan-out.
func TestDescentTieGoesToLowestPathIndex(t *testing.T) {
	cons := constellation.MustNew(16)
	y := []complex128{complex(10, 10)}
	for _, workers := range []int{1, 3} {
		d := New(cons, Options{NPE: 2, Workers: workers})
		defer d.Close()
		if err := d.Prepare(diagMatrix([]float64{1}), 0.05); err != nil {
			t.Fatal(err)
		}
		d.paths = []Path{{Ranks: []int{3}}, {Ranks: []int{2}}}
		d.plan.dirty = true
		checkAgainstOracle(t, d, [][]complex128{y}, "tie")
		if w := oracleDetect(d, y); w.win != 0 {
			t.Fatalf("oracle won path %d, want the tie at path 0", w.win)
		}
		if d.plan.steps[0].path != 1 {
			t.Fatalf("lex order starts at path %d, want 1 (the case must walk the higher index first)", d.plan.steps[0].path)
		}
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
// workload: Select a prepared 8×8 16-QAM channel (N_PE 64, σ² = 0.05)
// and detect a 14-vector burst with DetectBatch on one worker. The
// custom metric divides by the per-PE node count N_PE·n per vector.
func BenchmarkDetect(b *testing.B) {
	const nt, npe, burst, nSC = 8, 64, 14, 8
	const sigma2 = 0.05
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
