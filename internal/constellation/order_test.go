package constellation

import (
	"math"
	"testing"
)

func TestKthClosestFirstMatchesSlicer(t *testing.T) {
	// For observations that stay within the constellation's outer
	// boundary, k=1 must agree with the exact nearest-symbol slicer.
	rng := newRng(51)
	for _, m := range orders {
		c := MustNew(m)
		limit := c.level(c.Side()-1) + 0.999*c.Scale()
		for trial := 0; trial < 2000; trial++ {
			z := complex((2*rng.Float64()-1)*limit, (2*rng.Float64()-1)*limit)
			got, ok := c.KthClosest(z, 1)
			if !ok {
				t.Fatalf("%d-QAM: k=1 deactivated inside the constellation at %v", m, z)
			}
			if want := c.Slice(z); got != want {
				t.Fatalf("%d-QAM: KthClosest(%v,1) = %d, Slice = %d", m, z, got, want)
			}
		}
	}
}

func TestKthClosestEnumeratesWholeConstellation(t *testing.T) {
	// For an observation at the centre of a *central* symbol's cell, the
	// full k = 1..|Q| scan must reach every constellation point exactly
	// once or be deactivated; deactivations happen only for offsets that
	// leave the grid.
	for _, m := range orders {
		c := MustNew(m)
		mid := c.Side() / 2
		z := c.Point(mid*c.Side() + mid)
		seen := make(map[int]bool)
		for k := 1; k <= m; k++ {
			idx, ok := c.KthClosest(z, k)
			if !ok {
				continue
			}
			if seen[idx] {
				t.Fatalf("%d-QAM: symbol %d returned twice", m, idx)
			}
			seen[idx] = true
		}
		if len(seen) == 0 {
			t.Fatalf("%d-QAM: no symbols enumerated", m)
		}
	}
}

func TestKthClosestNeverRepeatsWithinScan(t *testing.T) {
	rng := newRng(52)
	for _, m := range orders {
		c := MustNew(m)
		for trial := 0; trial < 50; trial++ {
			z := complex(rng.NormFloat64(), rng.NormFloat64())
			seen := make(map[int]bool)
			for k := 1; k <= m; k++ {
				idx, ok := c.KthClosest(z, k)
				if !ok {
					continue
				}
				if seen[idx] {
					t.Fatalf("%d-QAM: duplicate symbol %d in scan of %v", m, idx, z)
				}
				seen[idx] = true
			}
		}
	}
}

func TestKthClosestApproximationQuality(t *testing.T) {
	// The predefined ordering is an approximation of the true distance
	// order; it must agree with the exact order for k=1 (tested above)
	// and keep the true 2nd-closest within its first three candidates in
	// the overwhelming majority of draws (paper §3.2 reports the order is
	// "the most frequent" one).
	rng := newRng(53)
	c := MustNew(16)
	total, hit := 0, 0
	for trial := 0; trial < 3000; trial++ {
		z := complex(rng.NormFloat64()*0.6, rng.NormFloat64()*0.6)
		want := c.ExactKth(z, 2)
		total++
		for k := 2; k <= 4; k++ {
			if idx, ok := c.KthClosest(z, k); ok && idx == want {
				hit++
				break
			}
		}
	}
	if frac := float64(hit) / float64(total); frac < 0.95 {
		t.Fatalf("true 2nd-closest found in first candidates only %.1f%% of draws", 100*frac)
	}
}

func TestKthClosestDeactivatesOutsideConstellation(t *testing.T) {
	c := MustNew(16)
	// Far outside the grid every candidate offset lands outside.
	z := complex(100, 100)
	active := 0
	for k := 1; k <= 16; k++ {
		if _, ok := c.KthClosest(z, k); ok {
			active++
		}
	}
	if active != 0 {
		t.Fatalf("expected all candidates deactivated far outside, got %d active", active)
	}
	// Just beyond a corner symbol, k=1 points at the (out-of-grid)
	// nearest grid node, so it must deactivate.
	corner := c.Point(0) // most negative corner
	z = corner + complex(-2*c.Scale(), -2*c.Scale())
	if _, ok := c.KthClosest(z, 1); ok {
		t.Fatal("expected k=1 deactivation beyond the corner")
	}
}

func TestKthClosestInvalidK(t *testing.T) {
	c := MustNew(4)
	if _, ok := c.KthClosest(0, 0); ok {
		t.Fatal("k=0 must be rejected")
	}
	if _, ok := c.KthClosest(0, 5); ok {
		t.Fatal("k>|Q| must be rejected")
	}
}

func TestOrderLUTNearSorted(t *testing.T) {
	// The canonical-frame expected squared distances must be
	// non-decreasing along the stored order (by construction) — a guard
	// against regressions in the tie-break or sort.
	c := MustNew(64)
	prev := math.Inf(-1)
	for _, off := range c.lut.offsets {
		fa, fb := float64(off[0]), float64(off[1])
		if off[0]%2 == 0 || off[1]%2 == 0 {
			t.Fatalf("offset %v not odd-odd (not a constellation point relative to a midpoint)", off)
		}
		ed := (0.5 - (4.0/3.0)*fa + fa*fa) + (1.0/6.0 - (2.0/3.0)*fb + fb*fb)
		if ed < prev-1e-12 {
			t.Fatalf("LUT not sorted: %v after %v", ed, prev)
		}
		prev = ed
	}
	// Fig. 6's qualitative pattern: the square's own corners come first
	// (nearest corner, then the corner across the short axis, …).
	if c.lut.offsets[0] != [2]int{1, 1} {
		t.Fatalf("first offset %v, want the t1 corner", c.lut.offsets[0])
	}
	if c.lut.offsets[1] != [2]int{1, -1} {
		t.Fatalf("second offset %v, want the adjacent corner", c.lut.offsets[1])
	}
	corners := map[[2]int]bool{}
	for _, off := range c.lut.offsets[:4] {
		corners[off] = true
	}
	for _, want := range [][2]int{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
		if !corners[want] {
			t.Fatalf("square corner %v not among the first four candidates", want)
		}
	}
}

// TestRoundIntMatchesMathRound pins the slicer's rounding helper to
// int(math.Round(v)) on the values where a rounding rewrite can go
// wrong: exact halves and their float neighbours, the 2^52/2^53 edges
// where every float is an integer, values past the int range, and the
// non-finite inputs.
func TestRoundIntMatchesMathRound(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1 << 52, 1 << 53, 1<<52 + 0.5, 1 << 62, 1 << 63, 1e300, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for h := -9; h <= 9; h++ {
		v := float64(h) / 2
		vals = append(vals, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
	}
	for _, v := range vals {
		for _, s := range []float64{v, -v} {
			if got, want := roundInt(s), int(math.Round(s)); got != want {
				t.Errorf("roundInt(%v) = %d, int(math.Round) = %d", s, got, want)
			}
		}
	}
}
