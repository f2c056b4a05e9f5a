package constellation

import (
	"math"
	"testing"
)

// fuzzOrders are the square-QAM orders the k-th-closest machinery
// supports; the fuzzer cycles through all of them.
var fuzzOrders = []int{4, 16, 64, 256}

func finite(z complex128) bool {
	re, im := real(z), imag(z)
	return !math.IsNaN(re) && !math.IsInf(re, 0) && !math.IsNaN(im) && !math.IsInf(im, 0)
}

func dist2To(c *Constellation, z complex128, idx int) float64 {
	p := c.Point(idx)
	dr, di := real(z)-real(p), imag(z)-imag(p)
	return dr*dr + di*di
}

// FuzzKthClosest is the slicer fuzz target of the conformance harness.
// For arbitrary query points (including NaN/Inf — the lookup must not
// panic or return an out-of-range index) and every supported QAM order
// it checks the triangle-LUT k-th-closest contract:
//
//   - any ok result is a valid constellation index, and the ok results
//     across k = 1..M are pairwise distinct (the ordering enumerates
//     symbols, never repeats one);
//   - k = 1 and k = 2 are EXACT: the returned point's distance equals
//     the true k-th smallest distance (the per-triangle order provably
//     matches the instantaneous order for the first two ranks);
//   - KthClosestClamped always returns an in-range index, agrees with
//     KthClosest whenever the unclamped lookup succeeds, and reports
//     clamped=true exactly when it does not;
//   - out-of-range ranks (k ≤ 0, k > M) are rejected by KthClosest and
//     clamped to the nearest stored rank (reported as clamped) by
//     KthClosestClamped;
//   - the half-unit core KthClosestHalf, fed z/Scale, agrees with both
//     wrappers on every input and rank, in both clamp modes, and its
//     rounding helper equals int(math.Round(v)) on the raw inputs.
func FuzzKthClosest(f *testing.F) {
	f.Add(uint8(1), 0.3, -0.7)
	f.Add(uint8(0), 0.0, 0.0)
	f.Add(uint8(2), -2.5, 2.5)
	f.Add(uint8(3), 1e9, -1e9)
	f.Add(uint8(1), math.Inf(1), math.NaN())
	f.Fuzz(func(t *testing.T, mSel uint8, re, im float64) {
		c := MustNew(fuzzOrders[int(mSel)%len(fuzzOrders)])
		m := c.Size()
		z := complex(re, im)

		if idx, ok := c.KthClosest(z, 0); ok {
			t.Fatalf("k=0 accepted (idx %d)", idx)
		}
		if idx, ok := c.KthClosest(z, m+1); ok {
			t.Fatalf("k=%d accepted (idx %d)", m+1, idx)
		}
		for _, v := range []float64{re, im} {
			if got, want := roundInt(v), int(math.Round(v)); got != want {
				t.Fatalf("roundInt(%v) = %d, int(math.Round) = %d", v, got, want)
			}
		}
		hx, hy := re/c.Scale(), im/c.Scale()
		for _, kk := range [][2]int{{0, 1}, {m + 1, m}} {
			cidx, clamped := c.KthClosestClamped(z, kk[0])
			hidx, _ := c.KthClosestHalf(hx, hy, kk[1], true)
			if !clamped || cidx != hidx {
				t.Fatalf("k=%d: KthClosestClamped = (%d, %v), want rank %d's (%d, true)", kk[0], cidx, clamped, kk[1], hidx)
			}
		}

		seen := make(map[int]bool, m)
		for k := 1; k <= m; k++ {
			idx, ok := c.KthClosest(z, k)
			cidx, clamped := c.KthClosestClamped(z, k)
			if cidx < 0 || cidx >= m {
				t.Fatalf("k=%d: clamped index %d out of range [0,%d)", k, cidx, m)
			}
			if ok != !clamped {
				t.Fatalf("k=%d: ok=%v but clamped=%v", k, ok, clamped)
			}
			if hidx, hin := c.KthClosestHalf(hx, hy, k, false); hidx != idx || hin != ok {
				t.Fatalf("k=%d: KthClosestHalf unclamped = (%d, %v), KthClosest = (%d, %v)", k, hidx, hin, idx, ok)
			}
			if hidx, hin := c.KthClosestHalf(hx, hy, k, true); hidx != cidx || hin != !clamped {
				t.Fatalf("k=%d: KthClosestHalf clamped = (%d, %v), KthClosestClamped = (%d, %v)", k, hidx, hin, cidx, clamped)
			}
			if !ok {
				continue
			}
			if idx < 0 || idx >= m {
				t.Fatalf("k=%d: index %d out of range [0,%d)", k, idx, m)
			}
			if cidx != idx {
				t.Fatalf("k=%d: KthClosestClamped %d != KthClosest %d", k, cidx, idx)
			}
			if seen[idx] {
				t.Fatalf("k=%d: index %d already returned for a smaller rank", k, idx)
			}
			seen[idx] = true
			if finite(z) && k <= 2 {
				// Exactness of the first two ranks: compare distances, not
				// indices, so exact ties on decision boundaries stay legal.
				want := dist2To(c, z, c.ExactKth(z, k))
				got := dist2To(c, z, idx)
				if got > want*(1+1e-12)+1e-12 {
					t.Fatalf("k=%d at z=%v (M=%d): LUT dist² %.17g > exact %.17g", k, z, m, got, want)
				}
			}
		}
		// Rank 1 never deactivates strictly inside the constellation's
		// bounding square (outside it the unclamped lookup legitimately
		// points past the hull — the paper's deactivation case).
		bound := float64(c.Side()) * c.Scale()
		inside := finite(z) && math.Abs(re) < bound && math.Abs(im) < bound
		if _, ok := c.KthClosest(z, 1); inside && !ok {
			t.Fatalf("rank 1 deactivated at interior z=%v (M=%d)", z, m)
		}
	})
}
