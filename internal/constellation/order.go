package constellation

import (
	"math"
	"sort"
)

// orderLUT holds the predefined k-th-closest symbol ordering of FlexCore's
// detection step (paper §3.2, Fig. 6).
//
// The effective received point is referred to the minimum-distance square
// of the *midpoint grid* that contains it: the square's centre is a
// midpoint of the constellation lattice and its four corners are
// constellation points (the paper's slicer "computes the midpoint value
// and index instead of the actual constellation point", §4). The square
// is split into eight triangles by its axes and diagonals; for points in
// a given triangle the distance-sorted order of the surrounding lattice
// points is (almost always) the same, so one ordering per triangle
// suffices — and by the dihedral symmetry of the lattice only the
// canonical triangle t1 (dx ≥ dy ≥ 0) is stored; the other seven are
// sign/swap transforms of it.
//
// Offsets from the square centre to constellation points are pairs of
// odd integers in half-minimum-distance units. The stored ordering ranks
// them by the expected squared distance to a point uniform in t1, which
// has the closed form E[d²] = (1/2 − (4/3)a + a²) + (1/6 − (2/3)b + b²).
// This is the analytic limit of the paper's Monte-Carlo "most frequent
// sorted order" procedure. Its first four entries are the square's four
// corners, so the first candidate ranks deactivate only when the
// effective point falls outside the constellation hull.
type orderLUT struct {
	offsets [][2]int // canonical-frame odd-integer offsets, best first
}

func buildOrderLUT(m, side int) *orderLUT {
	type cand struct {
		a, b int
		ed   int64
	}
	// A window of odd offsets covering the whole constellation from any
	// midpoint adjacent to it.
	lim := 2*side + 1
	var cands []cand
	for a := -lim; a <= lim; a += 2 {
		for b := -lim; b <= lim; b += 2 {
			fa, fb := float64(a), float64(b)
			ed := (0.5 - (4.0/3.0)*fa + fa*fa) + (1.0/6.0 - (2.0/3.0)*fb + fb*fb)
			// 3·E[d²] is an integer for odd offsets. Discretise the sort
			// key so exact ties (e.g. (7,−1) vs (−3,−5), both 3E = 126)
			// compare equal and fall through to the tie-break — with raw
			// floats the two algebraically equal expressions differ at
			// ulp level and the resulting order would depend on rounding
			// (and on whether the compiler fuses multiply-adds).
			cands = append(cands, cand{a, b, int64(math.Round(3 * ed))})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ed != cands[j].ed {
			return cands[i].ed < cands[j].ed
		}
		// Deterministic tie-break.
		if cands[i].a != cands[j].a {
			return cands[i].a > cands[j].a
		}
		return cands[i].b > cands[j].b
	})
	lut := &orderLUT{offsets: make([][2]int, m)}
	for k := 0; k < m; k++ {
		lut.offsets[k] = [2]int{cands[k].a, cands[k].b}
	}
	return lut
}

// OrderOffsets returns a copy of the canonical-triangle offset table of
// the predefined k-th-closest ordering: entry k−1 is the odd-integer
// offset (in half-minimum-distance units) from the containing midpoint-
// square centre to the k-th-ranked symbol for points in the canonical
// triangle t1 (dx ≥ dy ≥ 0). Reduced-precision slicer implementations
// (internal/kernel32) rebuild their lookup planes from this table so
// both backends share one ordering definition.
func (c *Constellation) OrderOffsets() [][2]int {
	out := make([][2]int, len(c.lut.offsets))
	copy(out, c.lut.offsets)
	return out
}

// KthClosest returns the index of the constellation point with
// (approximately) the k-th smallest Euclidean distance to z, k ≥ 1, using
// the predefined per-triangle ordering. ok is false when the ordering
// points outside the constellation — the "deactivated processing element"
// case of the paper — or when k exceeds the stored table.
//
//flexcore:noalloc
func (c *Constellation) KthClosest(z complex128, k int) (idx int, ok bool) {
	if k < 1 || k > len(c.lut.offsets) {
		return 0, false
	}
	return c.KthClosestHalf(real(z)/c.scale, imag(z)/c.scale, k, false)
}

// KthClosestHalf is the k-th-closest slicer core behind KthClosest and
// KthClosestClamped. The point (x, y) is given in half-minimum-distance
// units (z/Scale), so a caller that folds 1/Scale into a multiply it
// already performs slices without a division. k must lie in [1, Size()].
// One pass rounds each axis once, canonicalises into the stored
// triangle and applies the rank-k offset. inRange reports whether the
// candidate lies inside the constellation; when it does not, idx is the
// per-axis saturated symbol if clamp is set and 0 otherwise (the
// deactivated processing element).
//
//flexcore:noalloc
func (c *Constellation) KthClosestHalf(x, y float64, k int, clamp bool) (idx int, inRange bool) {
	side := c.side
	// Nearest midpoint-grid node (values are even integers cx = 2m − side
	// in half-distance units; symbols sit at odd integers).
	cx := 2*roundInt((x+float64(side))/2) - side
	cy := 2*roundInt((y+float64(side))/2) - side
	// Position relative to the square centre, canonicalised into t1:
	// record sign flips and the axis swap.
	dx := x - float64(cx)
	dy := y - float64(cy)
	sx, sy := 1, 1
	if dx < 0 {
		sx = -1
		dx = -dx
	}
	if dy < 0 {
		sy = -1
		dy = -dy
	}
	off := c.lut.offsets[k-1]
	oa, ob := off[0], off[1]
	if dy > dx {
		oa, ob = ob, oa
	}
	// Symbol value v = centre + signed odd offset; its axis index is
	// i = (v + side − 1)/2, an exact halving of an even integer (cx and
	// side are even, the offsets odd), hence the shift.
	nx := (cx + sx*oa + side - 1) >> 1
	ny := (cy + sy*ob + side - 1) >> 1
	if uint(nx) < uint(side) && uint(ny) < uint(side) {
		return ny*side + nx, true
	}
	if !clamp {
		return 0, false
	}
	return clampAxis(ny, side)*side + clampAxis(nx, side), false
}

// ExactKth returns the true k-th closest constellation point to z (k ≥ 1)
// by exhaustive search; used to validate the LUT approximation and by
// reference detectors.
func (c *Constellation) ExactKth(z complex128, k int) int {
	type ds struct {
		idx int
		d   float64
	}
	all := make([]ds, c.m)
	for i, p := range c.points {
		dr := real(z) - real(p)
		di := imag(z) - imag(p)
		all[i] = ds{i, dr*dr + di*di}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d { //lint:ignore floatcmp sort comparator: exact ties fall through to the index tie-break; any FP difference is a strict order
			return all[i].d < all[j].d
		}
		return all[i].idx < all[j].idx
	})
	return all[k-1].idx
}

// KthClosestClamped is KthClosest with per-axis slicer saturation: when
// the predefined ordering points outside the constellation, each axis
// index clamps to the nearest edge instead of deactivating the path —
// the behaviour of a saturating hardware slicer. A k outside [1, Size()]
// clamps to the nearest stored rank. The boolean reports whether either
// clamp occurred.
//
//flexcore:noalloc
func (c *Constellation) KthClosestClamped(z complex128, k int) (idx int, clamped bool) {
	outK := k < 1 || k > c.m
	k = clampAxis(k-1, c.m) + 1
	idx, in := c.KthClosestHalf(real(z)/c.scale, imag(z)/c.scale, k, true)
	return idx, outK || !in
}

//flexcore:noalloc
func clampAxis(i, side int) int {
	if i < 0 {
		return 0
	}
	if i >= side {
		return side - 1
	}
	return i
}

// roundInt is int(math.Round(v)) — half away from zero, and the same
// float handed to the conversion for NaN, ±Inf and |v| ≥ 2^52 — from
// one truncation instead of math.Round's bit manipulation: v − Trunc(v)
// is exact, and so is the ±1 step below 2^52.
//
//flexcore:noalloc
func roundInt(v float64) int {
	t := math.Trunc(v)
	if math.Abs(v-t) >= 0.5 {
		t += math.Copysign(1, v)
	}
	return int(t)
}
