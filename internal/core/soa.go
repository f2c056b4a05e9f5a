package core

import (
	"flexcore/internal/kernel32"
)

// This file wires the reduced-precision SoA backend (internal/kernel32,
// DESIGN.md §11) into the detector: Options.Backend == BackendSoA32
// routes the detect hot path through the lane-batched float32 kernel and
// runs the pre-processing search with float32 keys (FindPaths32). The
// conversion happens at two narrow boundaries — Prepare/Select mark the
// planes stale and the first detection rebuilds them; detection results
// convert back to the public []int form — so the API, the OpCount
// accounting and the PreprocessStats contract are identical across
// backends.
//
// ExactSlicer detections always run the scalar complex128 arithmetic
// regardless of Backend: the exact sort-based slicer is a verification
// mode, not a hot path, and its ML-equivalence proofs are stated for the
// reference arithmetic.

// soaState is the detector's SoA-backend state: the per-channel planes,
// the shared immutable slicer, the sequential-route scratch and the
// staleness flag that defers plane conversion to the first detection
// (Prepare/Select stay backend-agnostic pointer work).
type soaState struct {
	prep    kernel32.Prep
	slicer  *kernel32.Slicer32
	scratch kernel32.Scratch
	dirty   bool
}

// useSoA reports whether detection runs on the SoA float32 kernel.
//
//flexcore:noalloc
func (d *FlexCore) useSoA() bool {
	return d.opts.Backend == BackendSoA32 && !d.opts.ExactSlicer
}

// soaRefresh rebuilds the float32 planes after Prepare or Select marked
// them stale: the channel planes from the active R factor, the rank
// plane from the selected paths, and the scratch shape. Steady state
// (same stream and path counts) performs no allocation.
//
//flexcore:noalloc
func (d *FlexCore) soaRefresh() {
	if !d.soa.dirty {
		return
	}
	if d.soa.slicer == nil {
		d.soa.slicer = kernel32.NewSlicer32(d.cons)
	}
	d.soa.prep.SetChannel(d.qr.R, 1/d.cons.Scale())
	P := len(d.paths)
	ranks := d.soa.prep.EnsureRanks(P) //lint:ignore noalloc amortised: the inlined arena helper allocates only when the path count grows
	for p := range d.paths {
		pr := d.paths[p].Ranks
		for i := 0; i < len(pr); i++ {
			ranks[i*P+p] = int16(pr[i])
		}
	}
	d.soa.scratch.Ensure(d.n, P)
	d.soa.dirty = false
}

// soaDetectOne runs one full detection on the SoA kernel with
// caller-owned scratch, writing the unpermuted result into out; the
// planes must be refreshed already. It reports whether the clamped-SIC
// fallback resolved the vector — the scalar detectOne contract. The
// complex128 scratch stays in play for the ȳ rotation and the fallback,
// both of which are shared with the scalar backend.
//
//flexcore:noalloc
func (d *FlexCore) soaDetectOne(y []complex128, ks *kernel32.Scratch, s *scratch, out []int) bool {
	yb := d.qr.YbarInto(y, s.ybar)
	P := d.soa.prep.P
	if P == 0 || d.soa.prep.Degenerate {
		// A non-positive diagonal deactivates every path at that level in
		// the scalar backend too: straight to the fallback.
		d.clampedSICInto(yb, s.idx, s.sym)
		d.qr.UnpermuteIntsInto(s.idx, out)
		return true
	}
	ks.Ensure(d.n, P)
	ks.SetYbar(yb)
	lane, _ := kernel32.Descend(&d.soa.prep, d.soa.slicer, ks, 0, P, d.opts.StrictDeactivation)
	if lane < 0 {
		d.clampedSICInto(yb, s.idx, s.sym)
		d.qr.UnpermuteIntsInto(s.idx, out)
		return true
	}
	ks.GatherIdx(lane, s.best)
	d.qr.UnpermuteIntsInto(s.best, out)
	return false
}

// detectVector runs one sequential detection on the active backend with
// caller-owned scratch (ks serves the SoA kernel only), writing the
// unpermuted result into out; the backend state must be refreshed
// already. It reports whether the clamped-SIC fallback resolved the
// vector.
//
//flexcore:noalloc
func (d *FlexCore) detectVector(y []complex128, s *scratch, ks *kernel32.Scratch, out []int) bool {
	if d.useSoA() {
		return d.soaDetectOne(y, ks, s, out)
	}
	return d.detectOne(y, s, out)
}

// laneBlock returns worker id's contiguous lane block [lo, hi) of P
// lanes split across nw workers (first P%nw blocks one lane larger).
//
//flexcore:noalloc
func laneBlock(id, nw, P int) (lo, hi int) {
	q, r := P/nw, P%nw
	lo = id * q
	if id < r {
		lo += id
	} else {
		lo += r
	}
	hi = lo + q
	if id < r {
		hi++
	}
	return lo, hi
}
