package kernel32

// Descend advances lanes [lo, hi) of the batch through the whole tree:
// for every level i from the top (N−1) down it cancels the decided
// interference of each lane, forms the effective received point with
// one reciprocal multiply (no complex division), picks the lane's
// rank[i]-th closest symbol with the inlined integer slicer, and
// accumulates the partial Euclidean distance — the lane-batched
// restatement of the scalar descent, without its prefix sharing.
//
// strict selects the paper's literal §3.2 deactivation (a candidate
// outside the constellation kills the lane, marked by a +Inf distance);
// the default saturates the slicer per axis. With pr.Degenerate the
// caller must skip Descend entirely and take the fallback, exactly like
// the scalar backend's degenerate plan.
//
// It returns the block's best lane (ties resolved to the lowest lane
// index, matching the scalar backend's path-index tie-break) and its
// distance; lane −1 means every lane of the block deactivated. Because
// every lane's arithmetic depends only on its own planes, the result of
// a block is independent of how blocks partition the lanes — the
// worker-count-independence contract of the pool.
//
//flexcore:noalloc
func Descend(pr *Prep, sl *Slicer32, s *Scratch, lo, hi int, strict bool) (lane int, ped float32) {
	n, P := pr.N, pr.P
	bre := s.Bre[lo:hi]
	bim := s.Bim[lo:hi]
	bim = bim[:len(bre)]
	peds := s.Ped[lo:hi]
	peds = peds[:len(bre)]
	for p := range peds {
		peds[p] = 0
	}
	offA, offB := sl.offA, sl.offB
	pre, pim := sl.pre, sl.pim
	side, fside := sl.side, sl.fside

	for i := n - 1; i >= 0; i-- {
		// b ← ȳ(i) − Σ_{j>i} R(i,j)·sym(j), batched over the lanes: the
		// R entry is a broadcast scalar, the symbol planes are contiguous.
		ybr, ybi := s.Ybre[i], s.Ybim[i]
		for p := range bre {
			bre[p] = ybr
			bim[p] = ybi
		}
		row := i * n
		for j := i + 1; j < n; j++ {
			rr := pr.Rre[row+j]
			ri := pr.Rim[row+j]
			sre := s.SymRe[j*P+lo : j*P+hi]
			sim := s.SymIm[j*P+lo : j*P+hi]
			sre = sre[:len(bre)]
			sim = sim[:len(bre)]
			for p := range bre {
				sr := sre[p]
				si := sim[p]
				bre[p] -= rr*sr - ri*si
				bim[p] -= rr*si + ri*sr
			}
		}

		// Slice and accumulate: z = b·W is already in half-distance
		// units, so the lookup is pure integer math plus two rounds.
		w := pr.W[i]
		rii := pr.Rii[i]
		ranks := pr.Ranks[i*P+lo : i*P+hi]
		idxs := s.Idx[i*P+lo : i*P+hi]
		symre := s.SymRe[i*P+lo : i*P+hi]
		symim := s.SymIm[i*P+lo : i*P+hi]
		ranks = ranks[:len(bre)]
		idxs = idxs[:len(bre)]
		symre = symre[:len(bre)]
		symim = symim[:len(bre)]
		for p := range bre {
			br := bre[p]
			bi := bim[p]
			zx := br * w
			zy := bi * w
			// Inlined Slicer32 lookup (kept in this loop body so the
			// compiler need not materialise a call per lane per level).
			mx := round32((zx + fside) * 0.5)
			my := round32((zy + fside) * 0.5)
			cx := 2*mx - side
			cy := 2*my - side
			dx := zx - float32(cx)
			dy := zy - float32(cy)
			sx, sy := int32(1), int32(1)
			if dx < 0 {
				sx = -1
				dx = -dx
			}
			if dy < 0 {
				sy = -1
				dy = -dy
			}
			k := int32(ranks[p]) - 1
			oa := offA[k]
			ob := offB[k]
			if dy > dx {
				oa, ob = ob, oa
			}
			nx := (cx + sx*oa + side - 1) / 2
			ny := (cy + sy*ob + side - 1) / 2
			if uint32(nx) >= uint32(side) || uint32(ny) >= uint32(side) {
				if strict {
					// Deactivated lane: +Inf distance, neutral symbol so
					// later levels stay finite.
					peds[p] = inf32
					idxs[p] = 0
					symre[p] = 0
					symim[p] = 0
					continue
				}
				nx = clampAxis32(nx, side)
				ny = clampAxis32(ny, side)
			}
			q := ny*side + nx
			qr := pre[q]
			qi := pim[q]
			dr := br - rii*qr
			di := bi - rii*qi
			peds[p] += dr*dr + di*di
			idxs[p] = q
			symre[p] = qr
			symim[p] = qi
		}
	}

	// Block argmin; ties resolve to the lowest lane like the scalar
	// first-strict-improvement scan (deactivated lanes are +Inf and a
	// NaN distance — possible only from a NaN input — never wins, the
	// scalar backend's behaviour too).
	lane = -1
	best := inf32
	for p := range peds {
		if peds[p] < best {
			best = peds[p]
			lane = lo + p
		}
	}
	return lane, best
}
