package main

import (
	"fmt"

	"flexcore/internal/channel"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/serve"
)

// frame is one pre-built request of the cycled pool with its
// transmitted symbol indices and the offline reference decisions, both
// flat in the response's (subcarrier, symbol, stream) order.
type frame struct {
	req *serve.DetectRequest
	tx  []uint16
	ref []uint16
}

// pool holds every user's frames, built from the seed before any clock
// starts. User u sends frames[u][n%len] as its n-th frame.
type pool struct {
	w       workload
	cons    *constellation.Constellation
	backend core.Backend
	frames  [users][]frame
}

// buildPool draws the workload's frames: uniformly random 16-QAM symbol
// indices through per-subcarrier Rayleigh channels plus AWGN at sigma2.
// Static workloads keep one channel set per user; the others redraw it
// every frame. Each user has its own seeded stream, so the pool depends
// only on (workload, seed).
func buildPool(w workload, seed uint64) (*pool, error) {
	cons, err := constellation.New(qam)
	if err != nil {
		return nil, err
	}
	backend, _ := core.ParseBackend("") // the backend flexserve serves when no -backend is given
	p := &pool{w: w, cons: cons, backend: backend}
	for u := 0; u < users; u++ {
		rng := channel.NewStreamRNG(seed, uint64(u))
		p.frames[u] = make([]frame, w.pool)
		var prev *serve.DetectRequest
		for i := range p.frames[u] {
			req := &serve.DetectRequest{UserID: uint64(u), Sigma2: sigma2, DeadlineMicros: uint64(w.deadline.Microseconds())}
			if err := req.SetGeometry(w.nr, w.nr, w.k, w.s); err != nil {
				return nil, fmt.Errorf("workload %s geometry: %w", w.name, err)
			}
			for k, h := range req.H() {
				if w.static && prev != nil {
					copy(h.Data, prev.H()[k].Data)
				} else {
					copy(h.Data, channel.Rayleigh(rng, w.nr, w.nr).Data)
				}
			}
			f := frame{req: req, tx: make([]uint16, w.k*w.s*w.nr)}
			x := make([]complex128, w.nr)
			for k, h := range req.H() {
				for s, y := range req.Burst(k) {
					for i := range x {
						idx := rng.IntN(cons.Size())
						f.tx[(k*w.s+s)*w.nr+i] = uint16(idx)
						x[i] = cons.Point(idx)
					}
					h.MulVecInto(x, y)
					channel.AddAWGN(rng, y, sigma2)
				}
			}
			p.frames[u][i] = f
			prev = req
		}
	}
	det := p.detector(npe)
	for u := range p.frames {
		for i := range p.frames[u] {
			ref, err := reference(det, p.frames[u][i].req)
			if err != nil {
				return nil, err
			}
			p.frames[u][i].ref = ref
		}
	}
	return p, nil
}

// detector returns a fresh offline detector at the given N_PE on the
// serving backend.
func (p *pool) detector(n int) *core.FlexCore {
	return core.New(p.cons, core.Options{NPE: n, Backend: p.backend})
}

// reference detects req offline with a plain Prepare + DetectBatch per
// subcarrier — the definition every served decision must equal.
func reference(det *core.FlexCore, req *serve.DetectRequest) ([]uint16, error) {
	out := make([]uint16, 0, req.Subcarriers*req.Symbols*req.Nt)
	for k, h := range req.H() {
		if err := det.Prepare(h, req.Sigma2); err != nil {
			return nil, fmt.Errorf("reference prepare: %w", err)
		}
		for _, row := range det.DetectBatch(req.Burst(k)) {
			for _, idx := range row {
				out = append(out, uint16(idx))
			}
		}
	}
	return out, nil
}
