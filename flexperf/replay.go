package main

import (
	"fmt"
	"slices"
	"time"

	"flexcore/internal/cmatrix"
	"flexcore/internal/core"
	"flexcore/internal/phy"
	"flexcore/internal/serve"
)

// Span names of the offline replay. phy.DetectFrame is the parent of
// the three detector calls FrameDetector makes inside it.
const (
	spFrame      = "phy.DetectFrame"
	spPrepareAll = "core.PrepareAll"
	spSelect     = "core.Select"
	spDetect     = "core.DetectBatch"
	spQR         = "cmatrix.SortedQRInto"
	spModel      = "core.NewModelInto"
	spFind       = "core.FindPaths"
	spFind32     = "core.FindPaths32"
)

// tracedDetector wraps the detector FrameDetector drives and records a
// span around each call it makes into the core layer.
type tracedDetector struct {
	*core.FlexCore
	rec   *recorder
	epoch time.Time
	id    uint64
}

func (d *tracedDetector) now() int64 { return int64(time.Since(d.epoch)) }

func (d *tracedDetector) PrepareAll(hs []*cmatrix.Matrix, sigma2 float64) error {
	t0 := d.now()
	err := d.FlexCore.PrepareAll(hs, sigma2)
	d.rec.add(d.id, spPrepareAll, spFrame, t0, d.now())
	return err
}

func (d *tracedDetector) Select(k int) error {
	t0 := d.now()
	err := d.FlexCore.Select(k)
	d.rec.add(d.id, spSelect, spFrame, t0, d.now())
	return err
}

func (d *tracedDetector) DetectBatch(ys [][]complex128) [][]int {
	t0 := d.now()
	out := d.FlexCore.DetectBatch(ys)
	d.rec.add(d.id, spDetect, spFrame, t0, d.now())
	return out
}

// maxReplayFrames caps a backend's timed replay, which keeps the span
// file of a tiny-frame workload to tens of MB.
const maxReplayFrames = 20000

// replayResult is one backend's replay: its spans and the exact
// per-frame counts over the timed rounds.
type replayResult struct {
	rec      *recorder
	frames   int64
	ops      struct{ realMuls, nodes int64 }
	pre      core.PreprocessStats
	mismatch int64
}

// replay runs each user's frame sequence offline through
// phy.FrameDetector with a per-user core.ReuseState installed around
// every frame, exactly as flexserve -reuse 0 does. Round 0 (each user's
// first frame) warms the reuse state untimed, like the load's warm-up;
// then whole rounds run until budget is spent or maxReplayFrames ran.
// After each frame the stage functions run standalone on the same
// channels (sorted QR and model on every subcarrier, the backend's path
// search on as many subcarriers as the frame missed), so their per-call
// cost is split out.
func replay(p *pool, backend core.Backend, budget time.Duration, stages bool) (*replayResult, error) {
	det := core.New(p.cons, core.Options{NPE: npe, Backend: backend, PathReuse: true})
	rec := &recorder{}
	td := &tracedDetector{FlexCore: det, rec: &recorder{}, epoch: time.Now()}
	fd := phy.NewFrameDetector(td)
	res := &replayResult{rec: rec}
	var states [users]core.ReuseState
	var qr cmatrix.QRResult
	var ws cmatrix.QRWorkspace
	var model core.Model
	var ops0 = det.OpCount()
	var pre0 = det.PreprocessStats()
	start := time.Now()
	for round := 0; round <= 1 || (time.Since(start) < budget && res.frames < maxReplayFrames); round++ {
		if round == 1 {
			td.rec = rec
			ops0, pre0 = det.OpCount(), det.PreprocessStats()
		}
		for u := 0; u < users; u++ {
			f := &p.frames[u][round%len(p.frames[u])]
			q := f.req
			td.id = frameID(u, round)
			misses0 := det.PreprocessStats().CacheMisses
			got := make([]uint16, 0, len(f.ref))
			fd.SetReuseState(&states[u])
			t0 := td.now()
			err := fd.DetectFrame(q.H(), q.Sigma2, q.Burst, func(k int, dec [][]int) {
				for _, row := range dec {
					for _, idx := range row {
						got = append(got, uint16(idx))
					}
				}
			})
			td.rec.add(td.id, spFrame, "", t0, td.now())
			fd.SetReuseState(nil)
			if err != nil {
				return nil, fmt.Errorf("replay %v: %w", backend, err)
			}
			if backend == p.backend && !slices.Equal(got, f.ref) {
				res.mismatch++
			}
			if round == 0 {
				continue
			}
			res.frames++
			misses := int(det.PreprocessStats().CacheMisses - misses0)
			for k, h := range q.H() {
				if stages {
					t := td.now()
					ws.SortedQRInto(h, cmatrix.OrderSQRD, &qr)
					t1 := td.now()
					core.NewModelInto(&model, qr.R, q.Sigma2, p.cons)
					t2 := td.now()
					rec.add(td.id, spQR, "", t, t1)
					rec.add(td.id, spModel, "", t1, t2)
				} else {
					ws.SortedQRInto(h, cmatrix.OrderSQRD, &qr)
					core.NewModelInto(&model, qr.R, q.Sigma2, p.cons)
				}
				if k >= misses {
					continue
				}
				t := td.now()
				if backend == core.BackendSoA32 {
					core.FindPaths32(&model, npe, 0)
					rec.add(td.id, spFind32, "", t, td.now())
				} else {
					core.FindPaths(&model, npe, 0)
					rec.add(td.id, spFind, "", t, td.now())
				}
			}
		}
	}
	ops, pre := det.OpCount(), det.PreprocessStats()
	res.ops.realMuls = ops.RealMuls - ops0.RealMuls
	res.ops.nodes = ops.Nodes - ops0.Nodes
	res.pre = core.PreprocessStats{
		RealMuls:    pre.RealMuls - pre0.RealMuls,
		Expanded:    pre.Expanded - pre0.Expanded,
		CacheHits:   pre.CacheHits - pre0.CacheHits,
		CacheMisses: pre.CacheMisses - pre0.CacheMisses,
	}
	return res, nil
}

// codecResult holds the per-frame wire codec costs on the pool's frames.
type codecResult struct {
	reqEnc, reqDec, respEnc, respDec float64 // µs per frame
	reqBytes, respBytes              float64
}

// replayCodec times the request and response codecs on the workload's
// own frames (responses carry the reference decisions) until budget is
// spent, and checks every round trip.
func replayCodec(p *pool, budget time.Duration) (codecResult, error) {
	var r codecResult
	var payload, wire, rpay, rwire []byte
	var q serve.DetectRequest
	var resp serve.DetectResponse
	var tEnc, tDec, tREnc, tRDec time.Duration
	n := 0
	for start := time.Now(); n == 0 || time.Since(start) < budget; {
		for u := range p.frames {
			for i := range p.frames[u] {
				f := &p.frames[u][i]
				t0 := time.Now()
				payload = f.req.AppendPayload(payload[:0])
				wire = serve.AppendFrame(wire[:0], serve.MsgDetect, payload)
				t1 := time.Now()
				_, pl, _, err := serve.DecodeFrame(wire)
				if err == nil {
					err = q.Decode(pl)
				}
				t2 := time.Now()
				if err != nil {
					return r, fmt.Errorf("request codec: %w", err)
				}
				out := serve.DetectResponse{FrameID: f.req.FrameID, Status: serve.StatusOK, Nt: f.req.Nt,
					Subcarriers: f.req.Subcarriers, Symbols: f.req.Symbols, Decisions: f.ref}
				t3 := time.Now()
				rpay = out.AppendPayload(rpay[:0])
				rwire = serve.AppendFrame(rwire[:0], serve.MsgResult, rpay)
				t4 := time.Now()
				_, pl, _, err = serve.DecodeFrame(rwire)
				if err == nil {
					err = resp.Decode(pl)
				}
				t5 := time.Now()
				if err != nil || !slices.Equal(resp.Decisions, f.ref) {
					return r, fmt.Errorf("response codec round trip failed: %v", err)
				}
				tEnc += t1.Sub(t0)
				tDec += t2.Sub(t1)
				tREnc += t4.Sub(t3)
				tRDec += t5.Sub(t4)
				n++
				r.reqBytes, r.respBytes = float64(len(wire)), float64(len(rwire))
			}
		}
	}
	per := func(d time.Duration) float64 { return d.Seconds() * 1e6 / float64(n) }
	r.reqEnc, r.reqDec, r.respEnc, r.respDec = per(tEnc), per(tDec), per(tREnc), per(tRDec)
	return r, nil
}
