package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"flexcore/internal/core"
	"flexcore/internal/serve"
)

// Replay budgets (wall time per backend and for the codec).
const (
	replayBudget = 2 * time.Second
	codecBudget  = 500 * time.Millisecond
)

// endToEnd fills the untraced run's gated metrics. On a shared host
// the wall-clock figures (throughput, latency percentiles) move with the
// CPU time other tenants take, so they are not gated: loadFigures
// reports them, the traced run as e2e.* and the untraced run on
// standard error.
//
// ok_ratio is StatusOK frames over frames attempted in the open loop;
// server_cpu_us_per_frame is flexserve's user+system CPU time across the
// open loop per StatusOK frame. Steal is not charged to the process, and
// the open loop's frame count is fixed by its rate, so this is the
// steadiest cost figure on a shared host.
func endToEnd(m map[string]metric, osum summary, setups []float64, rss, cpuPerFrame float64) {
	m["ok_ratio"] = metric{float64(len(finite(osum.lat))) / float64(len(osum.lat)), "ratio"}
	m["server_cpu_us_per_frame"] = metric{cpuPerFrame, "us"}
	m["setup_s"] = metric{median(setups), "s"}
	m["server_rss_mb"] = metric{rss, "MiB"}
}

// loadFigures fills the client-side end-to-end figures.
//
// e2e.throughput_fps is the closed loop's StatusOK rate (overload-shed
// has no closed loop; there it is the StatusOK rate under its open-loop
// overload), as the median over 1 s windows. e2e.p50_ms and e2e.p99_ms
// are over the open loop's StatusOK frames, timed from each frame's due
// time: the median of the per-second p50s, and the median of the p99s
// of windows of at least one second and 1000 scheduled frames (so each
// window's p99 has ten samples beyond it). e2e.goodput_fps counts frames
// answered StatusOK within the workload's latency limit per second of
// schedule; e2e.ser is the served symbol error rate.
func loadFigures(m map[string]metric, w workload, closed, open *phaseRun, osum summary) {
	if closed != nil {
		m["e2e.throughput_fps"] = metric{windowRate(closed.summarize().okAt, closed.dur, seconds(closed.dur)), "frames/s"}
	} else {
		m["e2e.throughput_fps"] = metric{windowRate(osum.okAt, open.dur, seconds(open.dur)), "frames/s"}
	}
	m["e2e.p50_ms"] = metric{windowPercentile(osum.lat, osum.due, open.dur, seconds(open.dur), 50), "ms"}
	m["e2e.p99_ms"] = metric{windowPercentile(osum.lat, osum.due, open.dur, tailWindows(w.rate, open.dur), 99), "ms"}
	m["e2e.goodput_fps"] = metric{float64(within(osum.lat, float64(w.limit)/1e6)) / (float64(len(osum.lat)) / w.rate), "frames/s"}
	m["e2e.ser"] = metric{float64(osum.tally.symErr) / float64(osum.tally.symTot), "ratio"}
	m["loadgen.latency_samples"] = metric{float64(len(finite(osum.lat))), "count"}
}

// seconds cuts a phase into one-second windows.
func seconds(dur time.Duration) int {
	return max(1, int(dur/time.Second))
}

// tailWindows cuts an open loop into windows of at least one second and
// at least 1000 scheduled frames, so each window's p99 has ten samples
// beyond it.
func tailWindows(rate float64, dur time.Duration) int {
	return max(1, min(int(dur/time.Second), int(rate*dur.Seconds()/1000)))
}

// windowMeanUs is the server's mean admit→respond latency over the
// frames it completed between two snapshots.
func windowMeanUs(a, b serve.Snapshot) float64 {
	na, nb := histCount(a), histCount(b)
	if nb <= na {
		return 0
	}
	return (b.LatencyMeanMicros*float64(nb) - a.LatencyMeanMicros*float64(na)) / float64(nb-na)
}

func histCount(s serve.Snapshot) int64 {
	var n int64
	for _, b := range s.Latency {
		n += b.Count
	}
	return n
}

// reuseWindow sums the shards' exact reuse hit and miss counts between
// two snapshots.
func reuseWindow(a, b serve.Snapshot) (hits, misses int64) {
	for _, sh := range b.ShardStats {
		hits += sh.ReuseHits
		misses += sh.ReuseMisses
	}
	for _, sh := range a.ShardStats {
		hits -= sh.ReuseHits
		misses -= sh.ReuseMisses
	}
	return hits, misses
}

// gateErrors checks the server's ledger after the drain and the exact
// reuse outcome of the timed window (a to b).
func gateErrors(w workload, a, b serve.Snapshot, degradedSeen int) []string {
	var errs []string
	if b.InFlight != 0 {
		errs = append(errs, fmt.Sprintf("in_flight = %d after the drain", b.InFlight))
	}
	if b.BadFrames != 0 || b.WriteErrors != 0 || b.ConnTimeouts != 0 {
		errs = append(errs, fmt.Sprintf("bad_frames %d, write_errors %d, conn_timeouts %d", b.BadFrames, b.WriteErrors, b.ConnTimeouts))
	}
	if !w.degrades && (b.DegradedFrames != 0 || degradedSeen != 0) {
		errs = append(errs, fmt.Sprintf("%d degraded frames outside overload", b.DegradedFrames))
	}
	hits, misses := reuseWindow(a, b)
	switch w.reuseGate {
	case reuseAllHits:
		if hits+misses == 0 || float64(hits) < 0.99*float64(hits+misses) {
			errs = append(errs, fmt.Sprintf("reuse hits %d of %d subcarriers, want ≥ 99 %%", hits, hits+misses))
		}
	case reuseNoHits:
		if hits != 0 {
			errs = append(errs, fmt.Sprintf("reuse hits %d, want 0", hits))
		}
	}
	return errs
}

// checkDegraded compares every response served below full N_PE with a
// fresh offline detector at that N_PE.
func checkDegraded(p *pool, resps []degradedResp, t *tally) error {
	type key struct{ user, idx, npe int }
	refs := map[key][]uint16{}
	dets := map[int]*core.FlexCore{}
	for _, r := range resps {
		k := key{r.user, r.idx, r.npe}
		ref, ok := refs[k]
		if !ok {
			if dets[r.npe] == nil {
				dets[r.npe] = p.detector(r.npe)
			}
			var err error
			if ref, err = reference(dets[r.npe], p.frames[r.user][r.idx].req); err != nil {
				return err
			}
			refs[k] = ref
		}
		if !slices.Equal(r.decisions, ref) {
			t.mismatch++
		}
	}
	return nil
}

// perLayer fills the traced run's per-layer metrics: client spans of
// the traced open loop, /metrics diffs across it, and the offline
// replay on both backends.
func perLayer(m map[string]metric, w workload, p *pool, closed, untraced, open *phaseRun, osum summary,
	a, b serve.Snapshot, spanPath string) error {
	rec := &recorder{}
	for c, cp := range open.cp {
		for n := 0; n < cp.sent; n++ {
			if n >= len(cp.status) || cp.status[n] != int8(serve.StatusOK) {
				continue
			}
			seq := n*conns + c
			user := seq % users
			id := frameID(user, open.base[user]+seq/users)
			rec.add(id, "client.frame", "", cp.due[n], cp.decoded[n])
			rec.add(id, "client.send_wait", "client.frame", cp.due[n], cp.queued[n])
			rec.add(id, "client.flush", "client.frame", cp.queued[n], cp.flushed[n])
			rec.add(id, "client.in_flight", "client.frame", cp.flushed[n], cp.recv[n])
			rec.add(id, "client.decode", "client.frame", cp.recv[n], cp.decoded[n])
		}
	}
	ok := finite(osum.lat)
	clientMeanUs := mean(ok) * 1e3
	serverMeanUs := windowMeanUs(a, b)
	m["loadgen.lag_p99_ms"] = metric{nearestRank(osum.lag, 99), "ms"}
	loadFigures(m, w, closed, open, osum)
	m["client.flush_us"] = metric{meanUs(rec.spans, "client.flush", false), "us"}
	m["client.decode_us"] = metric{meanUs(rec.spans, "client.decode", false), "us"}
	m["trace.overhead_ratio"] = metric{clientMeanUs/(mean(finite(untraced.summarize().lat))*1e3) - 1, "ratio"}

	attempted := float64(osum.attempted)
	hwm := 0
	for _, sh := range b.ShardStats {
		hwm = max(hwm, sh.QueueHighWatermark)
	}
	m["serve.server_latency_mean_us"] = metric{serverMeanUs, "us"}
	m["serve.outside_server_us"] = metric{outsideServerUs(clientMeanUs, serverMeanUs), "us"}
	m["serve.queue_hwm"] = metric{float64(hwm), "count"}
	m["serve.expired_ratio"] = metric{float64(b.ExpiredFrames-a.ExpiredFrames) / attempted, "ratio"}
	m["serve.rejected_ratio"] = metric{float64(b.RejectedOverload+b.RejectedDraining+b.RejectedInvalid-
		a.RejectedOverload-a.RejectedDraining-a.RejectedInvalid) / attempted, "ratio"}
	m["serve.degraded_ratio"] = metric{float64(b.DegradedFrames-a.DegradedFrames) / attempted, "ratio"}
	m["serve.avg_active_pes"] = metric{b.AvgActivePEs, "count"}

	codec, err := replayCodec(p, codecBudget)
	if err != nil {
		return err
	}
	m["wire.req_encode_us"] = metric{codec.reqEnc, "us"}
	m["wire.req_decode_us"] = metric{codec.reqDec, "us"}
	m["wire.resp_encode_us"] = metric{codec.respEnc, "us"}
	m["wire.resp_decode_us"] = metric{codec.respDec, "us"}
	m["wire.req_bytes"] = metric{codec.reqBytes, "bytes"}
	m["wire.resp_bytes"] = metric{codec.respBytes, "bytes"}

	for _, backend := range []core.Backend{core.BackendComplex128, core.BackendSoA32} {
		r, err := replay(p, backend, replayBudget, backend == core.BackendComplex128)
		if err != nil {
			return err
		}
		if r.mismatch != 0 {
			return fmt.Errorf("replay on the serving backend disagreed with the reference on %d frames", r.mismatch)
		}
		sfx := "." + backend.String()
		frames := float64(r.frames)
		frameUs := meanUs(r.rec.spans, spFrame, false)
		self := selfTimes(r.rec.spans, spFrame)
		var selfSum int64
		for _, v := range self {
			selfSum += v
		}
		m["phy.frame_us"+sfx] = metric{frameUs, "us"}
		m["phy.self_us"+sfx] = metric{nsToUs(selfSum, int64(len(self))), "us"}
		m["core.prepare_all_us"+sfx] = metric{meanUs(r.rec.spans, spPrepareAll, true), "us"}
		m["core.detect_us"+sfx] = metric{(sumUs(r.rec.spans, spSelect) + sumUs(r.rec.spans, spDetect)) / frames, "us"}
		find := spFind
		if backend == core.BackendSoA32 {
			find = spFind32
		}
		m["core.find_paths_us"+sfx] = metric{meanUs(r.rec.spans, find, false), "us"}
		m["core.reuse_hit_ratio"+sfx] = metric{ratio(r.pre.CacheHits, r.pre.CacheHits+r.pre.CacheMisses), "ratio"}
		m["core.pre_real_muls_per_frame"+sfx] = metric{float64(r.pre.RealMuls) / frames, "count"}
		m["core.pre_expanded_per_frame"+sfx] = metric{float64(r.pre.Expanded) / frames, "count"}
		m["core.real_muls_per_frame"+sfx] = metric{float64(r.ops.realMuls) / frames, "count"}
		m["core.nodes_per_frame"+sfx] = metric{float64(r.ops.nodes) / frames, "count"}
		if backend == core.BackendComplex128 {
			m["cmatrix.sorted_qr_us"] = metric{meanUs(r.rec.spans, spQR, false), "us"}
			m["core.model_us"] = metric{meanUs(r.rec.spans, spModel, false), "us"}
		}
		if backend == p.backend {
			m["serve.queue_wait_us"] = metric{queueWaitUs(serverMeanUs, frameUs), "us"}
		}
		rec.spans = append(rec.spans, r.rec.spans...)
	}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("per-layer metric %s is %v", name, v.Value)
		}
	}
	return rec.write(spanPath)
}

func sumUs(spans []span, name string) float64 {
	var sum int64
	for _, s := range spans {
		if s.name == name {
			sum += s.dur()
		}
	}
	return float64(sum) / 1e3
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
