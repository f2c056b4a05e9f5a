package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// gatedDetector wraps a real FlexCore, blocking the first DetectBatch
// call until its gate opens — it lets a test park the shard worker
// inside a real frame so the admission queue fills to a known depth,
// then observe how the pressure controller degrades the backlog. Every
// other method (PrepareAll/Select, SetNPE, SetReuseState) is the
// wrapped detector's, so the worker serves all rungs on it.
type gatedDetector struct {
	*core.FlexCore
	started chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (d *gatedDetector) DetectBatch(ys [][]complex128) [][]int {
	d.once.Do(func() {
		select {
		case d.started <- struct{}{}:
		default:
		}
		<-d.gate
	})
	return d.FlexCore.DetectBatch(ys)
}

// TestDegradationLadderBitIdentical is the degradation tentpole
// contract: with the worker parked inside frame 1, six more users'
// frames fill a depth-8 queue, so the dequeue-time pressure controller
// must walk them down the {8, 4} ladder deterministically — and every
// degraded frame's decisions must be bit-identical to the offline
// Prepare+Detect at exactly the N_PE the response reports. The worker
// holds one detector and serves every rung on it through SetNPE. Runs
// on both FLEXCORE_BACKEND legs via envBackend.
func TestDegradationLadderBitIdentical(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	backend := envBackend(t)
	gated := &gatedDetector{
		FlexCore: core.New(cons, core.Options{NPE: e2eNPE, Workers: 1, Backend: backend}),
		started:  make(chan struct{}, 1),
		gate:     make(chan struct{}),
	}
	srv, err := NewServer(Config{
		Shards:          1,
		WorkersPerShard: 1,
		QueueDepth:      8,
		DegradeLadder:   []int{8, 4},
		DegradeStart:    0.25,
		DetectorFactory: func() detector.Detector { return gated },
	})
	if err != nil {
		t.Fatal(err)
	}

	cl := srv.InProcess()
	defer cl.Close()

	type fullResp struct {
		frameID uint64
		status  Status
		npe     int
		dec     []uint16
	}
	got := make(chan fullResp, 16)
	go func() {
		defer close(got)
		var resp DetectResponse
		for {
			if err := cl.Recv(&resp); err != nil {
				return
			}
			got <- fullResp{resp.FrameID, resp.Status, resp.ServedNPE, append([]uint16(nil), resp.Decisions...)}
		}
	}()

	// Distinct users (all on the single shard) so each frame is its own
	// runnable chain head and the single worker dequeues them in
	// admission order; FrameID == UserID keys the response map.
	var q DetectRequest
	send := func(u uint64) {
		fillFrame(t, &q, u, u)
		if err := cl.Send(&q); err != nil {
			t.Fatalf("send %d: %v", u, err)
		}
	}
	send(1)
	<-gated.started
	for u := uint64(2); u <= 7; u++ {
		send(u)
	}
	waitFor(t, "backlog admission", func() bool { return srv.Metrics().Accepted == 7 })
	close(gated.gate)

	// Dequeue-time queue depths for frames 2..7 are 6,5,4,3,2,1 of 8:
	// fills 0.75, 0.625 → rung 2 (N_PE 4); 0.5, 0.375, 0.25 → rung 1
	// (N_PE 8); 0.125 < DegradeStart → rung 0 (full N_PE). Frame 1 was
	// dequeued at depth 1 → rung 0.
	wantNPE := map[uint64]int{1: 0, 2: 4, 3: 4, 4: 8, 5: 8, 6: 8, 7: 0}
	seen := map[uint64]bool{}
	for len(seen) < 7 {
		r, ok := <-got
		if !ok {
			t.Fatalf("connection died with %d/7 responses delivered", len(seen))
		}
		if r.status != StatusOK {
			t.Fatalf("frame %d: status %v, want ok", r.frameID, r.status)
		}
		want, known := wantNPE[r.frameID]
		if !known || seen[r.frameID] {
			t.Fatalf("unexpected or duplicate response for frame %d", r.frameID)
		}
		seen[r.frameID] = true
		if r.npe != want {
			t.Fatalf("frame %d: served N_PE %d, want %d (deterministic ladder walk)", r.frameID, r.npe, want)
		}
		eff := r.npe
		if eff == 0 {
			eff = e2eNPE
		}
		fillFrame(t, &q, r.frameID, r.frameID)
		ref := offlineDecisionsNPE(t, cons, &q, eff)
		if len(r.dec) != len(ref) {
			t.Fatalf("frame %d: %d decisions, want %d", r.frameID, len(r.dec), len(ref))
		}
		for i, w := range ref {
			if int(r.dec[i]) != w {
				t.Fatalf("frame %d decision %d: served %d, offline reference at N_PE=%d says %d — degraded frames must stay bit-identical to offline detection at the degraded N_PE",
					r.frameID, i, r.dec[i], eff, w)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	snap := srv.Metrics()
	if snap.DegradedFrames != 5 {
		t.Fatalf("degraded_frames %d, want 5", snap.DegradedFrames)
	}
	if snap.Completed != 7 || snap.Accepted != 7 || snap.InFlight != 0 {
		t.Fatalf("ledger accepted %d completed %d in-flight %d, want 7/7/0", snap.Accepted, snap.Completed, snap.InFlight)
	}
	if snap.ExpiredFrames != 0 {
		t.Fatalf("expired_frames %d without deadlines, want 0", snap.ExpiredFrames)
	}
}

// TestDegradeConfigValidation pins the config contract: a ladder that
// is not strictly decreasing, a non-positive rung, a rung at or above
// the detector's full N_PE (which would "degrade" upward and count as
// degraded) and a ladder on a detector without SetNPE are
// construction-time errors, not silent misconfiguration.
func TestDegradeConfigValidation(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	flex := func() detector.Detector { return core.New(cons, core.Options{NPE: 64, Workers: 1}) }
	slow := newSlowDetector()
	close(slow.gate)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"rung above full N_PE", Config{DetectorFactory: flex, DegradeLadder: []int{128, 32}}},
		{"rung equal to full N_PE", Config{DetectorFactory: flex, DegradeLadder: []int{64, 32}}},
		{"detector without SetNPE", Config{DetectorFactory: func() detector.Detector { return slow }, DegradeLadder: []int{8, 4}}},
		{"non-decreasing ladder", Config{DetectorFactory: flex, DegradeLadder: []int{4, 8}}},
		{"non-positive rung", Config{DetectorFactory: flex, DegradeLadder: []int{8, 0}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewServer(c.cfg); err == nil {
				t.Fatal("NewServer accepted an invalid degradation config")
			}
		})
	}
}

// TestRungMapping pins the pressure controller's depth→rung curve.
func TestRungMapping(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{
		QueueDepth:      8,
		DegradeStart:    0.25,
		DegradeLadder:   []int{8, 4},
		DetectorFactory: func() detector.Detector { return core.New(cons, core.Options{NPE: e2eNPE, Workers: 1}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	want := map[int]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2, 8: 2, 9: 2}
	for depth, rung := range want {
		if got := srv.rung(depth); got != rung {
			t.Fatalf("rung(depth=%d) = %d, want %d", depth, got, rung)
		}
	}
}

// TestDegradedFrameKeepsReuse pins reuse across rungs on the serve
// path: a static-channel user's frames are driven through process at
// rungs 2 → full → 1 → full → 2. The first frame searches at N_PE 4,
// and that base cannot serve the full-N_PE frame, which searches again;
// every later frame, degraded or not, is a cross-frame reuse hit on all
// subcarriers (a degraded rung serves a prefix of the full-N_PE base).
// Each response is bit-identical to a fresh offline detector at the
// N_PE it reports.
func TestDegradedFrameKeepsReuse(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	ladder := []int{8, 4}
	srv, err := NewServer(Config{
		Shards:        1,
		DegradeLadder: ladder,
		DetectorFactory: func() detector.Detector {
			return core.New(cons, core.Options{NPE: e2eNPE, Workers: 1, Backend: envBackend(t), PathReuse: true})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	// Drive process directly: the shard worker sits idle on its queue,
	// so the test owns the detector without racing it.
	w := srv.shards[0].workers[0]
	fc := w.det.(*core.FlexCore)
	tk := srv.taskPool.Get().(*task)
	defer srv.release(tk)
	tk.user = &userState{id: 5}
	var resp DetectResponse
	for f, rung := range []int{2, 0, 1, 0, 2} {
		fillFrameCoherent(t, &tk.req, 5, uint64(f+1), 0)
		tk.rung = rung
		tk.enq = time.Now()
		before := fc.PreprocessStats().CacheHits
		srv.process(w, tk)
		hits := fc.PreprocessStats().CacheHits - before
		want := int64(e2eK)
		if f < 2 {
			want = 0
		}
		if hits != want {
			t.Fatalf("frame %d at rung %d: %d reuse hits, want %d", f+1, rung, hits, want)
		}
		_, payload, _, err := DecodeFrame(tk.wire)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Decode(payload); err != nil {
			t.Fatal(err)
		}
		wantNPE, eff := 0, e2eNPE
		if rung > 0 {
			wantNPE, eff = ladder[rung-1], ladder[rung-1]
		}
		if resp.Status != StatusOK || resp.ServedNPE != wantNPE {
			t.Fatalf("frame %d: status %v served N_PE %d, want ok at %d", f+1, resp.Status, resp.ServedNPE, wantNPE)
		}
		ref := offlineDecisionsNPE(t, cons, &tk.req, eff)
		if len(resp.Decisions) != len(ref) {
			t.Fatalf("frame %d: %d decisions, want %d", f+1, len(resp.Decisions), len(ref))
		}
		for i, want := range ref {
			if int(resp.Decisions[i]) != want {
				t.Fatalf("frame %d decision %d: served %d, offline at N_PE=%d says %d", f+1, i, resp.Decisions[i], eff, want)
			}
		}
	}
	if got := srv.Metrics().DegradedFrames; got != 3 {
		t.Fatalf("degraded_frames %d, want 3", got)
	}
}
