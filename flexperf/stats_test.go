package main

import (
	"math"
	"testing"
	"time"

	"flexcore/internal/serve"
)

func TestNearestRank(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		vals []float64
		p    float64
		want float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 50, 3},
		{[]float64{5, 1, 4, 2, 3}, 100, 5},
		{[]float64{5, 1, 4, 2, 3}, 1, 1},
		{[]float64{1, 2, 3, 4}, 50, 2}, // rank ceil(0.5·4) = 2
		{[]float64{1, 2, 3, 4}, 75, 3},
		// A failed frame is +Inf: it sorts past every served frame and
		// so pushes the percentiles up instead of vanishing.
		{[]float64{1, inf, 2, 3}, 75, 3},
		{[]float64{1, inf, 2, 3}, 100, inf},
		{[]float64{inf, inf, 1}, 50, inf},
	}
	for _, c := range cases {
		if got := nearestRank(append([]float64(nil), c.vals...), c.p); got != c.want {
			t.Errorf("nearestRank(%v, %v) = %v, want %v", c.vals, c.p, got, c.want)
		}
	}
	if !math.IsNaN(nearestRank(nil, 50)) {
		t.Error("empty sample must give NaN")
	}
	// 1000 samples: p99 is rank 990, leaving ten samples beyond it.
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(1000 - i)
	}
	if got := nearestRank(vals, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestFailedFramesMissEveryLimit(t *testing.T) {
	inf := math.Inf(1)
	lat := []float64{0.5, inf, 2, 30, inf}
	if got := within(lat, 10); got != 2 {
		t.Errorf("within 10 ms = %d, want 2", got)
	}
	if got := within(lat, math.MaxFloat64); got != 3 {
		t.Errorf("within any finite limit = %d, want 3 (failed frames never count)", got)
	}
	if got := finite(lat); len(got) != 3 {
		t.Errorf("finite kept %v, want the three served frames", got)
	}
}

func TestDerivedServerSplit(t *testing.T) {
	a := serve.Snapshot{LatencyMeanMicros: 100, Latency: []serve.LatencyBucket{{UpperMicros: 127, Count: 10}}}
	b := serve.Snapshot{LatencyMeanMicros: 250, Latency: []serve.LatencyBucket{
		{UpperMicros: 127, Count: 10}, {UpperMicros: 511, Count: 30}}}
	// 10 frames at mean 100 µs, then 30 more: (250·40 − 100·10)/30 = 300.
	server := windowMeanUs(a, b)
	if math.Abs(server-300) > 1e-9 {
		t.Fatalf("window mean = %v µs, want 300", server)
	}
	if got := windowMeanUs(b, b); got != 0 {
		t.Errorf("empty window mean = %v, want 0", got)
	}
	if got := outsideServerUs(1300, server); got != 1000 {
		t.Errorf("outside server = %v µs, want 1000", got)
	}
	if got := queueWaitUs(server, 120); got != 180 {
		t.Errorf("queue wait = %v µs, want 180", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{id: 1, name: "parent", start: 0, end: 100},
		{id: 1, name: "a", parent: "parent", start: 10, end: 30},
		{id: 1, name: "b", parent: "parent", start: 20, end: 50},     // overlaps a: union 10..50
		{id: 1, name: "c", parent: "parent", start: 90, end: 120},    // clipped to 90..100
		{id: 2, name: "a", parent: "parent", start: 0, end: 1000},    // another frame's child
		{id: 2, name: "parent", start: 200, end: 260},                // covered by its child
		{id: 1, name: "grand", parent: "a", start: 10, end: 30},      // not a direct child
		{id: 3, name: "other", parent: "parent", start: 10, end: 20}, // frame without a parent span
	}
	got := selfTimes(spans, "parent")
	// Frame 1: 100 − (40 + 10) = 50. Frame 2: its child covers 200..260
	// entirely, so 0.
	want := []int64{50, 0}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("self times = %v, want %v", got, want)
	}
	if got := meanUs([]span{{id: 1, name: "x", start: 0, end: 2000}, {id: 1, name: "x", start: 5000, end: 6000},
		{id: 2, name: "x", start: 0, end: 3000}}, "x", true); got != 3 {
		t.Errorf("per-frame mean = %v µs, want 3", got)
	}
}

func TestWindowedMedians(t *testing.T) {
	sec := int64(time.Second)
	// Four 1 s windows with 10, 12, 50 (a burst) and 11 events: the
	// median rate ignores the burst.
	var at []int64
	for w, n := range []int{10, 12, 50, 11} {
		for i := 0; i < n; i++ {
			at = append(at, int64(w)*sec+int64(i))
		}
	}
	at = append(at, 4*sec, -1) // outside the phase: ignored
	if got := windowRate(at, 4*time.Second, 4); got != 11.5 {
		t.Errorf("window rate = %v, want 11.5", got)
	}
	inf := math.Inf(1)
	lat := []float64{1, 2, 3, 100, 200, inf, 5, 6}
	due := []int64{0, 1, 2, sec, sec + 1, sec + 2, 2 * sec, 2*sec + 1}
	// Window p99s: 3, 200 (the +Inf failure is not a served latency), 6.
	if got := windowPercentile(lat, due, 3*time.Second, 3, 99); got != 6 {
		t.Errorf("window p99 = %v, want 6", got)
	}
}
