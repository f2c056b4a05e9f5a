package main

import (
	"testing"
	"time"
)

// TestOpenLoopReportsStalledSends stalls the first send of a 500 frames/s
// pacer for 30 ms of a 60 ms run. The pacer must not burst to make up
// the missed slots (it sends about 16 frames, a catch-up burst would send
// 30), and it must say so: at least one late send, and an achieved rate
// below the target that matches its own send count.
func TestOpenLoopReportsStalledSends(t *testing.T) {
	const rate, run, stall = 500, 60 * time.Millisecond, 30 * time.Millisecond
	c := &config{conns: 1, rate: rate, duration: run}
	var sends int64
	send := func() error {
		if sends++; sends == 1 {
			time.Sleep(stall)
		}
		return nil
	}
	recv := func() error { return nil }
	pace, err := openLoop(c, send, recv)
	if err != nil {
		t.Fatal(err)
	}
	if pace.Sent != sends {
		t.Fatalf("pacer counted %d sends, send ran %d times", pace.Sent, sends)
	}
	slots := int64(rate * run.Seconds())
	if pace.Sent > slots*4/5 {
		t.Fatalf("%d sends in %d slots: the pacer burst to catch up after the stall", pace.Sent, slots)
	}
	if pace.LateSends < 1 {
		t.Fatalf("late sends %d, want ≥ 1 after a %v stall", pace.LateSends, stall)
	}
	if pace.TargetFPS != rate || pace.SendRateFPS >= rate {
		t.Fatalf("%+v: want the achieved rate below the %d fps target", pace, rate)
	}
}
