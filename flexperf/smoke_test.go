package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// buildServer compiles flexserve from the enclosing module into dir.
func buildServer(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "flexserve")
	out, err := exec.Command("go", "build", "-o", bin, "flexcore/cmd/flexserve").CombinedOutput()
	if err != nil {
		t.Fatalf("build flexserve: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload briefly against a real flexserve and
// requires every served decision to equal the offline reference, and
// one traced run to produce the per-layer set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts flexserve processes")
	}
	dir := t.TempDir()
	bin := buildServer(t, dir)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(w, 7, time.Second, false, bin, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for _, name := range []string{"ok_ratio", "server_cpu_us_per_frame", "setup_s", "server_rss_mb"} {
				if v, ok := res.Metrics[name]; !ok || !(v.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value", name, v)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		w, _ := findWorkload("tiny-frames")
		res, err := run(w, 7, time.Second, true, bin, dir)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
		}
		for _, name := range []string{"phy.frame_us.complex128", "phy.self_us.soa32", "core.detect_us.soa32",
			"wire.req_encode_us", "serve.queue_wait_us", "trace.overhead_ratio", "loadgen.lag_p99_ms", "e2e.throughput_fps", "e2e.p50_ms", "e2e.p99_ms"} {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("traced run lacks %s", name)
			}
		}
	})
}
