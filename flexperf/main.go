// Command flexperf is the repository benchmark: it drives a real
// flexserve process over loopback TCP with pre-built 16-QAM frames,
// checks every served decision against an offline reference, and
// prints one JSON result line. With -trace 1 it runs the same workload
// with client spans recorded and then replays the traffic offline
// through phy.FrameDetector, the core stage functions and the wire
// codec on both kernel backends, reporting per-layer numbers instead.
//
// Usage (normally through run.sh, which builds both binaries):
//
//	flexperf -server .bench_build/flexserve -outdir .bench_build \
//	    --workload fading-fresh --seed 1 --seconds 12 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	setupRuns = 5 // flexserve cold starts per run; setup_s is their median
	warmup    = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Uint64("seed", 1, "input seed: the same seed builds the same frames")
	seconds := flag.Int("seconds", 12, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bin := flag.String("server", "", "flexserve binary")
	outdir := flag.String("outdir", ".", "directory for span files")
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *bin == "" || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fatal(errors.New("need -server, -seconds ≥ 1 and -trace 0|1"))
	}
	machineRecord()
	steal0, total0 := cpuTicks()
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *bin, *outdir)
	if err != nil {
		fatal(err)
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		fmt.Fprintf(os.Stderr, "flexperf: hypervisor steal during the run: %.1f %% of CPU time\n",
			100*(steal1-steal0)/(total1-total0))
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flexperf:", err)
	os.Exit(1)
}

// machineRecord prints the host facts every result depends on.
func machineRecord() {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(os.Stderr, "flexperf: nproc=%d cpu=%q go=%s GOMAXPROCS=%d transport=tcp/loopback\n",
		runtime.NumCPU(), cpu, runtime.Version(), runtime.GOMAXPROCS(0))
}

// cpuTicks returns the host's cumulative steal and total CPU ticks
// from /proc/stat (zeros where it is unreadable). Steal across a run
// tells how much CPU other tenants of the host took.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// run executes one workload: cold starts for setup time, warm-up, the
// timed phases, then the correctness gates; traced runs add the replay.
func run(w workload, seed uint64, total time.Duration, traced bool, bin, outdir string) (*result, error) {
	p, err := buildPool(w, seed)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var srv *server
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		s, err := startServer(bin)
		if err != nil {
			return nil, err
		}
		if err := s.firstOK(&p.frames[0][0]); err != nil {
			s.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stop setup server: %w", err)
			}
			continue
		}
		srv = s
	}
	defer srv.stop()

	l, err := newLoad(srv, p)
	if err != nil {
		return nil, err
	}
	defer l.close()

	closedDur, openDur := time.Duration(0), total
	if w.closed {
		closedDur = total / 5
		openDur = total - closedDur
	}
	if traced {
		// The traced open loop and its untraced twin split the time.
		openDur /= 2
	}
	var phases []*phaseRun
	warm, err := l.closedPhase(warmup, false)
	if err != nil {
		return nil, err
	}
	phases = append(phases, warm)
	snap0, err := srv.snapshot()
	if err != nil {
		return nil, err
	}
	var closed *phaseRun
	if w.closed {
		if closed, err = l.closedPhase(closedDur, false); err != nil {
			return nil, err
		}
		phases = append(phases, closed)
	}
	// A traced run first repeats the open loop untraced, so the two can
	// be compared for the tracing overhead.
	var untraced *phaseRun
	if traced {
		if untraced, err = l.openPhase(w.rate, openDur, false); err != nil {
			return nil, err
		}
		phases = append(phases, untraced)
	}
	snapOpen, err := srv.snapshot()
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	open, err := l.openPhase(w.rate, openDur, traced)
	if err != nil {
		return nil, err
	}
	phases = append(phases, open)
	snapEnd, err := srv.snapshot()
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	l.close()
	drainErr := srv.stop()

	// Correctness over every phase, warm-up included.
	var all summary
	for _, ph := range phases {
		s := ph.summarize()
		all.tally.add(s.tally)
		all.degraded = append(all.degraded, s.degraded...)
	}
	t := all.tally
	if err := checkDegraded(p, all.degraded, &t); err != nil {
		return nil, err
	}
	failed := t.mismatch + t.unmatched + t.duplicate + t.lost + t.invalid + t.draining
	if !w.shed {
		failed += t.expired + t.overloaded
	}
	gates := gateErrors(w, snap0, snapEnd, len(all.degraded))
	if drainErr != nil {
		gates = append(gates, fmt.Sprintf("flexserve did not drain cleanly: %v", drainErr))
	}
	for _, g := range gates {
		fmt.Fprintln(os.Stderr, "flexperf: gate failed:", g)
	}
	fmt.Fprintf(os.Stderr, "flexperf: tally %+v\n", t)
	hits, misses := reuseWindow(snap0, snapEnd)
	fmt.Fprintf(os.Stderr, "flexperf: server reuse over the timed window: %d hits, %d misses\n", hits, misses)

	osum := open.summarize()
	attempted := osum.attempted
	for _, ph := range []*phaseRun{closed, untraced} {
		if ph != nil {
			attempted += ph.summarize().attempted
		}
	}
	res := &result{
		Correct:   failed == 0 && len(gates) == 0,
		Attempted: attempted,
		Failed:    int(failed),
		Metrics:   map[string]metric{},
	}
	if !traced {
		endToEnd(res.Metrics, osum, setups, rss, (cpu1-cpu0)/float64(osum.tally.ok)*1e6)
		fig := map[string]metric{}
		loadFigures(fig, w, closed, open, osum)
		keys := make([]string, 0, len(fig))
		for k := range fig {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(os.Stderr, "flexperf: %s = %.4g %s\n", k, fig[k].Value, fig[k].Unit)
		}
		return res, nil
	}
	if err := perLayer(res.Metrics, w, p, closed, untraced, open, osum, snapOpen, snapEnd, filepath.Join(outdir, "spans-"+w.name+".csv")); err != nil {
		return nil, err
	}
	return res, nil
}
