package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"flexcore/internal/serve"
)

// server is one flexserve child process on loopback.
type server struct {
	cmd     *exec.Cmd
	addr    string
	metrics string
	exited  chan error // receives cmd.Wait's result once

	stopOnce sync.Once
	stopErr  error
}

// freePort reserves an ephemeral loopback port and releases it for the
// child to bind.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer execs flexserve and returns once its ingest port accepts
// a connection. The child is killed if this process dies first.
func startServer(bin string) (*server, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	maddr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-listen", addr, "-metrics", maddr}, serverArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start flexserve: %w", err)
	}
	s := &server{cmd: cmd, addr: addr, metrics: maddr, exited: make(chan error, 1)}
	//lint:ignore waitdiscipline joined by stop, which receives the exit status from s.exited
	go func() { s.exited <- cmd.Wait() }()
	return s, nil
}

// dial connects to the server, retrying while the child is still
// binding its port.
func (s *server) dial() (net.Conn, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.Dial("tcp", s.addr)
		if err == nil {
			c.(*net.TCPConn).SetNoDelay(true)
			return c, nil
		}
		select {
		case werr := <-s.exited:
			s.exited <- werr
			return nil, fmt.Errorf("flexserve exited before accepting: %v", werr)
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dial flexserve: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM (flexserve drains) and waits for the exit,
// killing the child if the drain overruns. It returns the exit error, so
// nil means a clean drain; later calls return the first result.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
			s.stopErr = err
		}
		select {
		case err := <-s.exited:
			if s.stopErr == nil {
				s.stopErr = err
			}
		case <-time.After(15 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
			s.stopErr = errors.New("flexserve did not drain within 15 s; killed")
		}
	})
	return s.stopErr
}

var metricsClient = &http.Client{Timeout: 5 * time.Second}

// snapshot fetches the /metrics document.
func (s *server) snapshot() (serve.Snapshot, error) {
	var snap serve.Snapshot
	resp, err := metricsClient.Get("http://" + s.metrics + "/metrics")
	if err != nil {
		return snap, fmt.Errorf("fetch /metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decode /metrics: %w", err)
	}
	return snap, nil
}

// peakRSSMiB reads the child's VmHWM from /proc.
func (s *server) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// cpuSeconds reads the child's user+system CPU time from /proc. The
// counters are in USER_HZ ticks, 100 per second on every Linux ABI Go
// supports.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", s.cmd.Process.Pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.cmd.Process.Pid)
	}
	var ticks float64
	for _, v := range f[11:13] {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc/%d/stat: %w", s.cmd.Process.Pid, err)
		}
		ticks += t
	}
	return ticks / 100, nil
}

// firstOK sends one pool frame on a fresh connection and waits for a
// StatusOK response whose decisions equal the reference. The setup
// frame uses a user ID outside the load's users, so it touches no
// load user's reuse state.
func (s *server) firstOK(f *frame) error {
	nc, err := s.dial()
	if err != nil {
		return err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	req := *f.req
	req.UserID = users
	req.FrameID = 1
	cl := serve.NewClient(nc)
	var resp serve.DetectResponse
	if err := cl.Do(&req, &resp); err != nil {
		return fmt.Errorf("setup frame: %w", err)
	}
	if resp.Status != serve.StatusOK || !slices.Equal(resp.Decisions, f.ref) {
		return fmt.Errorf("setup frame answered %v with decisions differing from the reference", resp.Status)
	}
	return nil
}
