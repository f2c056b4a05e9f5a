package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flexcore/internal/serve"
)

// seqBits is the width of the per-phase frame sequence inside a
// FrameID; the bits above it carry the phase number, so a response is
// matched to exactly one sent frame.
const seqBits = 40

// load drives the pool over a fixed set of connections. Frame seq of a
// phase goes to user seq%users on connection seq%conns (so users are
// round-robin across connections), and is that user's
// (base[user] + seq/users)-th frame overall, which picks its pool entry.
type load struct {
	p     *pool
	conns []*loadConn
	base  [users]int // frames each user sent in earlier phases
	phase uint64
}

// loadConn is one connection: the production serve.Client sends, and
// one long-lived receiver goroutine reads and checks every response.
type loadConn struct {
	idx     int
	nc      net.Conn
	cl      *serve.Client
	cur     atomic.Pointer[connPhase]
	closing atomic.Bool
	rerr    error         // receiver exit error, valid after done is closed
	done    chan struct{} // closed when the receiver exits
}

// connPhase is one connection's share of a phase. The sender owns the
// send-side slices; the receiver owns the rest and publishes each
// response through got, so the controller may read receiver state once
// it has observed got reach the sent count.
type connPhase struct {
	ph *phaseRun

	// sender-owned
	due, queued, flushed []int64 // ns since the phase epoch, by n = seq/conns
	sent                 int

	// receiver-owned
	recv, decoded []int64 // ns since the phase epoch; -1 = no response
	status        []int8
	got           atomic.Int64
	tally         tally
	degraded      []degradedResp
}

// tally counts response outcomes.
type tally struct {
	ok, expired, overloaded, invalid, draining int64
	mismatch, unmatched, duplicate, lost       int64
	symErr, symTot                             int64
}

func (t *tally) add(o tally) {
	t.ok += o.ok
	t.expired += o.expired
	t.overloaded += o.overloaded
	t.invalid += o.invalid
	t.draining += o.draining
	t.mismatch += o.mismatch
	t.unmatched += o.unmatched
	t.duplicate += o.duplicate
	t.lost += o.lost
	t.symErr += o.symErr
	t.symTot += o.symTot
}

// degradedResp is a response served below full N_PE; it is checked
// against a reference at that N_PE after the run.
type degradedResp struct {
	user, idx, npe int
	decisions      []uint16
}

// phaseRun is one load phase: closed loop (a window of in-flight frames
// per connection, for dur) or open loop (total frames due at rate).
type phaseRun struct {
	id     uint64
	epoch  time.Time
	open   bool
	rate   float64
	total  int
	dur    time.Duration
	traced bool
	base   [users]int
	cp     []*connPhase
	tokens []chan struct{} // closed loop: per-connection in-flight semaphore
}

func newLoad(srv *server, p *pool) (*load, error) {
	l := &load{p: p}
	for c := 0; c < conns; c++ {
		nc, err := srv.dial()
		if err != nil {
			l.close()
			return nil, err
		}
		lc := &loadConn{idx: c, nc: nc, cl: serve.NewClient(nc), done: make(chan struct{})}
		l.conns = append(l.conns, lc)
		//lint:ignore waitdiscipline joined by load.close, which closes the connection and waits on lc.done
		go lc.receive(p)
	}
	return l, nil
}

// close closes every connection and waits for the receivers to exit.
func (l *load) close() {
	for _, lc := range l.conns {
		lc.closing.Store(true)
		lc.nc.Close()
	}
	for _, lc := range l.conns {
		<-lc.done
	}
}

// frameOf maps a phase sequence number to its user and pool entry.
func (ph *phaseRun) frameOf(seq int, p *pool) (user, idx int) {
	user = seq % users
	return user, (ph.base[user] + seq/users) % len(p.frames[user])
}

// closedPhase runs a closed loop for dur and returns its record.
func (l *load) closedPhase(dur time.Duration, traced bool) (*phaseRun, error) {
	ph := l.newPhase(traced)
	ph.dur = dur
	for range l.conns {
		ph.tokens = append(ph.tokens, make(chan struct{}, window))
	}
	return ph, l.runPhase(ph)
}

// openPhase sends rate·dur frames on a fixed schedule and returns its
// record.
func (l *load) openPhase(rate float64, dur time.Duration, traced bool) (*phaseRun, error) {
	ph := l.newPhase(traced)
	ph.open, ph.rate, ph.dur = true, rate, dur
	ph.total = int(rate * dur.Seconds())
	return ph, l.runPhase(ph)
}

func (l *load) newPhase(traced bool) *phaseRun {
	l.phase++
	ph := &phaseRun{id: l.phase, traced: traced, base: l.base}
	for range l.conns {
		ph.cp = append(ph.cp, &connPhase{ph: ph})
	}
	return ph
}

// runPhase starts every sender, waits for them, then waits until every
// sent frame is answered (or the straggler budget runs out, counting the
// rest lost), and advances the per-user frame counters.
func (l *load) runPhase(ph *phaseRun) error {
	ph.epoch = time.Now()
	for c, lc := range l.conns {
		lc.cur.Store(ph.cp[c])
	}
	var wg sync.WaitGroup
	errs := make([]error, len(l.conns))
	for c, lc := range l.conns {
		wg.Add(1)
		go func(c int, lc *loadConn) {
			defer wg.Done()
			errs[c] = lc.send(ph, ph.cp[c], l.p)
		}(c, lc)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	const stragglers = 20 * time.Second
	deadline := time.Now().Add(stragglers)
	for c, lc := range l.conns {
		cp := ph.cp[c]
		for cp.got.Load() < int64(cp.sent) {
			select {
			case <-lc.done:
				return fmt.Errorf("connection %d receiver: %w", c, lc.rerr)
			default:
			}
			if time.Now().After(deadline) {
				break // the unanswered frames count as lost
			}
			time.Sleep(200 * time.Microsecond)
		}
		lc.cur.Store(nil)
	}
	for c, cp := range ph.cp {
		for n := 0; n < cp.sent; n++ {
			l.base[(n*conns+c)%users]++
		}
	}
	return nil
}

// send is one connection's sender for a phase.
func (lc *loadConn) send(ph *phaseRun, cp *connPhase, p *pool) error {
	flushedUpTo := 0
	flush := func() error {
		if err := lc.cl.Flush(); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
		if ph.traced {
			t := int64(time.Since(ph.epoch))
			for n := flushedUpTo; n < cp.sent; n++ {
				cp.flushed[n] = t
			}
		}
		flushedUpTo = cp.sent
		return nil
	}
	queue := func(n int, due int64) error {
		seq := n*conns + lc.idx
		user, idx := ph.frameOf(seq, p)
		req := p.frames[user][idx].req
		req.FrameID = ph.id<<seqBits | uint64(seq)
		if err := lc.cl.Queue(req); err != nil {
			return fmt.Errorf("queue: %w", err)
		}
		cp.due = append(cp.due, due)
		cp.queued = append(cp.queued, int64(time.Since(ph.epoch)))
		if ph.traced {
			cp.flushed = append(cp.flushed, -1)
		}
		cp.sent = n + 1
		return nil
	}
	if ph.open {
		period := float64(time.Second) / ph.rate
		for n := 0; n*conns+lc.idx < ph.total; n++ {
			due := int64(float64(n*conns+lc.idx) * period)
			if now := int64(time.Since(ph.epoch)); now < due {
				// Caught up: put the backlog on the wire, then wait.
				if cp.sent > flushedUpTo {
					if err := flush(); err != nil {
						return err
					}
				}
				time.Sleep(time.Duration(due - now))
			}
			if err := queue(n, due); err != nil {
				return err
			}
		}
		return flush()
	}
	tokens := ph.tokens[lc.idx]
	for n := 0; time.Since(ph.epoch) < ph.dur; n++ {
		select {
		case tokens <- struct{}{}:
		default:
			// Window full: put the queued frames on the wire and wait.
			if err := flush(); err != nil {
				return err
			}
			select {
			case tokens <- struct{}{}:
			case <-lc.done:
				return fmt.Errorf("receiver exited: %w", lc.rerr)
			}
		}
		if err := queue(n, int64(time.Since(ph.epoch))); err != nil {
			return err
		}
	}
	return flush()
}

// receive reads responses until the connection closes, matching each to
// its sent frame and checking its decisions against the reference.
func (lc *loadConn) receive(p *pool) {
	defer close(lc.done)
	br := bufio.NewReaderSize(lc.nc, 64<<10)
	var buf []byte
	var resp serve.DetectResponse
	for {
		typ, payload, b, err := serve.ReadFrame(br, buf)
		buf = b
		if err != nil {
			if !lc.closing.Load() {
				lc.rerr = err
			}
			return
		}
		cp := lc.cur.Load()
		if cp == nil {
			lc.rerr = errors.New("response outside any phase")
			return
		}
		ph := cp.ph
		recvAt := int64(time.Since(ph.epoch))
		if typ != serve.MsgResult {
			lc.rerr = serve.ErrType
			return
		}
		if err := resp.Decode(payload); err != nil {
			lc.rerr = fmt.Errorf("decode response: %w", err)
			return
		}
		decAt := int64(-1)
		if ph.traced {
			decAt = int64(time.Since(ph.epoch))
		}
		cp.record(&resp, recvAt, decAt, lc.idx, p)
		if !ph.open {
			select {
			case <-ph.tokens[lc.idx]:
			default:
			}
		}
		cp.got.Add(1)
	}
}

// record files one response under its frame slot.
func (cp *connPhase) record(resp *serve.DetectResponse, recvAt, decAt int64, c int, p *pool) {
	ph := cp.ph
	seq := int(resp.FrameID & (1<<seqBits - 1))
	if resp.FrameID>>seqBits != ph.id || seq%conns != c {
		cp.tally.unmatched++
		return
	}
	n := seq / conns
	for len(cp.status) <= n {
		cp.status = append(cp.status, -1)
		cp.recv = append(cp.recv, -1)
		cp.decoded = append(cp.decoded, -1)
	}
	if cp.status[n] >= 0 {
		cp.tally.duplicate++
		return
	}
	cp.status[n] = int8(resp.Status)
	cp.recv[n] = recvAt
	cp.decoded[n] = decAt
	switch resp.Status {
	case serve.StatusOK:
		cp.tally.ok++
	case serve.StatusExpired:
		cp.tally.expired++
		return
	case serve.StatusOverloaded:
		cp.tally.overloaded++
		return
	case serve.StatusDraining:
		cp.tally.draining++
		return
	default:
		cp.tally.invalid++
		return
	}
	user, idx := ph.frameOf(seq, p)
	f := &p.frames[user][idx]
	if resp.ServedNPE != 0 {
		cp.degraded = append(cp.degraded, degradedResp{user: user, idx: idx, npe: resp.ServedNPE,
			decisions: append([]uint16(nil), resp.Decisions...)})
	} else if !slices.Equal(resp.Decisions, f.ref) {
		cp.tally.mismatch++
	}
	if len(resp.Decisions) == len(f.tx) {
		for i, d := range resp.Decisions {
			if d != f.tx[i] {
				cp.tally.symErr++
			}
		}
		cp.tally.symTot += int64(len(f.tx))
	}
}

// summary is a phase's client-side outcome.
type summary struct {
	attempted int
	tally     tally
	okAt      []int64   // receipt times of StatusOK responses, ns since the epoch
	due       []int64   // open loop: due time of each frame, ns since the epoch
	lat       []float64 // open loop: due → response, ms, +Inf for a frame not answered OK
	lag       []float64 // open loop: due → queued, ms
	degraded  []degradedResp
}

func (ph *phaseRun) summarize() summary {
	var s summary
	for _, cp := range ph.cp {
		s.attempted += cp.sent
		s.tally.add(cp.tally)
		s.degraded = append(s.degraded, cp.degraded...)
		// A response whose slot lies past the sent count matched no frame.
		for n := cp.sent; n < len(cp.status); n++ {
			if cp.status[n] >= 0 {
				s.tally.unmatched++
			}
		}
		for n := 0; n < cp.sent; n++ {
			if n >= len(cp.status) || cp.status[n] < 0 {
				s.tally.lost++
			}
			ok := n < len(cp.status) && cp.status[n] == int8(serve.StatusOK)
			if ok {
				s.okAt = append(s.okAt, cp.recv[n])
			}
			if !ph.open {
				continue
			}
			l := math.Inf(1)
			if ok {
				l = float64(cp.recv[n]-cp.due[n]) / 1e6
			}
			s.lat = append(s.lat, l)
			s.due = append(s.due, cp.due[n])
			s.lag = append(s.lag, float64(cp.queued[n]-cp.due[n])/1e6)
		}
	}
	return s
}
