package core

import (
	"math"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/constellation"
)

func TestDetectSoftAgreesWithHardDecision(t *testing.T) {
	rng := newRng(401)
	cons := constellation.MustNew(16)
	fc := New(cons, Options{NPE: 32})
	sigma2 := channel.Sigma2FromSNRdB(14, 1)
	for trial := 0; trial < 30; trial++ {
		h := channel.Rayleigh(rng, 6, 6)
		if err := fc.Prepare(h, sigma2); err != nil {
			t.Fatal(err)
		}
		s := randSymbols(rng, cons, 6)
		y := transmit(rng, h, cons, s, sigma2)
		hard := fc.Detect(y)
		soft, llrs := fc.DetectSoft(y, sigma2)
		if !equalInts(hard, soft) {
			t.Fatalf("trial %d: hard %v vs soft-best %v", trial, hard, soft)
		}
		if len(llrs) != 6 {
			t.Fatalf("llrs for %d streams", len(llrs))
		}
		// The LLR signs must match the best symbol's bits.
		bits := make([]uint8, cons.BitsPerSymbol())
		for u := range llrs {
			cons.SymbolBits(soft[u], bits)
			for b, l := range llrs[u] {
				if bits[b] == 0 && l < 0 {
					t.Fatalf("stream %d bit %d: best says 0, LLR %v", u, b, l)
				}
				if bits[b] == 1 && l > 0 {
					t.Fatalf("stream %d bit %d: best says 1, LLR %v", u, b, l)
				}
			}
		}
	}
}

func TestDetectSoftLLRMagnitudes(t *testing.T) {
	// At very high SNR the LLRs must be confidently large (most clamp);
	// at low SNR many must be small.
	rng := newRng(402)
	cons := constellation.MustNew(16)
	fc := New(cons, Options{NPE: 64})

	avgAbs := func(snr float64) float64 {
		sigma2 := channel.Sigma2FromSNRdB(snr, 1)
		var sum float64
		var n int
		for trial := 0; trial < 20; trial++ {
			h := channel.Rayleigh(rng, 4, 4)
			if err := fc.Prepare(h, sigma2); err != nil {
				t.Fatal(err)
			}
			s := randSymbols(rng, cons, 4)
			y := transmit(rng, h, cons, s, sigma2)
			_, llrs := fc.DetectSoft(y, sigma2)
			for _, row := range llrs {
				for _, l := range row {
					sum += math.Abs(l)
					n++
				}
			}
		}
		return sum / float64(n)
	}
	high := avgAbs(30)
	low := avgAbs(5)
	if high <= low {
		t.Fatalf("LLR magnitude not increasing with SNR: %v vs %v", high, low)
	}
	if high < maxLLR/2 {
		t.Fatalf("high-SNR LLRs suspiciously small: %v", high)
	}
}

func TestDetectSoftClamping(t *testing.T) {
	rng := newRng(403)
	cons := constellation.MustNew(16)
	fc := New(cons, Options{NPE: 4}) // tiny list → many one-sided bits
	sigma2 := channel.Sigma2FromSNRdB(12, 1)
	h := channel.Rayleigh(rng, 4, 4)
	if err := fc.Prepare(h, sigma2); err != nil {
		t.Fatal(err)
	}
	s := randSymbols(rng, cons, 4)
	y := transmit(rng, h, cons, s, sigma2)
	_, llrs := fc.DetectSoft(y, sigma2)
	for _, row := range llrs {
		for _, l := range row {
			if math.Abs(l) > maxLLR+1e-12 {
				t.Fatalf("LLR %v beyond clamp", l)
			}
			if math.IsNaN(l) || math.IsInf(l, 0) {
				t.Fatalf("non-finite LLR %v", l)
			}
		}
	}
}

// oracleSoft is max-log-MAP over every selected path, each walked from
// the root by the per-path oracle: the candidate list DetectSoft must
// build, whatever bound the hard descent uses. With no survivor the
// list is the fallback decision at distance 0.
func oracleSoft(d *FlexCore, y []complex128, sigma2 float64) (best []int, llrs [][]float64) {
	n, bits := d.n, d.cons.BitsPerSymbol()
	yb := d.qr.Ybar(y)
	idx, sym := make([]int, n), make([]complex128, n)
	type cand struct {
		idx []int // factored order
		ped float64
	}
	var cands []cand
	for _, p := range d.paths {
		if ped, ok := oraclePath(d, yb, p.Ranks, idx, sym); ok {
			cands = append(cands, cand{append([]int(nil), idx...), ped})
		}
	}
	if len(cands) == 0 {
		dec := oracleDetect(d, y).dec
		fb := make([]int, n)
		for k, src := range d.qr.Perm {
			fb[k] = dec[src]
		}
		cands = append(cands, cand{fb, 0})
	}
	llrs = make([][]float64, n)
	bitBuf := make([]uint8, bits)
	for k, src := range d.qr.Perm {
		llrs[src] = make([]float64, bits)
		for b := range llrs[src] {
			min0, min1 := math.Inf(1), math.Inf(1)
			for _, c := range cands {
				d.cons.SymbolBits(c.idx[k], bitBuf)
				if bitBuf[b] == 0 {
					min0 = math.Min(min0, c.ped)
				} else {
					min1 = math.Min(min1, c.ped)
				}
			}
			switch {
			case math.IsInf(min0, 1):
				llrs[src][b] = -maxLLR
			case math.IsInf(min1, 1):
				llrs[src][b] = maxLLR
			default:
				llrs[src][b] = math.Max(-maxLLR, math.Min(maxLLR, (min1-min0)/sigma2))
			}
		}
	}
	win := 0
	for i, c := range cands {
		if c.ped < cands[win].ped {
			win = i
		}
	}
	return d.qr.UnpermuteInts(cands[win].idx), llrs
}

// TestDetectSoftUnbounded pins DetectSoft's LLRs bit for bit to max-log
// LLRs over every selected path, so the hard descent's running-best
// bound can never thin the candidate list: clamped and strict slicing,
// two noise levels, N_PE 16 and 64 on 4×4 16-QAM.
func TestDetectSoftUnbounded(t *testing.T) {
	rng := newRng(404)
	cons := constellation.MustNew(16)
	for _, strict := range []bool{false, true} {
		for _, npe := range []int{16, 64} {
			d := New(cons, Options{NPE: npe, StrictDeactivation: strict})
			defer d.Close()
			for c := 0; c < 40; c++ {
				sigma2 := []float64{0.05, 0.3}[c%2]
				h := channel.Rayleigh(rng, 4, 4)
				if err := d.Prepare(h, sigma2); err != nil {
					t.Fatal(err)
				}
				y := transmit(rng, h, cons, randSymbols(rng, cons, 4), sigma2)
				best, llrs := d.DetectSoft(y, sigma2)
				wantBest, wantLLRs := oracleSoft(d, y, sigma2)
				if !equalInts(best, wantBest) {
					t.Fatalf("%s channel %d: best %v, oracle %v", d.Name(), c, best, wantBest)
				}
				for u := range llrs {
					for b, l := range llrs[u] {
						if math.Float64bits(l) != math.Float64bits(wantLLRs[u][b]) {
							t.Fatalf("%s channel %d stream %d bit %d: LLR %v, oracle %v", d.Name(), c, u, b, l, wantLLRs[u][b])
						}
					}
				}
			}
		}
	}
}
