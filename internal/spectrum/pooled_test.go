package spectrum

import (
	"math"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/mathx"
	"github.com/tagspin/tagspin/internal/sched"
)

// withPoolWidth runs fn with the shared compute pool pinned to the given
// width, restoring the previous width afterwards. Width 1 forces the
// evaluator's inline serial path; wider forces the pooled path.
func withPoolWidth(t *testing.T, workers int, fn func()) {
	t.Helper()
	old := sched.Workers()
	sched.SetWorkers(workers)
	defer sched.SetWorkers(old)
	fn()
}

// TestPooledScanEquivalence is the pool-path bit-exactness pin required by
// the shared-pool migration: Profile2DInto, Profile3D, FindPeak2DEval and
// FindPeak3DEval must produce bit-identical results whether scans run
// inline (1-worker pool → serial fallback) or on the shared pool, for both
// trig modes. Run under -race at GOMAXPROCS=1 and 4 by `make check`.
func TestPooledScanEquivalence(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-2.0, 1.1, 0.5), 120, 0.8, 0, nil)
	angles := UniformAngles(407) // odd count → partial final chunk
	pol := mathx.Linspace(-math.Pi/2, math.Pi/2, 17)

	for _, kind := range []Kind{KindQ, KindR} {
		for _, fast := range []bool{false, true} {
			var opts []EvalOption
			if fast {
				opts = append(opts, WithFastTrig())
			}
			ev, err := NewEvaluator(snaps, p, kind, opts...)
			if err != nil {
				t.Fatal(err)
			}

			var ser2, pool2 Profile
			var ser3, pool3 Profile3D
			var serAz, serPow, poolAz, poolPow float64
			var ser3D, pool3D Peak3D
			withPoolWidth(t, 1, func() {
				ev.Profile2DInto(&ser2, angles)
				ser3 = ev.Profile3D(angles[:96], pol)
				serAz, serPow = FindPeak2DEval(ev, SearchOptions{})
				ser3D = FindPeak3DEval(ev, SearchOptions{})
			})
			withPoolWidth(t, 4, func() {
				ev.Profile2DInto(&pool2, angles)
				pool3 = ev.Profile3D(angles[:96], pol)
				poolAz, poolPow = FindPeak2DEval(ev, SearchOptions{})
				pool3D = FindPeak3DEval(ev, SearchOptions{})
			})

			tag := kindTag(kind, fast)
			for i := range ser2.Power {
				if pool2.Power[i] != ser2.Power[i] {
					t.Fatalf("%s: Profile2DInto diverged at %d: %v != %v",
						tag, i, pool2.Power[i], ser2.Power[i])
				}
			}
			for i := range ser3.Power {
				for j := range ser3.Power[i] {
					if pool3.Power[i][j] != ser3.Power[i][j] {
						t.Fatalf("%s: Profile3D diverged at %d,%d", tag, i, j)
					}
				}
			}
			if poolAz != serAz || poolPow != serPow {
				t.Fatalf("%s: FindPeak2DEval pooled (%v,%v) != serial (%v,%v)",
					tag, poolAz, poolPow, serAz, serPow)
			}
			if pool3D != ser3D {
				t.Fatalf("%s: FindPeak3DEval pooled %+v != serial %+v", tag, pool3D, ser3D)
			}
		}
	}
}

// TestPooledCoarseSynthRowRBitExact pins the pooled harmonic-R coarse row:
// coarseSynthRowR must write exactly the values of one serial synthRowR
// call over the whole row, with the pool pinned to one worker (inline
// path) and widened to four, in both trig modes and literal/robust
// reference modes. The odd cell count leaves a partial final chunk.
func TestPooledCoarseSynthRowRBitExact(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-2.0, 1.1, 0.5), 120, 0.8, 0, nil)
	const n = 407
	step := 2 * math.Pi / n
	for _, literal := range []bool{false, true} {
		for _, fast := range []bool{false, true} {
			var opts []EvalOption
			if fast {
				opts = append(opts, WithFastTrig())
			}
			pp := p
			pp.LiteralReference = literal
			ev, err := NewEvaluator(snaps, pp, KindR, opts...)
			if err != nil {
				t.Fatal(err)
			}
			hs := harmPool.Get().(*harmonicScratch)
			foldTermsHarmonic(hs, ev.coarse, 1)
			sc := ev.getScratch()
			ev.fillUniformTrig(sc, 0, n, step)
			sinPhi := append([]float64(nil), sc.sinPhi[:n]...)
			cosPhi := append([]float64(nil), sc.cosPhi[:n]...)
			want := make([]float64, n)
			ev.synthRowR(ev.coarse, &hs.coeffs, sc, 1, sinPhi, cosPhi, want, true)
			ev.putScratch(sc)
			for _, width := range []int{1, 4} {
				got := make([]float64, n)
				withPoolWidth(t, width, func() {
					ev.coarseSynthRowR(ev.coarse, &hs.coeffs, sinPhi, cosPhi, got)
				})
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%s literal=%v width=%d: cell %d = %v, serial %v",
							kindTag(KindR, fast), literal, width, k, got[k], want[k])
					}
				}
			}
			harmPool.Put(hs)
		}
	}
}

func kindTag(kind Kind, fast bool) string {
	s := "Q"
	if kind == KindR {
		s = "R"
	}
	if fast {
		return s + "/fast"
	}
	return s + "/exact"
}

// TestPooledConcurrentScansEquivalence runs many evaluators' scans on the
// shared pool at once — the serving-path shape where jobs interleave at
// chunk granularity — and checks every result against the serial reference.
// Under -race this is the cross-job interference test.
func TestPooledConcurrentScansEquivalence(t *testing.T) {
	p := testParams()
	snaps := synth(p, geom.V3(-1.7, 0.9, 0), 100, 1.1, 0, nil)
	ev, err := NewEvaluator(snaps, p, KindR, WithFastTrig())
	if err != nil {
		t.Fatal(err)
	}
	wantAz, wantPow := 0.0, 0.0
	withPoolWidth(t, 1, func() { wantAz, wantPow = FindPeak2DEval(ev, SearchOptions{}) })

	withPoolWidth(t, 2, func() {
		const goroutines = 6
		done := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				for round := 0; round < 10; round++ {
					if az, pow := FindPeak2DEval(ev, SearchOptions{}); az != wantAz || pow != wantPow {
						done <- &equivErr{az, pow, wantAz, wantPow}
						return
					}
				}
				done <- nil
			}()
		}
		for g := 0; g < goroutines; g++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	})
}

type equivErr struct{ az, pow, wantAz, wantPow float64 }

func (e *equivErr) Error() string {
	return "concurrent pooled peak diverged from serial reference"
}
