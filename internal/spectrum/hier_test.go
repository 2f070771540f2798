package spectrum

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tagspin/tagspin/internal/geom"
)

// randReader draws a reader position at a workable range from the disk.
func randReader(rng *rand.Rand, flat bool) geom.Vec3 {
	az := rng.Float64() * 2 * math.Pi
	r := 1.2 + rng.Float64()*2.5
	z := 0.0
	if !flat {
		z = rng.Float64()*2 - 1
	}
	return geom.V3(r*math.Cos(az), r*math.Sin(az), z)
}

// TestPeakCaptureBound is the tentpole property test: across randomized 3D
// KindQ sessions the hierarchical search's refined peak must equal the
// Dense oracle's bit for bit — the Lipschitz retention threshold provably
// keeps the dense argmax cell in the evaluated set at every level
// (DESIGN.md §11 derives the bound).
func TestPeakCaptureBound(t *testing.T) {
	p := testParams()
	dense := SearchOptions{Dense: true}

	t.Run("3D", func(t *testing.T) {
		t.Run("Q", func(t *testing.T) {
			rng := rand.New(rand.NewSource(200 + int64(KindQ)))
			for trial := 0; trial < 40; trial++ {
				snaps := synth3D(p, randReader(rng, false), 24+rng.Intn(40), rng.Float64()*0.15, rng)
				ev, err := NewEvaluator(snaps, p, KindQ)
				if err != nil {
					t.Fatal(err)
				}
				want := FindPeak3DEval(ev, dense)
				got := FindPeak3DEval(ev, SearchOptions{})
				if got != want {
					t.Fatalf("trial %d: hierarchical %+v != dense %+v", trial, got, want)
				}
			}
		})
	})
}

// TestHierarchicalDefaultOn3D pins the routing: zero-valued SearchOptions
// on a KindQ evaluator take the hierarchical path for the 3D coarse scan
// and still match the Dense oracle bit for bit — on the default grid and
// on a single polar row (CoarsePolarStep above π), the scanner's
// azimuth-only lattice.
func TestHierarchicalDefaultOn3D(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	p := testParams()
	snaps := synth3D(p, geom.V3(-2.1, 0.7, 0.9), 60, 0.05, rng)
	ev, err := NewEvaluator(snaps, p, KindQ)
	if err != nil {
		t.Fatal(err)
	}
	for _, polStep := range []float64{0, 4} {
		ResetSearchStats()
		got := FindPeak3DEval(ev, SearchOptions{CoarsePolarStep: polStep})
		if st := SearchStatsSnapshot(); st.Hier3D != 1 {
			t.Fatalf("polar step %v: default 3D search skipped the hierarchical route: %+v", polStep, st)
		}
		want := FindPeak3DEval(ev, SearchOptions{CoarsePolarStep: polStep, Dense: true})
		if got != want {
			t.Fatalf("polar step %v: default %+v != dense %+v", polStep, got, want)
		}
	}
}

// TestHierLevels pins the level chooser's guard rails: degenerate Lipschitz
// constants and tiny grids must fall back to level 0 (dense), and the
// default grids must engage the hierarchy.
func TestHierLevels(t *testing.T) {
	lf := 3.85 // testbed aperture scale 4πr/λ
	if got := hierLevels(0, 0.0087, 720, 1); got != 0 {
		t.Fatalf("zero Lipschitz constant: level %d, want 0", got)
	}
	if got := hierLevels(lf, 0.0087, 24, 1); got != 0 {
		t.Fatalf("tiny grid: level %d, want 0", got)
	}
	if got := hierLevels(lf, geom.Radians(0.5), 720, 1); got < 2 {
		t.Fatalf("default 2D grid: level %d, want >= 2", got)
	}
	if got := hierLevels(lf, geom.Radians(2)+geom.Radians(2), 180, 91); got < 1 {
		t.Fatalf("default 3D grid: level %d, want >= 1", got)
	}
}

// TestLatticeRows pins the polar lattice construction: the last row is a
// member at every level so the clamped boundary stays covered, and level 0
// is the full row set.
func TestLatticeRows(t *testing.T) {
	rows := latticeRows(91, 1)
	if rows[0] != 0 || rows[len(rows)-1] != 90 {
		t.Fatalf("level 1 rows misses an endpoint: %v", rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i] <= rows[i-1] {
			t.Fatalf("rows not strictly ascending: %v", rows)
		}
		if rows[i]-rows[i-1] > 2 {
			t.Fatalf("level 1 gap exceeds 2 rows: %v", rows)
		}
	}
	if got := latticeRows(5, 0); len(got) != 5 {
		t.Fatalf("level 0 should keep every row, got %v", got)
	}
	if got := latticeRows(1, 3); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-row grid: %v", got)
	}
}
