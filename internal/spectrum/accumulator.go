package spectrum

import (
	"fmt"
	"math"

	"github.com/tagspin/tagspin/internal/phase"
)

// Accumulator collects one spin session's snapshot terms as they arrive and
// finalizes through the batch peak search. Add validates a snapshot and
// appends its term (the first snapshot becomes the session's phase
// reference, exactly like prepare); it does no grid work. FindPeak2D,
// FindPeak3D and the coarse profiles build the batch Evaluator over the
// logged terms and run FindPeak2DEval, FindPeak2DAnglesEval, FindPeak3DEval,
// Profile2D or Profile3D on it, so a streamed answer equals the batch answer
// on the same snapshots by construction.
//
// Why no per-cell fold: the profiles are sums over snapshots, but the batch
// coarse scan scores only a strided subset of at most coarseTermLimit
// snapshots, and the stride depends on the final count. A running per-cell
// sum therefore matches the batch scan only for sessions of at most 64
// snapshots, while a default session carries ~300 per tag. The sub-linear
// routes (harmonic, hierarchical, NUFFT) make the finalize's coarse scan
// cheap enough that folding during collection buys nothing.
//
// An Accumulator is NOT safe for concurrent use: Add and the finalize-side
// calls must run on one goroutine at a time (core.Stream gives it a single
// ingestion worker).
type Accumulator struct {
	params   Params
	kind     Kind
	opts     SearchOptions
	evalOpts []EvalOption
	threeD   bool
	// angles, when non-nil, is the arbitrary 2D candidate grid of
	// NewAccumulator2DAngles; the finalize runs FindPeak2DAnglesEval on it.
	angles []float64

	terms   []snapshotTerm
	ref     phase.Snapshot
	haveRef bool
	ev      *Evaluator // lazily built at finalize, invalidated by Add
}

// NewAccumulator2D builds a streaming accumulator whose finalize runs the
// 2D batch peak search with opts. evalOpts accepts the same options as
// NewEvaluator (WithFastTrig) and is forwarded to the finalize Evaluator.
func NewAccumulator2D(p Params, kind Kind, opts SearchOptions, evalOpts ...EvalOption) (*Accumulator, error) {
	return newAccumulator(p, kind, opts, false, nil, evalOpts)
}

// NewAccumulator2DAngles is NewAccumulator2D over an arbitrary (typically
// non-uniform) 2D candidate grid: FindPeak2D returns FindPeak2DAnglesEval's
// bits and CoarseProfile scans the given angles. The grid must be non-empty.
func NewAccumulator2DAngles(p Params, kind Kind, angles []float64, opts SearchOptions, evalOpts ...EvalOption) (*Accumulator, error) {
	if len(angles) == 0 {
		return nil, fmt.Errorf("spectrum: angle-grid accumulator needs a non-empty grid")
	}
	return newAccumulator(p, kind, opts, false, append([]float64(nil), angles...), evalOpts)
}

// NewAccumulator3D is NewAccumulator2D for the az × polar batch search.
func NewAccumulator3D(p Params, kind Kind, opts SearchOptions, evalOpts ...EvalOption) (*Accumulator, error) {
	return newAccumulator(p, kind, opts, true, nil, evalOpts)
}

func newAccumulator(p Params, kind Kind, opts SearchOptions, threeD bool, angles []float64, evalOpts []EvalOption) (*Accumulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Accumulator{
		params:   p,
		kind:     kind,
		opts:     opts,
		evalOpts: evalOpts,
		threeD:   threeD,
		angles:   angles,
	}, nil
}

// Snapshots returns how many snapshots have been added.
func (a *Accumulator) Snapshots() int { return len(a.terms) }

// Add appends one snapshot's term. The first snapshot becomes the session's
// phase reference, exactly like prepare. Snapshots must arrive in the order
// the batch path would sort them (ascending time) for the finalize to match
// batch bit for bit — the caller owns that guarantee (core.Stream checks it
// and falls back to batch otherwise).
func (a *Accumulator) Add(s phase.Snapshot) error {
	if !a.haveRef {
		a.ref = s
		a.haveRef = true
	}
	t, err := makeTerm(s, a.ref, a.params)
	if err != nil {
		return fmt.Errorf("spectrum: snapshot %d %w", len(a.terms), err)
	}
	a.ev = nil
	a.terms = append(a.terms, t)
	return nil
}

// Evaluator returns the batch engine over the added snapshots. It is
// (re)built lazily after the last Add.
func (a *Accumulator) Evaluator() (*Evaluator, error) {
	if len(a.terms) < 2 {
		return nil, fmt.Errorf("spectrum: need ≥2 snapshots, have %d", len(a.terms))
	}
	if a.ev == nil {
		a.ev = newEvaluatorFromTerms(a.terms, a.params, a.kind, a.evalOpts...)
	}
	return a.ev, nil
}

// CoarseProfile returns the 2D profile over the coarse grid the batch
// search scans: the caller's angles in angles mode, else φ_i = i·step. The
// values are Evaluator.Profile2D's over the added snapshots.
func (a *Accumulator) CoarseProfile() (Profile, error) {
	if a.threeD {
		return Profile{}, fmt.Errorf("spectrum: 3D accumulator has no 2D profile")
	}
	ev, err := a.Evaluator()
	if err != nil {
		return Profile{}, err
	}
	angles := a.angles
	if angles == nil {
		step := a.opts.coarseStep()
		angles = make([]float64, gridSteps(2*math.Pi, step))
		for i := range angles {
			angles[i] = float64(i) * step
		}
	}
	return ev.Profile2D(angles), nil
}

// CoarseProfile3D is CoarseProfile over the az × polar grid of the batch 3D
// search.
func (a *Accumulator) CoarseProfile3D() (Profile3D, error) {
	if !a.threeD {
		return Profile3D{}, fmt.Errorf("spectrum: 2D accumulator has no 3D profile")
	}
	ev, err := a.Evaluator()
	if err != nil {
		return Profile3D{}, err
	}
	azStep, polStep, nAz, nPol := a.opts.coarseGrid3D()
	azimuths := make([]float64, nAz)
	for i := range azimuths {
		azimuths[i] = float64(i) * azStep
	}
	polars := make([]float64, nPol)
	for i := range polars {
		polars[i] = -math.Pi/2 + float64(i)*polStep
	}
	return ev.Profile3D(azimuths, polars), nil
}

// FindPeak2D finalizes the session into the refined 2D peak: the batch
// FindPeak2DEval (FindPeak2DAnglesEval in angles mode) on the added
// snapshots.
func (a *Accumulator) FindPeak2D() (float64, float64, error) {
	if a.threeD {
		return 0, 0, fmt.Errorf("spectrum: 3D accumulator cannot run a 2D peak search")
	}
	ev, err := a.Evaluator()
	if err != nil {
		return 0, 0, err
	}
	if a.angles != nil {
		az, pow := FindPeak2DAnglesEval(ev, a.angles, a.opts)
		return az, pow, nil
	}
	az, pow := FindPeak2DEval(ev, a.opts)
	return az, pow, nil
}

// FindPeak3D is FindPeak2D for the batch FindPeak3DEval.
func (a *Accumulator) FindPeak3D() (Peak3D, error) {
	if !a.threeD {
		return Peak3D{}, fmt.Errorf("spectrum: 2D accumulator cannot run a 3D peak search")
	}
	ev, err := a.Evaluator()
	if err != nil {
		return Peak3D{}, err
	}
	return FindPeak3DEval(ev, a.opts), nil
}
