package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/estimate"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spectrum"
)

// replayLocator is a default locator for the workload's backend, as
// locsrv.New builds it.
func replayLocator(wl workload) *core.Locator {
	loc := core.NewLocator(core.Config{})
	if wl.backend == "ml" {
		loc = loc.WithEstimator(estimate.NewML(estimate.Config{}))
	}
	return loc
}

// wireKey finds the wire answer a capture produced.
type wireKey struct {
	req  uint64
	addr string
}

// checkReplays re-runs the batch pipeline on captured sessions and
// compares each position with the streamed wire answer bit for bit, as
// locsrv documents streamed == batch. It returns the number of sessions
// compared and the first mismatch, if any.
func checkReplays(e *env, caps []capture, recs []record, limit int) (int, error) {
	wire := map[wireKey][3]float64{}
	for _, r := range recs {
		for _, it := range r.items {
			if it.ok {
				wire[wireKey{r.req, e.readers[it.reader].addr}] = it.pos
			}
		}
	}
	loc := replayLocator(e.wl)
	checked := 0
	for _, c := range caps {
		if checked == limit {
			break
		}
		want, ok := wire[wireKey{c.req, c.addr}]
		if !ok {
			continue
		}
		var got [3]float64
		if e.wl.mode == "3d" {
			res, err := loc.Locate3D(e.world.registered, c.obs)
			if err != nil {
				return checked, fmt.Errorf("replay of %s: %w", c.addr, err)
			}
			got = [3]float64{res.Position.X, res.Position.Y, res.Position.Z}
		} else {
			res, err := loc.Locate2D(e.world.registered, c.obs)
			if err != nil {
				return checked, fmt.Errorf("replay of %s: %w", c.addr, err)
			}
			got = [3]float64{res.Position.X, res.Position.Y, 0}
		}
		checked++
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return checked, fmt.Errorf("replay of %s: batch position %v differs from wire %v", c.addr, got, want)
			}
		}
	}
	return checked, nil
}

// sessionSnaps returns the first registered tag's snapshots of a capture,
// time-sorted, as the pipeline selects them on the worlds' single channel.
func sessionSnaps(e *env, c capture) (core.SpinningTag, []phase.Snapshot) {
	tag := e.world.registered[0]
	snaps := append([]phase.Snapshot(nil), c.obs[tag.EPC]...)
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Time < snaps[j].Time })
	return tag, snaps
}

// timeIt returns the median of reps timings of fn, in ns.
func timeIt(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := clock()
		fn()
		ts[i] = float64(clock() - t0)
	}
	return median(ts)
}

// replayCosts times the spectrum layer's public entry points on captured
// sessions, one call at a time on an otherwise idle process.
func replayCosts(e *env, caps []capture, sessions int) (map[string]metric, error) {
	var opts spectrum.SearchOptions
	var newEval, q2, r2, p3, add2, add3, peakAcc []float64
	for i, c := range caps {
		if i == sessions {
			break
		}
		tag, snaps := sessionSnaps(e, c)
		if len(snaps) == 0 {
			continue
		}
		params := spectrum.Params{Disk: tag.Disk}
		var err error
		newEval = append(newEval, timeIt(9, func() {
			_, err = spectrum.NewEvaluator(snaps, params, spectrum.KindR)
		}))
		if err != nil {
			return nil, err
		}
		evQ, err := spectrum.NewEvaluator(snaps, params, spectrum.KindQ)
		if err != nil {
			return nil, err
		}
		evR, err := spectrum.NewEvaluator(snaps, params, spectrum.KindR)
		if err != nil {
			return nil, err
		}
		q2 = append(q2, timeIt(9, func() { spectrum.FindPeak2DEval(evQ, opts) }))
		r2 = append(r2, timeIt(9, func() { spectrum.FindPeak2DEval(evR, opts) }))
		p3 = append(p3, timeIt(1, func() { spectrum.FindPeak3DEval(evR, opts) }))
		acc2, err := spectrum.NewAccumulator2D(params, spectrum.KindQ, opts)
		if err != nil {
			return nil, err
		}
		acc3, err := spectrum.NewAccumulator3D(params, spectrum.KindQ, opts)
		if err != nil {
			return nil, err
		}
		for _, a := range []struct {
			acc *spectrum.Accumulator
			out *[]float64
		}{{acc2, &add2}, {acc3, &add3}} {
			t0 := clock()
			for _, s := range snaps {
				if err := a.acc.Add(s); err != nil {
					return nil, err
				}
			}
			*a.out = append(*a.out, float64(clock()-t0)/float64(len(snaps)))
		}
		peakAcc = append(peakAcc, timeIt(1, func() { _, _, err = acc2.FindPeak2D() }))
		if err != nil {
			return nil, err
		}
	}
	return map[string]metric{
		"spectrum.new_evaluator_us":         {median(newEval) / 1e3, "us"},
		"spectrum.peak2d_q_us":              {median(q2) / 1e3, "us"},
		"spectrum.peak2d_r_us":              {median(r2) / 1e3, "us"},
		"spectrum.peak3d_ms":                {median(p3) / 1e6, "ms"},
		"spectrum.accum_add_2d_us_per_snap": {median(add2) / 1e3, "us"},
		"spectrum.accum_add_3d_us_per_snap": {median(add3) / 1e3, "us"},
		"spectrum.accum_peak_2d_us":         {median(peakAcc) / 1e3, "us"},
	}, nil
}
