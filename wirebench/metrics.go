package main

import (
	"math"
	"sort"

	"github.com/tagspin/tagspin/internal/coord"
	"github.com/tagspin/tagspin/internal/locsrv"
	"github.com/tagspin/tagspin/internal/sched"
	"github.com/tagspin/tagspin/internal/spectrum"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailLadder lists the percentiles a workload may fix as its tail.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest ladder percentile that leaves at least
// minBeyond of n samples beyond it, or 0 when none does.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyondCount(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// beyondCount is how many of n samples lie strictly beyond percentile p.
func beyondCount(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)/100))
}

// quantile returns the p-th percentile of xs by linear interpolation
// between order statistics; xs need not be sorted. NaN when empty.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 50) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters is one snapshot of every layer's public counters.
type counters struct {
	search spectrum.SearchStats
	plan   spectrum.PlanCacheStats
	pool   sched.Stats
	server locsrv.Stats
	coord  coord.Stats
}

func snapshotCounters(e *env) counters {
	c := counters{
		search: spectrum.SearchStatsSnapshot(),
		plan:   spectrum.PlanCacheSnapshot(),
		pool:   sched.PoolStats(),
		server: e.serverStats(),
	}
	if e.coord != nil {
		c.coord = e.coord.Stats()
	}
	return c
}

// tally summarizes a phase's records.
type tally struct {
	attempted, failed, located int
	latencyMs, postMs, errCm   []float64
	firstFailure               string
}

func tallyPhase(ph loadPhase) tally {
	var t tally
	for _, r := range ph.records {
		for _, it := range r.items {
			t.attempted++
			if it.hasPos {
				t.errCm = append(t.errCm, it.errM*100)
			}
			if !it.ok {
				t.failed++
				if t.firstFailure == "" {
					t.firstFailure = it.why
				}
				continue
			}
			t.located++
		}
		if r.ok {
			t.latencyMs = append(t.latencyMs, float64(r.end-r.start)/1e6)
			t.postMs = append(t.postMs, float64(r.post)/1e6)
		}
	}
	return t
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(wl workload, ph loadPhase, t tally, setupS float64) map[string]metric {
	located := float64(t.located)
	return map[string]metric{
		"locates_per_s":        {located / (float64(ph.wallNs) / 1e9), "1/s"},
		"locate_p50_ms":        {median(t.latencyMs), "ms"},
		"locate_tail_ms":       {quantile(t.latencyMs, wl.tailPct), "ms"},
		"post_session_p50_ms":  {median(t.postMs), "ms"},
		"post_session_tail_ms": {quantile(t.postMs, wl.tailPct), "ms"},
		"cpu_ms_per_locate":    {ratio(float64(ph.cpuNs)/1e6, located), "ms"},
		"err_p50_cm":           {median(t.errCm), "cm"},
		"err_p90_cm":           {quantile(t.errCm, 90), "cm"},
		"heap_peak_mb":         {float64(ph.heapPeak) / (1 << 20), "MB"},
		"setup_s":              {setupS, "s"},
	}
}

// routeNames are the spectrum routes reported per locate.
var routeNames = []string{"HarmonicQ2D", "HarmonicR2D", "Hier3D", "HierSynth", "Dense2D", "Dense3D", "StreamSynth"}

func routeCount(s spectrum.SearchStats, name string) uint64 {
	switch name {
	case "HarmonicQ2D":
		return s.HarmonicQ2D
	case "HarmonicR2D":
		return s.HarmonicR2D
	case "Hier3D":
		return s.Hier3D
	case "HierSynth":
		return s.HierSynth
	case "Dense2D":
		return s.Dense2D
	case "Dense3D":
		return s.Dense3D
	case "StreamSynth":
		return s.StreamSynth
	}
	return 0
}

// counterMetrics turns a phase's counter deltas into per-layer metrics;
// per-locate ratios take the phase's located items as their base.
func counterMetrics(ph loadPhase, located int) map[string]metric {
	b, a := ph.before, ph.after
	n := float64(located)
	m := map[string]metric{}
	for _, name := range routeNames {
		m["spectrum.route."+name+"_per_locate"] = metric{ratio(float64(routeCount(a.search, name)-routeCount(b.search, name)), n), "count"}
	}
	hits := float64(a.plan.Hits - b.plan.Hits)
	fills := hits + float64(a.plan.Misses-b.plan.Misses)
	m["spectrum.plancache_hit_ratio"] = metric{ratio(hits, fills), "1"}
	m["spectrum.plancache_fills"] = metric{fills, "count"}
	m["spectrum.plancache_nonuniform_miss"] = metric{float64(a.plan.NonUniformMiss - b.plan.NonUniformMiss), "count"}
	m["sched.jobs_per_locate"] = metric{ratio(float64(a.pool.JobsRun-b.pool.JobsRun), n), "count"}
	m["sched.chunks_per_locate"] = metric{ratio(float64(a.pool.ChunksRun-b.pool.ChunksRun), n), "count"}
	finalizes := float64(a.server.FinalizeCount - b.server.FinalizeCount)
	m["locsrv.finalize_mean_ms"] = metric{ratio(float64(a.server.FinalizeNsTotal-b.server.FinalizeNsTotal)/1e6, finalizes), "ms"}
	m["locsrv.max_accum_backlog"] = metric{float64(a.server.MaxAccumBacklog), "count"}
	m["locsrv.stream_fallback_tags_per_locate"] = metric{ratio(float64(a.server.StreamFallbackTags-b.server.StreamFallbackTags), n), "count"}
	m["locsrv.admission_rejects"] = metric{float64(a.server.AdmissionRejects - b.server.AdmissionRejects), "count"}
	m["coord.reroutes"] = metric{float64(a.coord.Rerouted - b.coord.Rerouted), "count"}
	m["coord.sheds"] = metric{float64(a.coord.ShedsAbsorbed - b.coord.ShedsAbsorbed), "count"}
	m["llrp.bytes_per_session"] = metric{ratio(float64(ph.readerBytes), float64(ph.readerSessns)), "B"}
	return m
}

// spanMetrics turns the traced phase's spans and decorator counters into
// per-layer metrics.
func spanMetrics(tr *tracer, located int) map[string]metric {
	spans := tr.snapshotSpans()
	n := float64(located)
	collects := float64(tr.collects.Load())
	return map[string]metric{
		"client.collect_p50_ms":           {median(spanDurations(spans, "client.collect")), "ms"},
		"client.attempts_per_collect":     {ratio(float64(tr.attempts.Load()), collects), "count"},
		"client.sink_block_ms_per_locate": {ratio(float64(tr.sinkNs.Load())/1e6, n), "ms"},
		"core.passes_per_locate":          {ratio(float64(tr.solves.Load()), n), "count"},
		"core.pass_spectrum_p50_ms":       {median(spanDurations(spans, "core.pass")), "ms"},
		"locsrv.handler_p50_ms":           {median(spanDurations(spans, "locsrv.handler")), "ms"},
		"estimate.solve_p50_ms":           {median(spanDurations(spans, "estimate.solve")), "ms"},
		"coord.hop_p50_ms":                {median(hopDurations(spans)), "ms"},
		"trace.unattributed_solves":       {float64(tr.unattrib.Load()), "count"},
	}
}
