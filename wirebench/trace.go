package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/tagspin/tagspin/internal/client"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/tags"
)

// Trace headers carry the request ID and the caller's span across HTTP
// hops: client → front handler → (coordinator transport) → replica.
const (
	headerReq    = "X-Wirebench-Req"
	headerParent = "X-Wirebench-Parent"
)

// Span is one timed call at a layer boundary. Times are clock()
// nanoseconds; every span of one request carries its Req.
type Span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Note   string `json:"note,omitempty"`
}

// Dur is the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

type traceKey struct{}

// traceCtx is what a handler wrapper hands down the request context: the
// request ID and the span the next layer's spans hang under.
type traceCtx struct{ req, span uint64 }

func traceFrom(ctx context.Context) traceCtx {
	tc, _ := ctx.Value(traceKey{}).(traceCtx)
	return tc
}

// session is one collected reader session awaiting its solve passes. The
// Estimator seam carries no request identity, so solve calls find their
// session by a fingerprint of the snapshots they are handed.
type session struct {
	req, parent uint64
	mark        int64 // end of the collect, then of the latest solve
}

// capture is one collected session kept for replay after the traced run.
type capture struct {
	req  uint64
	addr string
	obs  core.Observations
}

// maxCaptures bounds the sessions the traced run keeps for replay.
const maxCaptures = 8

// tracer records spans and layer counters for the traced run. Spans live
// in memory and are written out once the run ends.
type tracer struct {
	nextID atomic.Uint64

	mu       sync.Mutex
	spans    []Span
	sessions map[uint64]*session
	captures []capture

	collects atomic.Int64
	attempts atomic.Int64
	sinkNs   atomic.Int64
	solves   atomic.Int64
	unattrib atomic.Int64 // solve calls no session fingerprint matched
}

func newTracer() *tracer {
	return &tracer{sessions: make(map[uint64]*session)}
}

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) record(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops everything recorded so far (the warm-up), keeping IDs unique.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.captures = nil, nil
	t.sessions = make(map[uint64]*session)
	t.mu.Unlock()
	t.collects.Store(0)
	t.attempts.Store(0)
	t.sinkNs.Store(0)
	t.solves.Store(0)
	t.unattrib.Store(0)
}

// snapshotSpans returns a copy of the recorded spans.
func (t *tracer) snapshotSpans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// capturesSnapshot returns the sessions kept for replay.
func (t *tracer) capturesSnapshot() []capture {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]capture(nil), t.captures...)
}

// handler wraps h in a span named name. The request ID comes from the
// enclosing wrapper's context, else from the trace headers; requests
// without one (the coordinator's health probes) pass through unrecorded.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc := traceFrom(r.Context())
		if tc.req == 0 {
			tc.req, _ = strconv.ParseUint(r.Header.Get(headerReq), 10, 64)
			tc.span, _ = strconv.ParseUint(r.Header.Get(headerParent), 10, 64)
		}
		if tc.req == 0 {
			h.ServeHTTP(w, r)
			return
		}
		id := t.newID()
		start := clock()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), traceKey{}, traceCtx{req: tc.req, span: id})))
		t.record(Span{Req: tc.req, ID: id, Parent: tc.span, Name: name, Start: start, End: clock()})
	})
}

// tracingTransport is the coordinator's outbound transport in the traced
// run: it forwards the trace headers to the replica and spans the hop.
type tracingTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (t *tracer) transport(next http.RoundTripper) http.RoundTripper {
	return &tracingTransport{t: t, next: next}
}

func (tt *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tc := traceFrom(r.Context())
	if tc.req == 0 {
		return tt.next.RoundTrip(r)
	}
	id := tt.t.newID()
	r = r.Clone(r.Context())
	r.Header.Set(headerReq, strconv.FormatUint(tc.req, 10))
	r.Header.Set(headerParent, strconv.FormatUint(id, 10))
	start := clock()
	resp, err := tt.next.RoundTrip(r)
	tt.t.record(Span{Req: tc.req, ID: id, Parent: tc.span, Name: "coord.forward", Start: start, End: clock(), Note: r.URL.Host})
	return resp, err
}

// collect wraps client.CollectRetryStream, the shipped streaming collector:
// it spans the collection, counts start() calls (one per attempt), times
// the report sink (core.Stream.Report), and registers the session so the
// estimator decorator can attribute the solve passes that follow.
func (t *tracer) collect(ctx context.Context, addr string, cfg client.Config, start func() client.ReportFunc) (core.Observations, error) {
	tc := traceFrom(ctx)
	id := t.newID()
	t0 := clock()
	obs, err := client.CollectRetryStream(ctx, addr, cfg, func() client.ReportFunc {
		t.attempts.Add(1)
		sink := start()
		return func(epc tags.EPC, s phase.Snapshot) {
			a := clock()
			sink(epc, s)
			t.sinkNs.Add(clock() - a)
		}
	})
	t1 := clock()
	t.collects.Add(1)
	t.record(Span{Req: tc.req, ID: id, Parent: tc.span, Name: "client.collect", Start: t0, End: t1, Note: addr})
	if err == nil {
		t.mu.Lock()
		t.sessions[fingerprintObs(obs)] = &session{req: tc.req, parent: tc.span, mark: t1}
		if len(t.captures) < maxCaptures {
			t.captures = append(t.captures, capture{req: tc.req, addr: addr, obs: obs})
		}
		t.mu.Unlock()
	}
	return obs, err
}

// snapHash hashes one snapshot's identity within a session: its tag, read
// time and RSSI (which carries per-read noise). Orientation correction
// rewrites phases only, so every solve pass of a session hashes alike.
func snapHash(epc tags.EPC, s phase.Snapshot) uint64 {
	h := fnv.New64a()
	h.Write(epc[:]) //nolint:errcheck // hash writes cannot fail
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(s.Time))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(s.RSSIdBm))
	h.Write(b[:]) //nolint:errcheck // hash writes cannot fail
	return h.Sum64()
}

// fingerprintObs is the order-free session fingerprint of a collection.
func fingerprintObs(obs core.Observations) uint64 {
	var fp uint64
	for epc, snaps := range obs {
		for _, s := range snaps {
			fp += snapHash(epc, s)
		}
	}
	return fp
}

// fingerprintTags is fingerprintObs over the snapshots a solve pass sees.
// The worlds run on one fixed hop channel, so channel selection keeps every
// snapshot and the two fingerprints agree.
func fingerprintTags(tags []core.EstimatorTag) uint64 {
	var fp uint64
	for _, tg := range tags {
		for _, s := range tg.Snaps {
			fp += snapHash(tg.Tag.EPC, s)
		}
	}
	return fp
}

// beginSolve records the pass span that ends at this solve call: the
// per-tag spectrum work since the collect (bootstrap pass) or since the
// previous solve (correction passes).
func (t *tracer) beginSolve(tags []core.EstimatorTag, at int64) *session {
	t.solves.Add(1)
	fp := fingerprintTags(tags)
	t.mu.Lock()
	s := t.sessions[fp]
	t.mu.Unlock()
	if s == nil {
		t.unattrib.Add(1)
		return nil
	}
	t.record(Span{Req: s.req, ID: t.newID(), Parent: s.parent, Name: "core.pass", Start: s.mark, End: at})
	return s
}

func (t *tracer) endSolve(s *session, start, end int64) {
	var req, parent uint64
	if s != nil {
		req, parent = s.req, s.parent
		s.mark = end // solves of one session run on its locate goroutine
	}
	t.record(Span{Req: req, ID: t.newID(), Parent: parent, Name: "estimate.solve", Start: start, End: end})
}

// timedEstimator decorates a core.Estimator with solve spans.
type timedEstimator struct {
	inner core.Estimator
	tr    *tracer
}

func (e *timedEstimator) Name() string { return e.inner.Name() }

func (e *timedEstimator) Solve2D(tags []core.EstimatorTag) (core.Solution2D, error) {
	start := clock()
	s := e.tr.beginSolve(tags, start)
	sol, err := e.inner.Solve2D(tags)
	e.tr.endSolve(s, start, clock())
	return sol, err
}

func (e *timedEstimator) Solve3D(tags []core.EstimatorTag) (core.Solution3D, error) {
	start := clock()
	s := e.tr.beginSolve(tags, start)
	sol, err := e.inner.Solve3D(tags)
	e.tr.endSolve(s, start, clock())
	return sol, err
}

// spanDurations returns the durations in ms of the spans named name.
func spanDurations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur())/1e6)
		}
	}
	return out
}

// hopDurations returns, per request, the front handler span minus the
// longest replica handler span under it, in ms. Without a coordinator the
// two wrappers nest on one server and the hop is the time between them.
func hopDurations(spans []Span) []float64 {
	front := map[uint64]int64{}
	replica := map[uint64]int64{}
	for _, s := range spans {
		switch s.Name {
		case "front.handler":
			front[s.Req] = s.Dur()
		case "locsrv.handler":
			if s.Dur() > replica[s.Req] {
				replica[s.Req] = s.Dur()
			}
		}
	}
	var out []float64
	for req, f := range front {
		if r, ok := replica[req]; ok {
			out = append(out, float64(f-r)/1e6)
		}
	}
	return out
}

// writeSpans writes the spans as one JSON object per line.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close() //nolint:errcheck // already failing
			return err
		}
	}
	return f.Close()
}
