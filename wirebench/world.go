package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tagspin/tagspin/internal/coord"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/estimate"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/locsrv"
	"github.com/tagspin/tagspin/internal/readersim"
	"github.com/tagspin/tagspin/internal/registry"
	"github.com/tagspin/tagspin/internal/testbed"
)

// readersPerWorld is how many reader antennas every workload's world holds.
const readersPerWorld = 4

// readerTimeScale is the readersim default: a 4 s simulated session streams
// in 20 ms of wall time.
const readerTimeScale = 200

// siteSeed seeds the deployment site: the disks, the tags and their
// orientation prelude. Every run localizes against the same registry, so
// a change in accuracy is the program's, not a different site's.
const siteSeed = 1

// anchors are the nominal reader placements around the disk pair, as
// (distance from the disk centroid in m, azimuth in degrees).
var anchors = [readersPerWorld][2]float64{{1.8, 40}, {2.2, 70}, {2.0, 110}, {2.4, 140}}

// world is the seeded physical deployment shared by every server of one
// set-up: the default two-disk scenario, its orientation-calibrated
// registry, and the true reader positions.
type world struct {
	base       *testbed.Scenario
	registered []core.SpinningTag
	truths     []geom.Vec3
}

// buildWorld builds the deployment. The disks, tags and their calibration
// come from testbed.DefaultScenario and its §III-B prelude, seeded by
// siteSeed. The workload seed places the readers within ±1.5 cm and ±0.6°
// of the anchors, at heights of 0.7–1.1 m for 3D workloads; wider jitter
// moves the error percentiles between seeds by more than any bound the
// benchmark could keep.
func buildWorld(seed int64, threeD bool, perturbOmega float64) (*world, error) {
	rng := rand.New(rand.NewSource(siteSeed))
	base := testbed.DefaultScenario(0, rng)
	base.PlaceReader(geom.V3(0, 1.5, 0)) // bench antenna of the prelude
	registered, err := base.CalibratedSpinningTags(rng)
	if err != nil {
		return nil, fmt.Errorf("orientation prelude: %w", err)
	}
	if perturbOmega != 0 {
		registered[0].Disk.Omega *= 1 + perturbOmega
	}
	prng := rand.New(rand.NewSource(seed*7919 + 17))
	w := &world{base: base, registered: registered}
	for _, a := range anchors {
		r := a[0] + 0.03*(prng.Float64()-0.5)
		az := (a[1] + 1.2*(prng.Float64()-0.5)) * math.Pi / 180
		pos := geom.V3(r*math.Cos(az), r*math.Sin(az), 0)
		if threeD {
			pos.Z = 0.7 + 0.4*prng.Float64()
		}
		w.truths = append(w.truths, pos)
	}
	return w, nil
}

// registryFor builds a fresh registry holding the world's calibrated tags,
// as a server would load it from the prelude's registry file.
func (w *world) registryFor() (*registry.Registry, error) {
	reg := registry.New()
	for _, st := range w.registered {
		if err := reg.Add(registry.EntryFromSpinningTag(st)); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// wireListener wraps the net.Listener a simulated reader serves on. It
// counts LLRP bytes in both directions and stamps each reader write, so the
// client can time a response against the reader's last write of the
// session (ROSpecDone).
type wireListener struct {
	net.Listener
	lastWrite atomic.Int64 // clock() just before the latest Write began
	bytes     atomic.Int64
	sessions  atomic.Int64 // accepted connections: one per collect attempt
}

func (l *wireListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.sessions.Add(1)
	return &wireConn{Conn: c, l: l}, nil
}

type wireConn struct {
	net.Conn
	l *wireListener
}

func (c *wireConn) Write(b []byte) (int, error) {
	c.l.lastWrite.Store(clock())
	n, err := c.Conn.Write(b)
	c.l.bytes.Add(int64(n))
	return n, err
}

func (c *wireConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.bytes.Add(int64(n))
	return n, err
}

// benchReader is one simulated reader antenna serving LLRP on loopback.
type benchReader struct {
	r     *readersim.Reader
	lis   *wireListener
	truth geom.Vec3
	addr  string
	done  chan error
}

// replica is one locsrv instance serving HTTP on loopback.
type replica struct {
	srv  *locsrv.Server
	http *http.Server
	addr string
	done chan error
}

// env is one running deployment: readers, replicas, and an optional
// coordinator in front of them.
type env struct {
	wl       workload
	seed     int64
	world    *world
	readers  []*benchReader
	replicas []*replica
	coord    *coord.Coordinator
	coordSrv *http.Server
	coordRun context.CancelFunc
	coordWG  sync.WaitGroup
	coordErr chan error
	frontURL string
	tr       *tracer // nil when untraced
}

// discardLogf formats like tagspin-server's stderr logger but drops the
// line, so servers pay the shipped logging cost without flooding output.
func discardLogf(format string, args ...any) { fmt.Fprintf(io.Discard, format+"\n", args...) }

// serveHTTP starts h on a fresh loopback listener.
func serveHTTP(h http.Handler) (*http.Server, string, chan error, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(lis) }()
	return hs, lis.Addr().String(), done, nil
}

// startEnv brings up the workload's deployment for seed. With tr non-nil
// the servers are built for tracing (see tracer); otherwise they run
// exactly what tagspin-server builds from its default flags.
func startEnv(wl workload, seed int64, tr *tracer, perturbOmega float64) (e *env, err error) {
	w, err := buildWorld(seed, wl.mode == "3d", perturbOmega)
	if err != nil {
		return nil, err
	}
	e = &env{wl: wl, seed: seed, world: w, tr: tr}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()
	for i, truth := range w.truths {
		sc := *w.base
		sc.PlaceReader(truth)
		r, err := readersim.New(readersim.Config{World: &sc, TimeScale: readerTimeScale, Seed: seed*1000 + int64(i)})
		if err != nil {
			return e, err
		}
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return e, err
		}
		br := &benchReader{r: r, lis: &wireListener{Listener: raw}, truth: truth, addr: raw.Addr().String(), done: make(chan error, 1)}
		go func() { br.done <- r.Serve(br.lis) }()
		e.readers = append(e.readers, br)
	}
	for i := 0; i < wl.replicas; i++ {
		reg, err := w.registryFor()
		if err != nil {
			return e, err
		}
		cfg := locsrv.Config{Registry: reg, Logf: discardLogf}
		if tr != nil {
			// The ml backend's estimator is built inside locsrv.New, out
			// of the decorator's reach, so a traced server serves either
			// backend from a default locator around the decorated
			// estimator, and its requests name no backend.
			var base core.Estimator = core.GridEstimator{}
			if wl.backend == "ml" {
				base = estimate.NewML(estimate.Config{})
			}
			cfg.Locator = core.NewLocator(core.Config{Estimator: &timedEstimator{inner: base, tr: tr}})
			cfg.CollectStream = tr.collect
		}
		srv, err := locsrv.New(cfg)
		if err != nil {
			return e, err
		}
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tr.handler("locsrv.handler", h)
			if !wl.coord {
				h = tr.handler("front.handler", h)
			}
		}
		hs, addr, done, err := serveHTTP(h)
		if err != nil {
			return e, err
		}
		e.replicas = append(e.replicas, &replica{srv: srv, http: hs, addr: addr, done: done})
		e.frontURL = "http://" + addr
	}
	if wl.coord {
		addrs := make([]string, len(e.replicas))
		for i, r := range e.replicas {
			addrs[i] = r.addr
		}
		ccfg := coord.Config{Replicas: addrs, Logf: discardLogf}
		if tr != nil {
			ccfg.HTTPClient = &http.Client{Transport: tr.transport(http.DefaultTransport.(*http.Transport).Clone())}
		}
		c, err := coord.New(ccfg)
		if err != nil {
			return e, err
		}
		var h http.Handler = c.Handler()
		if tr != nil {
			h = tr.handler("front.handler", h)
		}
		hs, addr, done, err := serveHTTP(h)
		if err != nil {
			return e, err
		}
		e.coord, e.coordSrv, e.coordErr = c, hs, done
		ctx, cancel := context.WithCancel(context.Background())
		e.coordRun = cancel
		e.coordWG.Add(1)
		go func() {
			defer e.coordWG.Done()
			c.Run(ctx)
		}()
		e.frontURL = "http://" + addr
	}
	return e, nil
}

// close stops every server and reader of the env and waits for them.
func (e *env) close() {
	if e.coordSrv != nil {
		e.coordRun()
		e.coordWG.Wait()
		e.coordSrv.Close() //nolint:errcheck // teardown
		<-e.coordErr
	}
	for _, r := range e.replicas {
		r.http.Close() //nolint:errcheck // teardown
		<-r.done
	}
	for _, r := range e.readers {
		r.r.Close() //nolint:errcheck // teardown
		if err := <-r.done; err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintln(stderrLog, "wirebench: reader:", err)
		}
	}
}

// serverStats sums the replicas' locsrv counters the benchmark reports;
// MaxAccumBacklog is the highest replica's.
func (e *env) serverStats() locsrv.Stats {
	var sum locsrv.Stats
	for _, r := range e.replicas {
		st := r.srv.Stats()
		sum.AdmissionRejects += st.AdmissionRejects
		sum.StreamFallbackTags += st.StreamFallbackTags
		sum.FinalizeCount += st.FinalizeCount
		sum.FinalizeNsTotal += st.FinalizeNsTotal
		if st.MaxAccumBacklog > sum.MaxAccumBacklog {
			sum.MaxAccumBacklog = st.MaxAccumBacklog
		}
	}
	return sum
}
