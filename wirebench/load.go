package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/locsrv"
)

// workload is one traffic mix against one deployment shape.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop client goroutines; each owns
	// the readers whose index modulo clients is its own.
	clients int
	mode    string // "2d" or "3d"
	backend string // "grid" or "ml"
	// batch sends every reader of the client in one /v1/locate-batch.
	batch bool
	// replicas is the number of locsrv instances; coord puts a
	// coordinator in front of them.
	replicas int
	coord    bool
	// tailPct is the workload's fixed tail percentile: the highest on
	// tailLadder that leaves at least minBeyond samples beyond it at the
	// request count a default-length (45 s) run collects.
	tailPct float64
	// errBoundM is the sanity bound on a located position's distance from
	// the reader's true position; a larger error fails the item.
	errBoundM float64
}

var workloads = []workload{
	{
		name: "portal2d", clients: 2, mode: "2d", backend: "grid", replicas: 1,
		tailPct: 99, errBoundM: 0.5,
		why: "two closed-loop clients saturate the cores with the shipped streaming 2D grid path, so per-locate CPU shows in throughput",
	},
	{
		name: "solo2d-ml", clients: 1, mode: "2d", backend: "ml", replicas: 2, coord: true,
		tailPct: 95, errBoundM: 0.5,
		why: "one request in flight through a coordinator leaves cores idle, so pool parallelism, the ML solve and the coord hop show in latency",
	},
	{
		name: "survey3d", clients: 1, mode: "3d", backend: "grid", batch: true, replicas: 1,
		tailPct: 50, errBoundM: 1.0,
		why: "batches of every reader in 3D run the 3D folds, coarse scans and refine3D through locsrv's batch fan-out",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// itemResult is the outcome of one locate item.
type itemResult struct {
	reader int
	ok     bool
	hasPos bool       // the answer carried a position
	errM   float64    // distance from the true position, when located
	pos    [3]float64 // the wire position
	why    string     // failure reason
}

// record is one client request.
type record struct {
	req        uint64
	start, end int64
	post       int64 // end minus the latest reader's last write; -1 if failed
	answered   bool  // a 2xx response arrived
	ok         bool  // every item passed
	items      []itemResult
}

// loadClient posts locate requests for one deployment.
type loadClient struct {
	e      *env
	http   *http.Client
	traced bool
}

func newLoadClient(e *env, traced bool) *loadClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: 30 * time.Second}
	return &loadClient{e: e, http: &http.Client{Transport: tr, Timeout: 150 * time.Second}, traced: traced}
}

func (c *loadClient) close() { c.http.CloseIdleConnections() }

// locateRequest is the body for one reader. Traced servers serve the
// workload's backend from their default locator, so it is not named.
func (c *loadClient) locateRequest(reader int) locsrv.LocateRequest {
	req := locsrv.LocateRequest{ReaderAddr: c.e.readers[reader].addr, Mode: c.e.wl.mode}
	if !c.traced {
		req.Backend = c.e.wl.backend
	}
	return req
}

// do sends one request for readers (a batch when there are several, or
// when the workload batches) and checks every answer.
func (c *loadClient) do(readers []int, batch bool) record {
	rec := record{post: -1}
	var path string
	var body []byte
	var err error
	if batch {
		br := locsrv.BatchRequest{}
		for _, r := range readers {
			br.Requests = append(br.Requests, c.locateRequest(r))
		}
		path = "/v1/locate-batch"
		body, err = json.Marshal(br)
	} else {
		path = "/v1/locate"
		body, err = json.Marshal(c.locateRequest(readers[0]))
	}
	if err != nil {
		return c.fail(rec, readers, err.Error())
	}
	hreq, err := http.NewRequestWithContext(context.Background(), http.MethodPost, c.e.frontURL+path, bytes.NewReader(body))
	if err != nil {
		return c.fail(rec, readers, err.Error())
	}
	hreq.Header.Set("Content-Type", "application/json")
	var spanID uint64
	if c.e.tr != nil {
		rec.req, spanID = c.e.tr.newID(), c.e.tr.newID()
		hreq.Header.Set(headerReq, strconv.FormatUint(rec.req, 10))
		hreq.Header.Set(headerParent, strconv.FormatUint(spanID, 10))
	}
	rec.start = clock()
	resp, err := c.http.Do(hreq)
	var payload []byte
	if err == nil {
		payload, err = io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck // fully read
	}
	rec.end = clock()
	if c.e.tr != nil {
		c.e.tr.record(Span{Req: rec.req, ID: spanID, Name: "client.request", Start: rec.start, End: rec.end, Note: path})
	}
	if err != nil {
		return c.fail(rec, readers, "transport: "+err.Error())
	}
	if resp.StatusCode/100 != 2 {
		return c.fail(rec, readers, fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(payload)))
	}
	rec.answered = true
	var results []*locsrv.LocateResponse
	var itemErrs []string
	if batch {
		var out locsrv.BatchResponse
		if err := json.Unmarshal(payload, &out); err != nil || len(out.Items) != len(readers) {
			return c.fail(rec, readers, fmt.Sprintf("bad batch response (%v)", err))
		}
		for _, it := range out.Items {
			results = append(results, it.Result)
			itemErrs = append(itemErrs, it.Error)
		}
	} else {
		var out locsrv.LocateResponse
		if err := json.Unmarshal(payload, &out); err != nil {
			return c.fail(rec, readers, fmt.Sprintf("bad response: %v", err))
		}
		results, itemErrs = []*locsrv.LocateResponse{&out}, []string{""}
	}
	rec.ok = true
	var lastWrite int64
	for i, r := range readers {
		it := c.check(r, results[i], itemErrs[i])
		rec.ok = rec.ok && it.ok
		rec.items = append(rec.items, it)
		if lw := c.e.readers[r].lis.lastWrite.Load(); lw > lastWrite {
			lastWrite = lw
		}
	}
	if rec.ok {
		rec.post = rec.end - lastWrite
	}
	return rec
}

func (c *loadClient) fail(rec record, readers []int, why string) record {
	rec.ok = false
	for _, r := range readers {
		rec.items = append(rec.items, itemResult{reader: r, why: why})
	}
	return rec
}

// check is the correctness check on one answer: the right mode and
// backend, a confidence block from the ml backend, a finite position, and
// an error within the workload's sanity bound.
func (c *loadClient) check(reader int, res *locsrv.LocateResponse, itemErr string) itemResult {
	wl := c.e.wl
	it := itemResult{reader: reader}
	switch {
	case itemErr != "":
		it.why = itemErr
		return it
	case res == nil:
		it.why = "no result"
		return it
	case res.Mode != wl.mode || res.Backend != wl.backend:
		it.why = fmt.Sprintf("answered mode %q backend %q", res.Mode, res.Backend)
		return it
	case wl.backend == "ml" && res.Confidence == nil:
		it.why = "ml answer without a confidence block"
		return it
	}
	it.pos, it.hasPos = res.Position, true
	truth := c.e.readers[reader].truth
	got := geom.V3(res.Position[0], res.Position[1], res.Position[2])
	if wl.mode == "2d" {
		got.Z, truth.Z = 0, 0
	}
	it.errM = got.Sub(truth).Norm()
	if math.IsNaN(it.errM) || math.IsInf(it.errM, 0) || it.errM > wl.errBoundM {
		it.why = fmt.Sprintf("error %.3f m exceeds the %.2f m bound", it.errM, wl.errBoundM)
		return it
	}
	it.ok = true
	return it
}

// clientReaders returns the readers client k owns.
func clientReaders(k, clients int) []int {
	var out []int
	for r := 0; r < readersPerWorld; r++ {
		if r%clients == k {
			out = append(out, r)
		}
	}
	return out
}

// warmUp sends one locate of the workload's mode to the first reader.
func (c *loadClient) warmUp() record { return c.do([]int{0}, false) }

// loadPhase is the outcome of one timed closed-loop phase.
type loadPhase struct {
	records      []record
	wallNs       int64
	cpuNs        int64
	heapPeak     uint64
	before       counters
	after        counters
	readerBytes  int64
	readerSessns int64
	stealPct     float64 // share of the machine's CPU time the hypervisor took
}

// runPhase drives the closed loop for seconds: every client sends its next
// request when the previous answer arrives, and stops sending once the
// time is up. The phase ends when the last answer arrives.
func runPhase(c *loadClient, seconds float64) loadPhase {
	wl := c.e.wl
	var ph loadPhase
	sampler := startHeapSampler()
	bytes0, sess0 := c.e.readerWire()
	ph.before = snapshotCounters(c.e)
	steal0, total0 := stealTicks()
	cpu0 := cpuNow()
	t0 := clock()
	deadline := t0 + int64(seconds*1e9)
	recs := make([][]record, wl.clients)
	var wg sync.WaitGroup
	for k := 0; k < wl.clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			mine := clientReaders(k, wl.clients)
			for i := 0; clock() < deadline; i++ {
				if wl.batch {
					recs[k] = append(recs[k], c.do(mine, true))
				} else {
					recs[k] = append(recs[k], c.do([]int{mine[i%len(mine)]}, false))
				}
			}
		}(k)
	}
	wg.Wait()
	ph.wallNs = clock() - t0
	ph.cpuNs = cpuNow() - cpu0
	steal1, total1 := stealTicks()
	ph.stealPct = 100 * ratio(float64(steal1-steal0), float64(total1-total0))
	ph.after = snapshotCounters(c.e)
	bytes1, sess1 := c.e.readerWire()
	ph.heapPeak = sampler.stop()
	ph.readerBytes, ph.readerSessns = bytes1-bytes0, sess1-sess0
	for _, r := range recs {
		ph.records = append(ph.records, r...)
	}
	return ph
}

// readerWire totals the LLRP bytes and sessions across the readers.
func (e *env) readerWire() (bytes, sessions int64) {
	for _, r := range e.readers {
		bytes += r.lis.bytes.Load()
		sessions += r.lis.sessions.Load()
	}
	return bytes, sessions
}

// cpuNow is the process's user+sys CPU time in nanoseconds.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// stealTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat; both are 0 where it is unreadable. Steal is time a
// hypervisor ran something else while this machine's CPUs wanted to run,
// which stretches every wall-clock metric.
func stealTicks() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// heapSampler tracks the peak Go heap (live and not yet swept objects)
// by sampling runtime/metrics every millisecond.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}
