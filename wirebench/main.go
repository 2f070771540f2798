// Command wirebench is tagspin's end-to-end benchmark. It runs the shipped
// serving path over loopback TCP: simulated readers serve LLRP to locsrv
// replicas (behind a coordinator on one workload), and closed-loop clients
// POST locates and check every answer against the readers' true positions.
// Run it from the repository root:
//
//	bash wirebench/run.sh --workload portal2d --seed 1 --seconds 45 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// an untraced phase and then a traced one on servers wired with timing
// decorators, and reports the per-layer metrics. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics. See
// README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/tagspin/tagspin/internal/sched"
	"github.com/tagspin/tagspin/internal/spectrum"
)

var epoch = time.Now()

// clock is the benchmark's monotonic time in nanoseconds.
func clock() int64 { return int64(time.Since(epoch)) }

// stderrLog receives diagnostics.
var stderrLog io.Writer = os.Stderr

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// spansOut is where the traced run writes its spans.
	spansOut string
	// replays bounds the captured sessions the traced run replays.
	replays int
	// guard runs the idle guard (see idleGuard) for the whole invocation;
	// tests run without it, since their binary cannot be a spinner.
	guard bool
	// perturbOmega scales the first registry entry's ω by 1+perturbOmega,
	// a deliberately wrong registration for the correctness self-test.
	perturbOmega float64
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == idleGuardArg {
		os.Exit(runSpinner())
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("wirebench", flag.ContinueOnError)
	o := options{setups: 5, replays: 4, guard: true}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run (portal2d, solo2d-ml, survey3d)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: reader positions and sessions")
	fs.Float64Var(&o.seconds, "seconds", 45, "length of the timed run in seconds")
	fs.IntVar(&trace, "trace", 0, "1 splits the run into an untraced and a traced phase and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	o.spansOut = filepath.Join(".bench_build", "wirebench", fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderrLog, "wirebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderrLog, "wirebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp builds the deployment o.setups times, each from cold plan caches
// through the first answered warm-up locate, and keeps the last one. It
// returns the median set-up time in seconds.
func setUp(wl workload, o options) (*env, float64, error) {
	var times []float64
	for i := 0; i < o.setups; i++ {
		spectrum.ResetPlanCache()
		runtime.GC()
		t0 := clock()
		e, err := startEnv(wl, o.seed, nil, o.perturbOmega)
		if err != nil {
			return nil, 0, err
		}
		c := newLoadClient(e, false)
		rec := c.warmUp()
		c.close()
		times = append(times, float64(clock()-t0)/1e9)
		if !rec.answered {
			e.close()
			return nil, 0, fmt.Errorf("warm-up locate: %s", rec.items[0].why)
		}
		if i == o.setups-1 {
			return e, median(times), nil
		}
		e.close()
	}
	return nil, 0, errors.New("no set-up ran")
}

// bench runs one invocation and writes the human-readable report.
func bench(o options, stdout io.Writer) (result, error) {
	wl, ok := workloadByName(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 || o.setups < 1 {
		return result{}, errors.New("the run length and the set-up count must be positive")
	}
	spinners := 0
	if o.guard {
		g, err := startIdleGuard(runtime.NumCPU())
		if err != nil {
			return result{}, err
		}
		defer g.stop()
		spinners = len(g.cmds)
	}
	e, setupS, err := setUp(wl, o)
	if err != nil {
		return result{}, err
	}
	// A traced invocation splits its time between the untraced phase and
	// the traced one, so every invocation runs about as long.
	phaseS := o.seconds
	if o.trace {
		phaseS /= 2
	}
	c := newLoadClient(e, false)
	runtime.GC()
	phA := runPhase(c, phaseS)
	c.close()
	e.close()
	tA := tallyPhase(phA)
	res := result{Attempted: tA.attempted, Failed: tA.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(stdout, "wirebench workload=%s seed=%d trace=%v\n", wl.name, o.seed, o.trace)
	fmt.Fprintf(stdout, "env nproc=%d gomaxprocs=%d sched_workers=%d go=%s run_s=%g setups=%d idle_guard_spinners=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), sched.Workers(), runtime.Version(), o.seconds, o.setups, spinners)
	reportSamples(stdout, "untraced", wl, phA, tA)
	if tA.located == 0 {
		return res, nil // every item failed: not correct, nothing to measure
	}
	e2e := endToEnd(wl, phA, tA, setupS)
	if !o.trace {
		res.Metrics = e2e
		fmt.Fprintf(stdout, "metric fail_ratio %g 1 (%d of %d items)\n", ratio(float64(tA.failed), float64(tA.attempted)), tA.failed, tA.attempted)
		printMetrics(stdout, e2e)
		res.Correct = tA.failed == 0
		return res, nil
	}

	tr := newTracer()
	eT, err := startEnv(wl, o.seed, tr, o.perturbOmega)
	if err != nil {
		return result{}, err
	}
	defer eT.close()
	cT := newLoadClient(eT, true)
	if rec := cT.warmUp(); !rec.answered {
		cT.close()
		return result{}, fmt.Errorf("traced warm-up locate: %s", rec.items[0].why)
	}
	tr.reset()
	runtime.GC()
	phB := runPhase(cT, phaseS)
	cT.close()
	tB := tallyPhase(phB)
	reportSamples(stdout, "traced", wl, phB, tB)
	res.Attempted += tB.attempted
	res.Failed += tB.failed
	if tB.located == 0 {
		return res, nil
	}
	caps := tr.capturesSnapshot()
	checked, rerr := checkReplays(eT, caps, phB.records, o.replays)
	if rerr != nil {
		res.Failed++
		fmt.Fprintln(stdout, "replay mismatch:", rerr)
	}
	fmt.Fprintf(stdout, "replay sessions_compared=%d bit_identical=%v\n", checked, rerr == nil)
	costs, err := replayCosts(eT, caps, o.replays)
	if err != nil {
		return result{}, err
	}
	layers := counterMetrics(phA, tA.located)
	for k, v := range spanMetrics(tr, tB.located) {
		layers[k] = v
	}
	for k, v := range costs {
		layers[k] = v
	}
	cpuA := e2e["cpu_ms_per_locate"].Value
	cpuB := ratio(float64(phB.cpuNs)/1e6, float64(tB.located))
	layers["trace.overhead_pct"] = metric{100 * ratio(cpuB-cpuA, cpuA), "%"}
	fmt.Fprintf(stdout, "bases located_untraced=%d located_traced=%d plancache_fills=%g collects=%d solves=%d finalizes=%d\n",
		tA.located, tB.located, layers["spectrum.plancache_fills"].Value, tr.collects.Load(), tr.solves.Load(),
		phA.after.server.FinalizeCount-phA.before.server.FinalizeCount)
	if wl.coord {
		for _, r := range phA.after.coord.PerReplica {
			fmt.Fprintf(stdout, "replica %s routed=%d sheds=%d\n", r.Addr, r.Routed, r.Sheds)
		}
	}
	delete(layers, "spectrum.plancache_fills")
	printMetrics(stdout, layers)
	if err := os.MkdirAll(filepath.Dir(o.spansOut), 0o755); err == nil {
		err = writeSpans(o.spansOut, tr.snapshotSpans())
		if err != nil {
			fmt.Fprintln(stderrLog, "wirebench: spans:", err)
		}
	}
	res.Metrics = layers
	res.Correct = res.Failed == 0
	return res, nil
}

// reportSamples prints a phase's sample counts and tail coverage.
func reportSamples(w io.Writer, label string, wl workload, ph loadPhase, t tally) {
	fmt.Fprintf(w, "samples phase=%s wall_s=%.3f requests=%d items=%d located=%d tail_pct=%g beyond_tail=%d err_max_cm=%.2f steal_pct=%.2f\n",
		label, float64(ph.wallNs)/1e9, len(ph.records), t.attempted, t.located, wl.tailPct, beyondCount(len(t.latencyMs), wl.tailPct), quantile(t.errCm, 100), ph.stealPct)
	if t.failed > 0 {
		fmt.Fprintf(w, "failures phase=%s count=%d first=%q\n", label, t.failed, t.firstFailure)
	}
}

// printMetrics prints one "metric name value unit" line per metric.
func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "metric %s %g %s\n", k, m[k].Value, m[k].Unit)
	}
}
