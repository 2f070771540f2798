package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90},
		{99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && beyondCount(tc.n, p) < minBeyond {
			t.Errorf("tailPercentile(%d) = %g leaves only %d samples beyond", tc.n, p, beyondCount(tc.n, p))
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {75, 4}, {90, 4.6}, {100, 5}} {
		if got := quantile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(p%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 50)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// TestPostSessionTiming checks the wrapped reader listener: the last write
// it stamps falls inside the request, and the post-session time excludes
// the session itself (at least 20 ms of wall time at TimeScale 200).
func TestPostSessionTiming(t *testing.T) {
	wl, _ := workloadByName("portal2d")
	e, err := startEnv(wl, 3, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	c := newLoadClient(e, false)
	defer c.close()
	for i := 0; i < 3; i++ {
		rec := c.do([]int{i}, false)
		if !rec.ok {
			t.Fatalf("locate failed: %s", rec.items[0].why)
		}
		lw := e.readers[i].lis.lastWrite.Load()
		if lw <= rec.start || lw >= rec.end {
			t.Errorf("last reader write at %d outside the request [%d, %d]", lw, rec.start, rec.end)
		}
		if rec.post != rec.end-lw {
			t.Errorf("post-session %d, want end minus last write %d", rec.post, rec.end-lw)
		}
		if session := rec.end - rec.start - rec.post; session < 18e6 {
			t.Errorf("request minus post-session is %d ns, shorter than a 20 ms session", session)
		}
	}
	if bytes, sessions := e.readerWire(); sessions != 3 || bytes == 0 {
		t.Errorf("readers counted %d sessions and %d bytes, want 3 sessions", sessions, bytes)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestShortRuns runs every workload once, briefly, untraced and traced,
// and checks each result carries exactly the metrics BENCHMARK.json names,
// finite and with their units. It covers survey3d too, which the benchmark
// can run but BENCHMARK.json leaves out.
func TestShortRuns(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: wl.name, seed: 5, seconds: 1, trace: traced, setups: 1, replays: 1,
				spansOut: filepath.Join(t.TempDir(), "spans.jsonl")}
			res, err := bench(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.name, traced, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %g", wl.name, traced, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", wl.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if traced {
				if _, err := os.Stat(o.spansOut); err != nil {
					t.Errorf("%s: spans not written: %v", wl.name, err)
				}
			}
		}
	}
}

// TestWrongRegistryFails shows the correctness check can fail: a registry
// entry whose angular velocity is off by 5% ruins the bearings of its disk,
// and the answers miss the sanity bound.
func TestWrongRegistryFails(t *testing.T) {
	o := options{workload: "portal2d", seed: 5, seconds: 1, setups: 1, perturbOmega: 0.05}
	res, err := bench(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("perturbed ω passed the check: attempted=%d failed=%d", res.Attempted, res.Failed)
	}
}
