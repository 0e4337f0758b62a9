package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/metrics"
)

// The model-training child (see referenceModel) re-executes this test
// binary; it trains and exits before any test runs.
func TestMain(m *testing.M) {
	trainModelChild()
	os.Exit(m.Run())
}

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: percentile must sort
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond
		{999, 0.99, 0, false},   // only 9 beyond
		{10, 0.99, 0, false},    // would be the maximum
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{200, 0.95, 190, true},
		{199, 0.95, 0, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, %g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestHistQuantileRule(t *testing.T) {
	h := metrics.NewHistogram(fineBounds())
	for i := 1; i <= 999; i++ {
		h.Observe(float64(i) / 1000)
	}
	if _, ok := histQuantile(h, 0.99); ok {
		t.Error("p99 of 999 observations resolved")
	}
	v, ok := histQuantile(h, 0.5)
	if !ok || v < 0.5 || v > 0.5*1.0011 {
		t.Errorf("p50 = %g, %v; want 0.5 within one bucket", v, ok)
	}
}

func lat(n int, slow int, slowMs float64) []float64 {
	l := make([]float64, n)
	for i := range l {
		l[i] = 5
		if i < slow {
			l[i] = slowMs
		}
	}
	return l
}

func TestLadderRule(t *testing.T) {
	const limit = 100
	ok := func(rate float64, n int) rung {
		return rung{Rate: rate, Sent: n, OK: n, Latency: lat(n, n/100, 500)}
	}
	for _, tc := range []struct {
		name string
		r    rung
		want bool
	}{
		{"one percent over the limit", ok(50, 1000), true},
		{"one more over the limit", rung{Rate: 50, Sent: 1000, OK: 1000, Latency: lat(1000, 11, 500)}, false},
		{"a failed request", rung{Rate: 50, Sent: 1000, OK: 999, Failed: 1, Latency: lat(999, 0, 0)}, false},
		{"growing backlog", rung{Rate: 50, Sent: 1000, OK: 1000, Latency: lat(1000, 0, 0), Backlog: 7}, false},
		{"backlog within the limit's share", rung{Rate: 50, Sent: 1000, OK: 1000, Latency: lat(1000, 0, 0), Backlog: 6}, true},
		{"nothing sent", rung{Rate: 50}, false},
	} {
		if got := tc.r.passes(limit); got != tc.want {
			t.Errorf("%s: passes = %v, want %v", tc.name, got, tc.want)
		}
	}
	slow := rung{Rate: 100, Sent: 100, OK: 100, Latency: lat(100, 50, 500)}
	if got := maxPassing([]rung{ok(25, 100), ok(50, 100), slow, ok(200, 100)}, limit); got != 1 {
		t.Errorf("maxPassing = %d, want 1: the climb stops at the first failing rate", got)
	}
	if got := maxPassing([]rung{slow, ok(200, 100)}, limit); got != -1 {
		t.Errorf("maxPassing = %d, want -1 when the lowest rate fails", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50}, // overlaps its sibling
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"root":       {Count: 1, Total: 100, Self: 100 - 40 - 10},
		"child":      {Count: 2, Total: 50, Self: 20 + 20},
		"late":       {Count: 1, Total: 30, Self: 30},
		"grandchild": {Count: 1, Total: 10, Self: 10},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 1, 0)
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Error("nil tracer recorded a span")
	}
}

// TestBenchmarkJSONMatches checks that the repository's BENCHMARK.json
// declares exactly the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		name string
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.name, len(c.spec), len(c.defs))
			continue
		}
		for i, m := range c.spec {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.name, i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

// TestSmoke runs every workload untraced and traced at the quick scale
// and requires every output check to pass and every metric to be
// reported or explicitly unresolved.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and runs every workload")
	}
	workdir := t.TempDir()
	for _, name := range []string{"ingest", "serve", "train"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				smoke(t, workdir, name, traced)
			})
		}
	}
}

func smoke(t *testing.T, workdir, name string, traced bool) {
	out, err := measure(name, 7, 1, traced, workdir, "quick")
	if err != nil {
		t.Fatalf("%s traced=%v: %v", name, traced, err)
	}
	if len(out.problems) > 0 || out.failed > 0 || out.attempted == 0 {
		t.Errorf("%s traced=%v: %d/%d failed, problems %v", name, traced, out.failed, out.attempted, out.problems)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		if out.tr == nil || len(out.tr.snapshot()) == 0 {
			t.Errorf("%s: traced run recorded no spans", name)
		}
	}
	for _, d := range defs {
		if _, ok := out.metrics[d.name]; !ok && !slices.Contains(out.unresolved, d.name) {
			t.Errorf("%s traced=%v: %s neither measured nor unresolved", name, traced, d.name)
		}
	}
	if out.manifest["input_digest"] == "" {
		t.Errorf("%s: manifest has no input digest", name)
	}
}
