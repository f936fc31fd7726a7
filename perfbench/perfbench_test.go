package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// TestSelfTimes derives self time on a synthetic span tree: overlapping
// children count once, and child time outside the parent is ignored.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{1: 40, 2: 25, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
	if self := selfByName(append(spans, span{ID: 6, Name: "a", Start: 200, End: 210})); self["a"] != 35 {
		t.Errorf("self time of a = %d, want 35", self["a"])
	}
}

// TestLinkRequests links one request's client, gateway and server spans
// into one tree and derives the gateway's wait and self time.
func TestLinkRequests(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: "r1", Name: "client.infer", Start: 0, End: 100, Key: "5000"},
		{ID: 2, Trace: "r1", Name: "client.encrypt", Start: 2, End: 20, Key: "5000"},
		{ID: 3, Trace: "r1", Name: "client.decrypt", Start: 90, End: 100, Key: "5000"},
		{ID: 4, Name: "gateway.handle", Start: 5, End: 88, Key: "5000"},
		{ID: 5, Trace: "r1", Name: "server.handle", Start: 25, End: 80},
		// A later request reusing the port must not capture the gateway span.
		{ID: 6, Trace: "r2", Name: "client.infer", Start: 200, End: 300, Key: "5000"},
	}
	spans = linkRequests(spans)
	parents := map[int]int{2: 1, 3: 1, 4: 1, 5: 4}
	for id, p := range parents {
		if spans[id-1].Parent != p {
			t.Errorf("span %s: parent %d, want %d", spans[id-1].Name, spans[id-1].Parent, p)
		}
	}
	if spans[3].Trace != "r1" {
		t.Errorf("gateway span trace %q, want r1", spans[3].Trace)
	}
	if len(spans) != 7 || spans[6].Name != "gateway.wait" || spans[6].Start != 5 || spans[6].End != 20 || spans[6].Parent != 4 {
		t.Fatalf("derived wait span %+v", spans[len(spans)-1])
	}
	// 83 ns of gateway span, 15 waiting for the client, 55 in the shard.
	if self := selfTimes(spans)[4]; self != 13 {
		t.Errorf("gateway self time %d, want 13", self)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3.1, 1.2, 7.7}, 1.2, 7.7},
		{[]float64{5, 1}, 0, 6},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if p := nearestRank([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99); p != 10 {
		t.Errorf("p99 = %v, want 10", p)
	}
}

// declaredMetric is one metric entry of BENCHMARK.json.
type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkJSON is the part of BENCHMARK.json the command must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

// TestMetricNamesMatchBenchmarkJSON checks that the workloads and the
// metric names and units the command prints are the ones BENCHMARK.json
// declares; run() refuses to print any other set (checkNames).
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); !slices.Equal(got, names) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", got, names)
	}
	check := func(kind string, defs []metricDef, declared []declaredMetric) {
		if len(defs) != len(declared) {
			t.Errorf("%s: command prints %d metrics, BENCHMARK.json declares %d", kind, len(defs), len(declared))
			return
		}
		for i, d := range declared {
			if defs[i].name != d.Name || defs[i].unit != d.Unit {
				t.Errorf("%s metric %d: command prints %s (%s), BENCHMARK.json declares %s (%s)",
					kind, i, defs[i].name, defs[i].unit, d.Name, d.Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
}

// TestCheckNames rejects a result whose metric set is not the declared one.
func TestCheckNames(t *testing.T) {
	m := map[string]metricValue{}
	for _, d := range endToEnd {
		m[d.name] = metricValue{1, d.unit}
	}
	if err := checkNames(m, false); err != nil {
		t.Fatalf("declared set refused: %v", err)
	}
	if err := checkNames(m, true); err == nil {
		t.Error("end-to-end set accepted as the per-layer set")
	}
	delete(m, "setup_s")
	m["setup_ms"] = metricValue{1, "ms"}
	if err := checkNames(m, false); err == nil {
		t.Error("renamed metric accepted")
	}
}
