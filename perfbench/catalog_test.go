package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the catalogue must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

var workloadNames = []string{"serve-batched", "serve-perframe", "sweep-zoo"}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics
// the binary reports in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	var b benchmarkFile
	readJSON(t, "../BENCHMARK.json", &b)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end\n got %v\nwant %v", e2e, endToEnd)
	}
	var layer []metricDef
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(layer, perLayer()) {
		t.Errorf("per_layer\n got %v\nwant %v", layer, perLayer())
	}
}

// TestLayersJSONMapsEveryMetric requires layers.json to describe every
// workload and to map every per-layer metric onto end-to-end metrics
// that exist, on workloads that exist.
func TestLayersJSONMapsEveryMetric(t *testing.T) {
	var doc struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		Layers    map[string]struct {
			Moves map[string][]string `json:"moves"`
		} `json:"layers"`
	}
	readJSON(t, "layers.json", &doc)
	var ws []string
	for w := range doc.Workloads {
		ws = append(ws, w)
	}
	sort.Strings(ws)
	if !reflect.DeepEqual(ws, workloadNames) {
		t.Errorf("layers.json workloads %v, want %v", ws, workloadNames)
	}
	e2e := map[string]bool{"failed": true}
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	for key, l := range doc.Layers {
		for w, ms := range l.Moves {
			if _, ok := doc.Workloads[w]; !ok {
				t.Errorf("%s: unknown workload %q", key, w)
			}
			for _, m := range ms {
				if !e2e[m] {
					t.Errorf("%s on %s: unknown end-to-end metric %q", key, w, m)
				}
			}
		}
	}
	for _, m := range perLayer() {
		key := m.name
		for _, s := range coreSpecs() {
			if strings.HasSuffix(key, "."+s) {
				key = strings.TrimSuffix(key, s) + "<spec>"
			}
		}
		if strings.HasPrefix(key, "trace.overhead_frac.") {
			key = "trace.overhead_frac.<e2e>"
		}
		if _, ok := doc.Layers[key]; !ok {
			t.Errorf("per-layer metric %s has no layers.json entry (looked for %s)", m.name, key)
		}
	}
}
