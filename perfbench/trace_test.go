package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 50},   // overlaps span 2: the union 10..50 counts once
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},  // clipped to the parent's end: 10 covered
		{ID: 5, Parent: 2, Name: "c", Start: 15, End: 20},   // grandchild: not subtracted from root
		{ID: 6, Parent: 1, Name: "d", Start: 200, End: 210}, // outside its parent: nothing covered
	}
	got := selfTimes(spans)
	want := map[string]selfTime{
		"root": {Count: 1, TotalNs: 100, SelfNs: 100 - 40 - 10},
		"a":    {Count: 2, TotalNs: 50, SelfNs: (30 - 5) + 20},
		"b":    {Count: 1, TotalNs: 30, SelfNs: 30},
		"c":    {Count: 1, TotalNs: 5, SelfNs: 5},
		"d":    {Count: 1, TotalNs: 10, SelfNs: 10},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d", len(got), len(want))
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", 0)
	if d := sp.end(1); d != 0 {
		t.Errorf("nil tracer span lasted %v", d)
	}
	if tr.durations("x") != nil {
		t.Error("nil tracer recorded a span")
	}
	if err := tr.write(t.TempDir(), "spans.json"); err != nil {
		t.Errorf("nil tracer write: %v", err)
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0)
	child := tr.begin("child", root.id)
	child.end(3)
	root.end(1)
	if n := len(tr.durations("child")); n != 1 {
		t.Fatalf("recorded %d child spans, want 1", n)
	}
	dir := t.TempDir()
	if err := tr.write(dir, "spans.json"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Self  map[string]selfTime `json:"self"`
		Spans []span              `json:"spans"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Spans) != 2 || out.Self["child"].Count != 1 {
		t.Fatalf("written spans %+v, self %+v", out.Spans, out.Self)
	}
	for _, s := range out.Spans {
		if s.Name == "child" && (s.Parent != root.id || s.N != 3) {
			t.Errorf("child span %+v: want parent %d and n 3", s, root.id)
		}
	}
	if r := out.Self["root"]; r.SelfNs > r.TotalNs || r.SelfNs < 0 {
		t.Errorf("root self time %+v outside [0, total]", r)
	}
}
