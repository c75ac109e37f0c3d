package experiments

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"phasemon/internal/stats"
	"phasemon/internal/workload"
)

// quick trims run lengths for unit testing; shape assertions use
// moderately longer runs where statistics matter.
var quick = Options{Intervals: 300, Seed: 1}

func TestRegistryRunsEveryExperiment(t *testing.T) {
	for _, r := range Registry() {
		var buf bytes.Buffer
		if err := r.Run(quick, &buf); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", r.Name)
		}
	}
}

func TestLookup(t *testing.T) {
	r, err := Lookup("fig4")
	if err != nil || r.Name != "fig4" {
		t.Fatalf("Lookup(fig4) = %v, %v", r.Name, err)
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	var buf bytes.Buffer
	if err := runTable1(quick, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"< 0.005", "[0.020,0.030)", "> 0.030", "6 (highly memory-bound)"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table1 missing %q:\n%s", want, buf.String())
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	var buf bytes.Buffer
	if err := runTable2(quick, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1500 MHz", "1484 mV", "600 MHz", "956 mV"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table2 missing %q:\n%s", want, buf.String())
		}
	}
}

func TestFigure2GPHTBeatsLastValueInWindow(t *testing.T) {
	pts, err := Figure2(Options{Intervals: 1200, Seed: 1}, 1000, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 120 {
		t.Fatalf("window has %d points", len(pts))
	}
	lvWrong, gWrong := 0, 0
	for _, p := range pts {
		if p.LastValue != p.Actual {
			lvWrong++
		}
		if p.GPHT != p.Actual {
			gWrong++
		}
	}
	// Paper: last value mispredicts more than a third of applu's
	// phases; GPHT almost perfectly matches.
	if frac := float64(lvWrong) / 120; frac < 0.33 {
		t.Errorf("last value misprediction fraction %v, want > 1/3", frac)
	}
	if frac := float64(gWrong) / 120; frac > 0.15 {
		t.Errorf("GPHT misprediction fraction %v, want < 0.15 after warm-up", frac)
	}
}

func TestFigure2WindowValidation(t *testing.T) {
	if _, err := Figure2(Options{Intervals: 50, Seed: 1}, 100, 100); err == nil {
		t.Error("window larger than run accepted")
	}
}

func TestFigure3QuadrantsMatchDeclaredCanonicalSet(t *testing.T) {
	pts, err := Figure3(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 33 {
		t.Fatalf("%d points", len(pts))
	}
	byName := map[string]Fig3Point{}
	for _, p := range pts {
		byName[p.Name] = p
	}
	want := map[string]stats.Quadrant{
		"swim_in": stats.Q2, "mcf_inp": stats.Q2,
		"applu_in": stats.Q3, "equake_in": stats.Q3, "mgrid_in": stats.Q3,
		"bzip2_program": stats.Q4, "bzip2_source": stats.Q4, "bzip2_graphic": stats.Q4,
		"crafty_in": stats.Q1, "gzip_log": stats.Q1,
	}
	for name, q := range want {
		if got := byName[name].Quadrant; got != q {
			t.Errorf("%s: quadrant %v, want %v", name, got, q)
		}
	}
	// mcf has the largest savings potential of the suite (Figure 3's
	// far-right point).
	maxName := ""
	maxV := -1.0
	for _, p := range pts {
		if p.SavingsPotential > maxV {
			maxV, maxName = p.SavingsPotential, p.Name
		}
	}
	if maxName != "mcf_inp" {
		t.Errorf("largest savings potential is %s, want mcf_inp", maxName)
	}
}

func TestFigure4Shape(t *testing.T) {
	rows, err := Figure4(Options{Intervals: 1500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 33 {
		t.Fatalf("%d rows", len(rows))
	}
	// Sorted by decreasing last-value accuracy.
	for i := 1; i < len(rows); i++ {
		if rows[i].Accuracy["LastValue"] > rows[i-1].Accuracy["LastValue"]+1e-12 {
			t.Fatalf("rows not sorted at %d", i)
		}
	}
	// The last six rows (the variable benchmarks) are where GPHT
	// departs from the statistical predictors.
	for _, r := range rows[len(rows)-6:] {
		g := r.Accuracy["GPHT_8_1024"]
		lv := r.Accuracy["LastValue"]
		if g < lv+0.10 {
			t.Errorf("%s: GPHT %v not well above last value %v", r.Name, g, lv)
		}
		if g < 0.75 {
			t.Errorf("%s: GPHT accuracy %v below 0.75", r.Name, g)
		}
	}
	// The top half (stable benchmarks) sees >80%% accuracy from
	// every predictor, as the paper reports for Q1/Q2.
	for _, r := range rows[:10] {
		for _, p := range Fig4Predictors {
			if r.Accuracy[p] < 0.8 {
				t.Errorf("%s/%s: accuracy %v below 0.8", r.Name, p, r.Accuracy[p])
			}
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	rows, err := Figure5(Options{Intervals: 1500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("%d rows", len(rows))
	}
	// 128 entries performs like 1024 on average; 64 degrades; 1
	// converges toward last value.
	if d := meanAccuracyDrop(rows, 1024, 128); math.Abs(d) > 0.01 {
		t.Errorf("mean 1024->128 drop %v, want ~0", d)
	}
	if d := meanAccuracyDrop(rows, 128, 64); d < 0.01 {
		t.Errorf("mean 128->64 drop %v, want observable degradation", d)
	}
	for _, r := range rows {
		if diff := math.Abs(r.BySize[1] - r.LastValue); diff > 0.05 {
			t.Errorf("%s: 1-entry GPHT %v far from last value %v", r.Name, r.BySize[1], r.LastValue)
		}
	}
	// applu specifically falls off the cliff at 64 entries (its
	// macro-pattern exceeds the table).
	for _, r := range rows {
		if r.Name != "applu_in" {
			continue
		}
		if r.BySize[128] < 0.85 {
			t.Errorf("applu at 128 entries: %v", r.BySize[128])
		}
		if r.BySize[64] > r.BySize[128]-0.2 {
			t.Errorf("applu at 64 entries (%v) should collapse vs 128 (%v)", r.BySize[64], r.BySize[128])
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	res, err := Figure6(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SPECPoints) < 100 {
		t.Errorf("only %d SPEC points", len(res.SPECPoints))
	}
	if len(res.Grid) < 40 {
		t.Errorf("only %d grid points", len(res.Grid))
	}
	// Every SPEC sample lies at or below the boundary curve.
	for _, p := range res.SPECPoints {
		if p.UPC > workload.SPECBoundary(p.MemPerUop)*1.05 {
			t.Errorf("SPEC point (%v, %v) above boundary", p.UPC, p.MemPerUop)
		}
	}
}

func TestFigure7Invariance(t *testing.T) {
	rows, err := Figure7(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11*6 {
		t.Fatalf("%d rows, want 66", len(rows))
	}
	byTarget := map[workload.GridPoint][]Fig7Row{}
	for _, r := range rows {
		byTarget[r.Target] = append(byTarget[r.Target], r)
	}
	for target, series := range byTarget {
		if len(series) != 6 {
			t.Fatalf("target %v has %d frequencies", target, len(series))
		}
		// Mem/Uop identical across all frequencies.
		for _, r := range series {
			if r.MemPerUop != series[0].MemPerUop {
				t.Errorf("target %v: Mem/Uop varies with frequency", target)
			}
		}
		// UPC at the lowest frequency >= UPC at the highest; strictly
		// so for memory-bound configs, equal for Mem/Uop = 0.
		hi, lo := series[0], series[len(series)-1] // 1500 first, 600 last
		if target.MemPerUop == 0 {
			if math.Abs(hi.UPC-lo.UPC) > 1e-9 {
				t.Errorf("CPU-bound target %v: UPC shifted", target)
			}
		} else if !(lo.UPC > hi.UPC) {
			t.Errorf("target %v: UPC did not rise at low frequency", target)
		}
	}
	// The most memory-bound configuration shows the paper's ~80% UPC
	// swing.
	key := workload.GridPoint{UPC: 0.1, MemPerUop: 0.0475}
	s := byTarget[key]
	swing := (s[len(s)-1].UPC - s[0].UPC) / s[0].UPC
	if swing < 0.6 || swing > 0.95 {
		t.Errorf("max memory-bound UPC swing %v, want ~0.8", swing)
	}
}

func TestFigure10Shape(t *testing.T) {
	res, err := Figure10(Options{Intervals: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) < 390 {
		t.Fatalf("%d intervals", len(res.Intervals))
	}
	var baseP, manP, baseB, manB float64
	for i, iv := range res.Intervals {
		// Phase metric agrees between the two runs (DVFS invariance).
		if math.Abs(iv.BaselineMemPerUop-iv.ManagedMemPerUop) > 1e-6 {
			t.Fatalf("interval %d: Mem/Uop differs between runs", i)
		}
		baseP += iv.BaselinePowerW
		manP += iv.ManagedPowerW
		baseB += iv.BaselineBIPS
		manB += iv.ManagedBIPS
	}
	n := float64(len(res.Intervals))
	// Managed power well below baseline; managed BIPS slightly below.
	if !(manP/n < 0.75*baseP/n) {
		t.Errorf("managed power %v not well below baseline %v", manP/n, baseP/n)
	}
	if !(manB < baseB) || manB/baseB < 0.8 {
		t.Errorf("managed BIPS ratio %v outside (0.8, 1)", manB/baseB)
	}
	if imp := 1 - res.Managed.EDP()/res.Baseline.EDP(); imp < 0.15 {
		t.Errorf("applu EDP improvement %v, want > 15%% (paper: >15%%)", imp)
	}
}

func TestFigure12Shape(t *testing.T) {
	rows, err := Figure12(Options{Intervals: 1200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	var sumLV, sumGP float64
	for _, r := range rows {
		if r.EDPImprovement["GPHT"] < r.EDPImprovement["LastValue"]-0.01 {
			t.Errorf("%s: GPHT EDP %v below reactive %v", r.Name,
				r.EDPImprovement["GPHT"], r.EDPImprovement["LastValue"])
		}
		sumLV += r.EDPImprovement["LastValue"]
		sumGP += r.EDPImprovement["GPHT"]
	}
	// Average improvements in the paper's ballpark: GPHT ~27%,
	// reactive ~20%, GPHT ahead on average.
	avgGP, avgLV := sumGP/8, sumLV/8
	if avgGP < 0.20 || avgGP > 0.40 {
		t.Errorf("average GPHT EDP improvement %v, want ~0.27", avgGP)
	}
	if !(avgGP > avgLV+0.02) {
		t.Errorf("GPHT average %v not ahead of reactive %v", avgGP, avgLV)
	}
}

func TestFigure13Bounded(t *testing.T) {
	rows, err := Figure13(Options{Intervals: 800, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Degradation > 0.055 {
			t.Errorf("%s: degradation %v exceeds the 5%% bound", r.Name, r.Degradation)
		}
		if r.EnergySavings <= 0 {
			t.Errorf("%s: no energy savings under conservative definitions", r.Name)
		}
	}
}

func TestHeadlineNumbers(t *testing.T) {
	h, err := Headline(Options{Intervals: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h.AppluMispredictionReduction < 6 {
		t.Errorf("applu misprediction reduction %.1fX, paper reports >6X", h.AppluMispredictionReduction)
	}
	if h.VariableSetReduction < 2 {
		t.Errorf("variable-set reduction %.1fX, paper reports 2.4X", h.VariableSetReduction)
	}
	if h.MaxVariableEDPImprovement < 0.2 || h.MaxVariableEDPImprovement > 0.5 {
		t.Errorf("best variable EDP improvement %v, paper reports 34%%", h.MaxVariableEDPImprovement)
	}
	if h.AvgEDPImprovement < 0.2 || h.AvgEDPImprovement > 0.4 {
		t.Errorf("average EDP improvement %v, paper reports 27%%", h.AvgEDPImprovement)
	}
	if h.AvgDegradation < 0 || h.AvgDegradation > 0.12 {
		t.Errorf("average degradation %v, paper reports ~5%%", h.AvgDegradation)
	}
	if h.GPHTOverReactive <= 0 {
		t.Errorf("proactive advantage %v, paper reports ~7%%", h.GPHTOverReactive)
	}
}

// TestPredictionFiguresIdenticalAcrossWorkers pins Figures 3-5 to the
// fleet determinism contract: the worker count changes wall time only.
func TestPredictionFiguresIdenticalAcrossWorkers(t *testing.T) {
	figures := map[string]func(Options) (any, error){
		"fig3": func(o Options) (any, error) { return Figure3(o) },
		"fig4": func(o Options) (any, error) { return Figure4(o) },
		"fig5": func(o Options) (any, error) { return Figure5(o) },
	}
	for name, fig := range figures {
		serial, err := fig(Options{Intervals: 300, Seed: 1, Workers: 1})
		if err != nil {
			t.Fatalf("%s workers=1: %v", name, err)
		}
		parallel, err := fig(Options{Intervals: 300, Seed: 1, Workers: 4})
		if err != nil {
			t.Fatalf("%s workers=4: %v", name, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s differs between 1 and 4 workers", name)
		}
	}
}
