package exp

import (
	"math"
	"strings"
	"testing"
)

func TestFig3SolvesExactTau(t *testing.T) {
	r := Fig3(Options{})
	if e := r.Metrics["error_ps"]; math.IsNaN(e) || e > 10 {
		t.Errorf("CRT error = %v ps, want < 10 ps", e)
	}
	if len(r.Rows) != 6 { // 5 bands + solution row
		t.Errorf("rows = %d", len(r.Rows))
	}
}

func TestFig4RecoversThreePaths(t *testing.T) {
	r := Fig4(Options{})
	if p := r.Metrics["peaks"]; p < 3 || p > 6 {
		t.Errorf("peaks = %v, want 3–6", p)
	}
	if e := r.Metrics["first_peak_err_ps"]; e > 300 {
		t.Errorf("first peak error = %v ps", e)
	}
}

func TestFig7aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	r := Fig7a(Options{Trials: 8})
	los := r.Metrics["median_LOS_ns"]
	nlos := r.Metrics["median_NLOS_ns"]
	// Sub-ns medians, the paper's headline shape.
	if los > 1.5 {
		t.Errorf("LOS median = %v ns, want sub-ns-ish", los)
	}
	if nlos > 3 {
		t.Errorf("NLOS median = %v ns", nlos)
	}
}

func TestFig7bSparsity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	r := Fig7b(Options{Trials: 8})
	mean := r.Metrics["mean_peaks"]
	// Paper: 5.05 ± 1.95 dominant peaks — profiles must be sparse.
	if mean < 2 || mean > 12 {
		t.Errorf("mean peaks = %v", mean)
	}
}

func TestFig7cDelayDominatesToF(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	r := Fig7c(Options{Trials: 5})
	if m := r.Metrics["median_delay_ns"]; m < 150 || m > 220 {
		t.Errorf("median delay = %v ns, want ≈177", m)
	}
	if ratio := r.Metrics["delay_tof_ratio"]; ratio < 4 {
		t.Errorf("delay/ToF ratio = %v, want ≫1 (paper ≈8)", ratio)
	}
}

func TestFig8aErrorsGrowWithDistance(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	r := Fig8a(Options{Trials: 20})
	near, far := r.Metrics["near_err_m"], r.Metrics["far_err_m"]
	if math.IsNaN(near) || math.IsNaN(far) {
		t.Skip("buckets unpopulated at this trial count")
	}
	if near > 1.0 {
		t.Errorf("near-range error = %v m", near)
	}
}

func TestFig9aMedianNear84ms(t *testing.T) {
	r := Fig9a(Options{Trials: 30})
	if m := r.Metrics["median_ms"]; m < 70 || m > 100 {
		t.Errorf("median sweep = %v ms, want ≈84", m)
	}
}

func TestFig9bNoStall(t *testing.T) {
	r := Fig9b(Options{})
	if r.Metrics["stalls"] != 0 {
		t.Errorf("stalls = %v, want 0", r.Metrics["stalls"])
	}
}

func TestFig9cDipSingleDigit(t *testing.T) {
	r := Fig9c(Options{})
	if d := r.Metrics["dip_percent"]; d < 1 || d > 25 {
		t.Errorf("dip = %v%%, want small single digits (paper 6.5%%)", d)
	}
}

func TestFig10aMedianCentimeters(t *testing.T) {
	r := Fig10a(Options{Trials: 3})
	if m := r.Metrics["median_cm"]; m > 4.2 {
		t.Errorf("median deviation = %v cm, want at most the paper's 4.2", m)
	}
}

func TestFig10bHoldsTarget(t *testing.T) {
	mean := Fig10b(Options{}).Metrics["mean_distance_m"]
	if math.Abs(mean-1.4) > 0.25 {
		t.Errorf("steady mean distance = %v m, want ≈1.4", mean)
	}
}

func TestResultStringRendering(t *testing.T) {
	r := &Result{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "22"}, {"333", "4"}},
	}
	s := r.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "333") {
		t.Errorf("rendering missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Errorf("lines = %d", len(lines))
	}
}

func TestAblationDelayOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	r := AblationDelay(Options{Seed: 2, Trials: 8})
	spline := r.Metrics["median_0_ns"]
	nearest := r.Metrics["median_2_ns"]
	toa := r.Metrics["median_toa_ns"]
	// Nearest-subcarrier keeps the per-packet delay jitter (~2π·312.5 kHz·σδ
	// per measurement). Its signature is strongest in the error tail —
	// occasional large misses — with a modest median penalty; the trials
	// are placement-paired with the spline arm, so the interpolation mode
	// is the only variable.
	if nearest <= spline {
		t.Errorf("nearest-subcarrier median (%v ns) not worse than spline (%v ns)", nearest, spline)
	}
	if sp90, np90 := r.Metrics["p90_0_ns"], r.Metrics["p90_2_ns"]; np90 < 5*sp90 {
		t.Errorf("nearest-subcarrier p90 (%v ns) lacks the jitter tail of spline p90 (%v ns)", np90, sp90)
	}
	// Uncompensated time of arrival is catastrophically worse: tens of ns.
	if toa < 50*spline {
		t.Errorf("ToA (%v ns) should dwarf spline (%v ns)", toa, spline)
	}
}

// TestToAErrorDominatesChronos pins the delay ablation's time-of-arrival
// row: uncompensated ToA error is tens of ns — orders beyond Chronos's
// sub-ns. This is the Fig. 7c punchline.
func TestToAErrorDominatesChronos(t *testing.T) {
	toa := AblationDelay(Options{Seed: 3, Trials: 1}).Metrics["median_toa_ns"]
	if toa < 5 {
		t.Errorf("median ToA error = %v ns, implausibly small", toa)
	}
	if toa > 100 {
		t.Errorf("median ToA error = %v ns, implausibly large", toa)
	}
}

func TestAblationCFOOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	r := AblationCFO(Options{Trials: 6})
	paper := r.Metrics["median_0_ns"]
	fwd := r.Metrics["median_1_ns"]
	if fwd < 2*paper {
		t.Errorf("forward-only (%v ns) not clearly worse than product (%v ns)", fwd, paper)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults(7)
	if o.Seed != 1 || o.Trials != 7 {
		t.Errorf("defaults = %+v", o)
	}
	o = Options{Seed: 5, Trials: 2}.withDefaults(7)
	if o.Seed != 5 || o.Trials != 2 {
		t.Errorf("explicit = %+v", o)
	}
}
