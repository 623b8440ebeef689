package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := Median(nil); !math.IsNaN(got) {
		t.Errorf("empty median = %v", got)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileEndpoints(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Percentile(xs, 0); got != 10 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 40 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 25 {
		t.Errorf("p50 = %v", got)
	}
}

func TestPercentileMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(50))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("mean = %v", got)
	}
	want := math.Sqrt(32.0 / 7.0)
	if got := StdDev(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", got, want)
	}
	if !math.IsNaN(StdDev([]float64{1})) {
		t.Error("stddev of single sample should be NaN")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("mean of empty should be NaN")
	}
}

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{3, -4}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMSE = %v", got)
	}
	if !math.IsNaN(RMSE(nil)) {
		t.Error("RMSE of empty should be NaN")
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	xs := make([]float64, 500)
	var r Running
	for i := range xs {
		xs[i] = rng.NormFloat64()*7 + 3
		r.Add(xs[i])
	}
	if math.Abs(r.Mean()-Mean(xs)) > 1e-9 {
		t.Errorf("running mean %v vs %v", r.Mean(), Mean(xs))
	}
	if math.Abs(r.StdDev()-StdDev(xs)) > 1e-9 {
		t.Errorf("running std %v vs %v", r.StdDev(), StdDev(xs))
	}
	if r.N() != 500 {
		t.Errorf("N = %d", r.N())
	}
	minV, maxV := xs[0], xs[0]
	for _, x := range xs {
		minV = math.Min(minV, x)
		maxV = math.Max(maxV, x)
	}
	if r.Min() != minV || r.Max() != maxV {
		t.Errorf("min/max %v/%v vs %v/%v", r.Min(), r.Max(), minV, maxV)
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if !math.IsNaN(r.Mean()) || !math.IsNaN(r.StdDev()) || !math.IsNaN(r.Min()) || !math.IsNaN(r.Max()) {
		t.Error("empty Running should return NaN everywhere")
	}
}
