package rf

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChannelResponseSinglePath(t *testing.T) {
	ch := NewChannel([]Path{{Delay: 2e-9, Gain: 0.5}})
	f := 5.18e9
	h := ch.Response(f)
	if math.Abs(cmplx.Abs(h)-0.5) > 1e-12 {
		t.Errorf("|h| = %v, want 0.5", cmplx.Abs(h))
	}
	wantPhase := math.Mod(-2*math.Pi*f*2e-9, 2*math.Pi)
	for wantPhase <= -math.Pi {
		wantPhase += 2 * math.Pi
	}
	for wantPhase > math.Pi {
		wantPhase -= 2 * math.Pi
	}
	if math.Abs(cmplx.Phase(h)-wantPhase) > 1e-6 {
		t.Errorf("phase = %v, want %v", cmplx.Phase(h), wantPhase)
	}
}

func TestChannelSortsPathsByDelay(t *testing.T) {
	ch := NewChannel([]Path{
		{Delay: 16e-9, Gain: 0.2},
		{Delay: 5.2e-9, Gain: 1},
		{Delay: 10e-9, Gain: 0.5},
	})
	if ch.DirectDelay() != 5.2e-9 {
		t.Errorf("DirectDelay = %v", ch.DirectDelay())
	}
	for i := 1; i < len(ch.Paths); i++ {
		if ch.Paths[i].Delay < ch.Paths[i-1].Delay {
			t.Error("paths not sorted")
		}
	}
}

func TestChannelResponseLinearity(t *testing.T) {
	// Response of a multi-path channel equals the sum of single-path
	// responses.
	paths := []Path{{Delay: 3e-9, Gain: 0.8}, {Delay: 7e-9, Gain: 0.3}}
	sum := NewChannel(paths[:1]).Response(2.4e9) + NewChannel(paths[1:]).Response(2.4e9)
	got := NewChannel(paths).Response(2.4e9)
	if cmplx.Abs(got-sum) > 1e-12 {
		t.Errorf("linearity violated: %v vs %v", got, sum)
	}
}

func TestDirectDelayEmpty(t *testing.T) {
	if got := NewChannel(nil).DirectDelay(); got != 0 {
		t.Errorf("empty DirectDelay = %v", got)
	}
}

func TestFreeSpaceGainDecreasesWithDistance(t *testing.T) {
	f := 5.18e9
	prev := math.Inf(1)
	for d := 0.5; d < 30; d += 0.5 {
		g := FreeSpaceGain(d, f)
		if g >= prev {
			t.Fatalf("gain not decreasing at d=%v", d)
		}
		prev = g
	}
}

func TestFreeSpaceGainClampsNearZero(t *testing.T) {
	if g0, g1 := FreeSpaceGain(0, 5e9), FreeSpaceGain(0.05, 5e9); g0 != g1 {
		t.Error("clamp below 10 cm not applied")
	}
	if math.IsInf(FreeSpaceGain(0, 5e9), 0) {
		t.Error("gain is infinite at d=0")
	}
}

func TestFreeSpaceGainInverseLaw(t *testing.T) {
	f := func(d float64) bool {
		d = 1 + math.Abs(math.Mod(d, 50))
		g1 := FreeSpaceGain(d, 5e9)
		g2 := FreeSpaceGain(2*d, 5e9)
		return math.Abs(g1/g2-2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAWGNStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sigma := 0.1
	n := 20000
	var sumRe, sumIm, sumSq float64
	for i := 0; i < n; i++ {
		noisy := AWGN(rng, 0, sigma)
		sumRe += real(noisy)
		sumIm += imag(noisy)
		sumSq += real(noisy)*real(noisy) + imag(noisy)*imag(noisy)
	}
	if math.Abs(sumRe/float64(n)) > 0.005 || math.Abs(sumIm/float64(n)) > 0.005 {
		t.Errorf("noise mean not ~0: %v %v", sumRe/float64(n), sumIm/float64(n))
	}
	wantPower := 2 * sigma * sigma
	if got := sumSq / float64(n); math.Abs(got-wantPower) > 0.001 {
		t.Errorf("noise power = %v, want %v", got, wantPower)
	}
}

func TestNoiseSigmaForSNR(t *testing.T) {
	// At 20 dB SNR with unit signal, noise power should be 0.01.
	sigma := NoiseSigmaForSNR(1, 20)
	if got := 2 * sigma * sigma; math.Abs(got-0.01) > 1e-12 {
		t.Errorf("noise power = %v, want 0.01", got)
	}
	if got := NoiseSigmaForSNR(1, math.Inf(1)); got != 0 {
		t.Errorf("infinite SNR sigma = %v", got)
	}
}

func TestNewOscillatorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		o := NewOscillator(rng, 20)
		if math.Abs(o.PPM) > 20 {
			t.Errorf("PPM %v out of bounds", o.PPM)
		}
		if o.HWPhase < 0 || o.HWPhase >= 2*math.Pi {
			t.Errorf("HWPhase %v out of range", o.HWPhase)
		}
		if o.HWDelayNs < 0 || o.HWDelayNs > 3 {
			t.Errorf("HWDelayNs %v out of range", o.HWDelayNs)
		}
	}
}
