package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"chronos/internal/sim"
	"chronos/internal/svc"
	"chronos/internal/tof"
	"chronos/internal/track"
)

// checker verifies a run's outputs: exact fix accounting, finite ranges,
// error-free retirement, and byte-for-byte agreement of fix traces with a
// sequential track.RunSession of the same device config — every device
// with --check, one device chosen by the seed otherwise. It also collects
// the accuracy samples.
type checker struct {
	o                 options
	office            *sim.Office
	attempted, failed int
	problems          []string
	errsCm            []float64
}

func newChecker(o options, office *sim.Office) *checker {
	return &checker{o: o, office: office}
}

func (c *checker) fail(n int, format string, args ...any) {
	c.failed += n
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// daemonErrors records every device that retired with an error. The
// fixes such a device missed are counted as failed by the accounting.
func (c *checker) daemonErrors(all map[uint64]*svc.DeviceResult) {
	for id, r := range all {
		if r.Err != nil {
			c.fail(0, "device %d retired with error: %v", id, r.Err)
		}
	}
}

// sessions checks that each device produced exactly sweeps final fixes,
// all finite, and compares the selected devices' traces with RunSession.
func (c *checker) sessions(devs []device, sweeps int, results map[uint64]*track.SessionResult) {
	spot := int(uint64(c.o.seed) % uint64(len(devs)))
	for i, d := range devs {
		c.attempted += sweeps
		r := results[d.id]
		if r == nil {
			c.fail(sweeps, "device %d has no session result", d.id)
			continue
		}
		if n := len(r.Fixes); n != sweeps {
			c.fail(max(sweeps-n, 1), "device %d: %d fixes, want %d", d.id, n, sweeps)
		}
		c.finite(d.id, r)
		for _, f := range r.Fixes {
			c.errsCm = append(c.errsCm, 100*math.Abs(f.Smoothed-f.TrueRange))
		}
		if c.o.check || i == spot {
			c.compare(d, sweeps, r)
		}
	}
}

// finite counts fixes with a non-finite range as failed.
func (c *checker) finite(id uint64, r *track.SessionResult) {
	for _, f := range r.Fixes {
		if math.IsNaN(f.Range) || math.IsInf(f.Range, 0) || math.IsNaN(f.Smoothed) || math.IsInf(f.Smoothed, 0) {
			c.fail(1, "device %d: non-finite range at %v", id, f.At)
		}
	}
}

// compare replays the device through a sequential track.RunSession and
// requires a byte-identical fix trace.
func (c *checker) compare(d device, sweeps int, got *track.SessionResult) {
	want, err := track.RunSession(rand.New(rand.NewSource(d.seed)), c.office,
		tof.NewEstimator(estimatorConfig()), sessionConfig(d, sweeps))
	if err != nil {
		c.fail(0, "device %d: reference session: %v", d.id, err)
		return
	}
	if g, w := fixTrace(got), fixTrace(want); g != w {
		c.fail(0, "device %d: fix trace differs from sequential RunSession:\n got:\n%s want:\n%s", d.id, g, w)
	}
}

// fixTrace renders a session's fixes at full float precision, so two
// runs compare byte for byte. Batch width is left out: it is timing
// telemetry, not part of the result.
func fixTrace(r *track.SessionResult) string {
	var b strings.Builder
	for _, f := range append(append([]track.Fix{}, r.EarlyFixes...), r.Fixes...) {
		fmt.Fprintf(&b, "at=%d lat=%d bands=%d range=%x smoothed=%x true=%x early=%v acc=%v work=%d conv=%v\n",
			f.At, f.Latency, f.Bands, f.Range, f.Smoothed, f.TrueRange, f.Early, f.Accepted, f.Work, f.Converged)
	}
	return b.String()
}

// finish fills the child report from the checks and the phase.
func (c *checker) finish(res *childResult, p *phase) *childResult {
	res.Attempted, res.Failed, res.Problems = c.attempted, c.failed, c.problems
	if p.fixes == 0 {
		res.Problems = append(res.Problems, "no fixes in the measured phase")
		p.fixes = 1 // keep the rates finite; the run is already failed
	}
	if c.o.traced {
		res.Metrics = p.layerMetrics()
	} else {
		res.Metrics = p.endToEndMetrics()
	}
	return res
}
