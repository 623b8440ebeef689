package exp

import (
	"fmt"
	"math/rand"
	"time"

	"chronos/internal/hop"
	"chronos/internal/netsim"
	"chronos/internal/stats"
)

// Fig9a reproduces the band-sweep duration CDF (paper: median 84 ms over
// 35 bands on the Intel 5300).
func Fig9a(o Options) *Result {
	o = o.withDefaults(30)
	ms := runTrials(o, "fig9a", o.Trials, func(t int, rng *rand.Rand) (float64, bool) {
		return hop.RunSchedule(rng, 1, 1).Duration.Seconds() * 1000, true
	})
	res := &Result{
		ID:     "fig9a",
		Title:  "Channel-hop sweep time over all 35 Wi-Fi bands",
		Header: []string{"percentile", "sweep time (ms)"},
	}
	for _, p := range []float64{10, 25, 50, 75, 90, 99} {
		res.Rows = append(res.Rows, []string{fmtF(p, 0), fmtF(stats.Percentile(ms, p), 1)})
	}
	res.Metrics = map[string]float64{
		"median_ms": stats.Median(ms),
		"p99_ms":    stats.Percentile(ms, 99),
	}
	return res
}

// Fig9b reproduces the video-streaming trace: a localization sweep at
// t = 6 s pauses the download but the playout buffer prevents any stall.
func Fig9b(o Options) *Result {
	o = o.withDefaults(1)
	sweep := hop.RunSchedule(trialRNG(o, "fig9b", 0), 1, 1)
	outage := netsim.Outage{Start: 6 * time.Second, Duration: sweep.Duration}
	tr := netsim.Video(12*time.Second, []netsim.Outage{outage})

	res := &Result{
		ID:     "fig9b",
		Title:  fmt.Sprintf("Video stream around a %.0f ms localization sweep at t=6 s", sweep.Duration.Seconds()*1000),
		Header: []string{"t (s)", "downloaded (KB)", "played (KB)", "buffer (KB)"},
	}
	for _, at := range []time.Duration{2 * time.Second, 4 * time.Second, 5900 * time.Millisecond,
		6050 * time.Millisecond, 6200 * time.Millisecond, 8 * time.Second, 11 * time.Second} {
		i := indexAt(tr.Downloaded, at)
		d, p := tr.Downloaded[i].Value, tr.Played[i].Value
		res.Rows = append(res.Rows, []string{
			fmtF(at.Seconds(), 2), fmtF(d/1e3, 0), fmtF(p/1e3, 0), fmtF((d-p)/1e3, 0),
		})
	}
	res.Rows = append(res.Rows, []string{"stalls", fmt.Sprintf("%d", tr.Stalls), "", ""})
	res.Metrics = map[string]float64{
		"stalls":       float64(tr.Stalls),
		"sweep_ms":     sweep.Duration.Seconds() * 1000,
		"stall_time_s": tr.StallTime.Seconds(),
	}
	return res
}

func indexAt(samples []netsim.Sample, at time.Duration) int {
	for i, s := range samples {
		if s.At >= at {
			return i
		}
	}
	return len(samples) - 1
}

// Fig9c reproduces the TCP-throughput trace: the sweep at t = 6 s dips
// 1 s-window throughput by a few percent (paper: ≈6.5%).
func Fig9c(o Options) *Result {
	o = o.withDefaults(1)
	rng := trialRNG(o, "fig9c", 0)
	sweep := hop.RunSchedule(rng, 1, 1)
	outage := netsim.Outage{Start: 6 * time.Second, Duration: sweep.Duration}
	samples := netsim.TCPTrace(rng, 15*time.Second, time.Second, []netsim.Outage{outage})

	res := &Result{
		ID:     "fig9c",
		Title:  fmt.Sprintf("TCP throughput around a %.0f ms localization sweep at t=6 s", sweep.Duration.Seconds()*1000),
		Header: []string{"t (s)", "throughput (Mbit/s)"},
	}
	for _, s := range samples {
		res.Rows = append(res.Rows, []string{fmtF(s.At.Seconds(), 0), fmtF(s.Value/1e6, 2)})
	}
	dip := netsim.ThroughputDipPercent(samples, outage)
	res.Rows = append(res.Rows, []string{"dip at outage", fmtF(dip, 1) + "%"})
	res.Metrics = map[string]float64{
		"dip_percent": dip,
		"sweep_ms":    sweep.Duration.Seconds() * 1000,
	}
	return res
}
