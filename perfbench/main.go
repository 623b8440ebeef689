// Command perfbench is the end-to-end benchmark of the Chronos
// localization pipeline. It runs one named workload from a seed, checks
// the program's outputs, and prints every metric by name with its unit as
// the last line of standard output:
//
//	perfbench --workload track|fleet|ranging --seed N --seconds S --trace 0|1 [--check]
//
// Every measurement runs in a fresh child process, because the NDFT plan
// registry is process-global. Set-up (office, daemon, plan builds and the
// calibration of every device) is repeated in several children and
// reported as their median; the measured phase runs once, on a fixed
// amount of work derived from --seconds. With --trace 1 the measured
// phase runs twice, untraced and with the obs layer recording, and the
// per-layer metrics come from the traced run. Every process measures the
// host's speed while it works and scales its timings to a nominal speed
// (speed.go), because the reference host slows by up to ~1.6× for minutes
// at a time. NOTES.md explains the workloads, the device cohorts and the
// measured noise floor.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"chronos/internal/stats"
)

// setupReps is how many fresh processes set up per untraced run; setup_s
// is their median.
const setupReps = 5

// runDeadline bounds a whole invocation, children included.
const runDeadline = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	check    bool
	traced   bool // child only: record obs metrics
}

func (o options) validate() error {
	if _, ok := workloads[o.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want track, fleet or ranging)", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	return nil
}

// childResult is what one child process reports to the parent.
type childResult struct {
	SetupS    float64            `json:"setup_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: track, fleet or ranging")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every device config derives from it")
	flag.IntVar(&o.seconds, "seconds", 20, "work size: about this many seconds of measured phase on the reference host")
	flag.IntVar(&o.trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.BoolVar(&o.check, "check", false, "compare every device's fix trace with a sequential track.RunSession, byte for byte")
	child := flag.String("child", "", "internal: run one measurement in this process (setup or run)")
	flag.BoolVar(&o.traced, "traced", false, "internal: record obs metrics in a run child")
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	run := parentMain
	if *child != "" {
		run = func(o options) error { return childMain(*child, o) }
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// childMain runs one measurement in this process and prints its
// childResult as the last line of standard output.
func childMain(mode string, o options) error {
	if mode != "setup" && mode != "run" {
		return fmt.Errorf("unknown child mode %q", mode)
	}
	r, err := measure(o, mode == "setup")
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// parentMain orchestrates the child processes of one invocation and
// prints the result line. It fails when a child fails or, after printing
// the result, when an output check missed.
func parentMain(o options) error {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	host, err := json.Marshal(map[string]any{"host": hostInfo()})
	if err != nil {
		return err
	}
	fmt.Println(string(host))

	var (
		res     *childResult
		metrics map[string]float64
		specs   []metricSpec
	)
	if o.trace == 0 {
		specs = endToEnd
		var setups []float64
		for i := 0; i < setupReps-1; i++ {
			r, err := spawn(ctx, "setup", o)
			if err != nil {
				return err
			}
			setups = append(setups, r.SetupS)
		}
		if res, err = spawn(ctx, "run", o); err != nil {
			return err
		}
		metrics = res.Metrics
		metrics["setup_s"] = stats.Median(append(setups, res.SetupS))
	} else {
		specs = perLayer
		base, err := spawn(ctx, "run", o)
		if err != nil {
			return err
		}
		traced := o
		traced.traced = true
		if res, err = spawn(ctx, "run", traced); err != nil {
			return err
		}
		res.Problems = append(res.Problems, base.Problems...)
		metrics = res.Metrics
		untracedRate := base.Metrics["fixes_per_s"]
		metrics["trace_overhead_pct"] = 100 * (untracedRate - metrics["fixes_per_s"]) / untracedRate
	}

	slow, err := json.Marshal(map[string]float64{"host_slowdown": res.Metrics["host.slowdown"]})
	if err != nil {
		return err
	}
	fmt.Println(string(slow))

	out := output{Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		v, ok := metrics[s.name]
		if !ok {
			res.Problems = append(res.Problems, "metric "+s.name+" was not measured")
		}
		out.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	out.Correct = len(res.Problems) == 0
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// spawn runs one child process of this binary and returns its report.
func spawn(ctx context.Context, mode string, o options) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--child", mode, "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--seconds", strconv.Itoa(o.seconds)}
	if o.check {
		args = append(args, "--check")
	}
	if o.traced {
		args = append(args, "--traced")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var r childResult
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s child: bad report: %w", mode, err)
	}
	if mode == "run" && r.Metrics == nil {
		return nil, errors.New("run child reported no metrics")
	}
	return &r, nil
}
