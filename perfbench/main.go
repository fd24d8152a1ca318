// Command perfbench is the repository's benchmark: it times whole
// Client.Call round trips through gateway, transport, replica queue and
// back, over four workloads, and checks every reply. See README.md.
//
//	perfbench --workload echo-inmem --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object holding the
// end-to-end metrics (--trace 0) or the per-layer metrics of the traced run
// (--trace 1). The lines before it are the human-readable report: the
// environment stamp, sample counts, failure classes and generator
// lateness. The exit code is non-zero when any output check failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	source   string
	spansDir string
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	fs.StringVar(&o.source, "source", "unknown", "identity of the source tree, for the environment stamp")
	fs.StringVar(&o.spansDir, "spans-dir", "", "directory for the traced run's span file (none when empty)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	return o, nil
}

// numCallers is the closed-loop caller count: one per CPU.
func numCallers() int { return runtime.NumCPU() }

func run(args []string, stdout io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"seed":       o.seed,
		"source":     o.source,
		"workload":   w.name,
		"transport":  w.transportName(),
		"traced":     o.trace == 1,
	}
	envLine, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Fprintf(stdout, "env %s\n", envLine)

	ctx := context.Background()
	window := time.Duration(o.seconds * float64(time.Second))
	var out *runOut
	if o.trace == 1 {
		out, err = runTraced(ctx, w, o.seed, window, o.spansDir)
	} else {
		out, err = runE2E(ctx, w, o.seed, window)
	}
	if err != nil {
		return err
	}
	for _, line := range out.report {
		fmt.Fprintln(stdout, line)
	}
	for _, m := range slices.Concat(out.metrics, out.extras) {
		fmt.Fprintf(stdout, "metric %s %.6g %s\n", m.name, m.value, m.unit)
	}
	for _, p := range out.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	if err := writeResult(stdout, out); err != nil {
		return err
	}
	if len(out.problems) > 0 {
		return fmt.Errorf("%d output checks failed", len(out.problems))
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeResult prints the final JSON line.
func writeResult(w io.Writer, out *runOut) error {
	r := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(out.metrics)),
	}
	for _, m := range out.metrics {
		r.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
