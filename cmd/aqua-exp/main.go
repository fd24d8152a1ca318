// Command aqua-exp regenerates the paper's evaluation results and the
// ablation studies listed in DESIGN.md.
//
// Usage:
//
//	aqua-exp -exp all            # every experiment
//	aqua-exp -exp fig4           # one experiment (aqua-exp -h lists the ids)
//	aqua-exp -exp fig5 -csv      # machine-readable output
//	aqua-exp -exp fig3 -quick    # reduced iteration counts
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"aqua/internal/experiment"
	"aqua/internal/metrics"
)

func main() {
	var (
		exp          = flag.String("exp", "all", "experiment id: "+ids())
		csv          = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		plot         = flag.Bool("plot", false, "also render ASCII charts for fig4/fig5")
		quick        = flag.Bool("quick", false, "reduced iterations/runs for a fast pass")
		predictOut   = flag.String("predict-out", "BENCH_predict.json", "output file for the predict benchmark (-exp predict)")
		tputOut      = flag.String("throughput-out", "BENCH_throughput.json", "output file for the throughput benchmark (-exp throughput)")
		tputAgainst  = flag.String("throughput-against", "", "baseline BENCH_throughput.json to fence against; non-zero exit on regression (-exp throughput)")
		metricsAddr  = flag.String("metrics-addr", "", "serve live metrics over HTTP on this address (\":0\" picks a free port): Prometheus text at /metrics, JSON at /metrics.json, pprof under /debug/pprof/")
		metricsEvery = flag.Duration("metrics-every", 0, "periodically dump a metrics snapshot as JSON to stderr (0 = off)")
	)
	flag.Parse()

	if *metricsAddr != "" {
		srv, err := metrics.Serve(*metricsAddr, metrics.Default())
		if err != nil {
			fmt.Fprintln(os.Stderr, "aqua-exp: metrics server:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "aqua-exp: metrics on http://%s/metrics\n", srv.Addr())
	}
	if *metricsEvery > 0 {
		stop := startMetricsDumper(*metricsEvery)
		defer stop()
	}

	if err := run(strings.ToLower(*exp), *csv, *quick, *plot, *predictOut, *tputOut, *tputAgainst); err != nil {
		fmt.Fprintln(os.Stderr, "aqua-exp:", err)
		os.Exit(1)
	}
}

// startMetricsDumper writes the default registry to stderr every interval,
// and once more on stop, so long runs leave a metrics trail even when no one
// scrapes the HTTP endpoint.
func startMetricsDumper(every time.Duration) (stop func()) {
	dump := func() {
		fmt.Fprintf(os.Stderr, "aqua-exp: metrics @ %s\n", time.Now().Format(time.RFC3339))
		_ = metrics.Default().WriteJSON(os.Stderr)
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				dump()
			case <-done:
				dump()
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// benchmarkIDs time this host rather than the algorithm and write baseline
// JSON, so they run only by id, never under "all".
const benchmarkIDs = "predict, throughput"

// ids lists every id -exp accepts.
func ids() string {
	var b strings.Builder
	for _, e := range experiment.Experiments {
		b.WriteString(e.ID + ", ")
	}
	return b.String() + benchmarkIDs + ", or all"
}

func run(exp string, csv, quick, plot bool, predictOut, tputOut, tputAgainst string) error {
	emit := func(t *experiment.Table) error {
		if csv {
			if err := t.WriteCSV(os.Stdout); err != nil {
				return err
			}
		} else {
			if err := t.WriteText(os.Stdout); err != nil {
				return err
			}
			if _, err := fmt.Println(); err != nil {
				return err
			}
		}
		if plot && t.Plot != nil {
			return t.Plot.Render(os.Stdout)
		}
		return nil
	}
	runOne := func(e experiment.Experiment) error {
		t, err := e.Run(quick)
		if err != nil {
			return err
		}
		return emit(t)
	}

	switch exp {
	case "all":
		for _, e := range experiment.Experiments {
			if err := runOne(e); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		return nil
	case "predict":
		return runPredict(quick, predictOut, emit)
	case "throughput":
		return runThroughput(quick, tputOut, tputAgainst, emit)
	}
	for _, e := range experiment.Experiments {
		if e.ID == exp {
			return runOne(e)
		}
	}
	return fmt.Errorf("unknown experiment %q (want %s)", exp, ids())
}

// runPredict measures δ on the prediction paths and writes the result to
// out (BENCH_predict.json by default).
func runPredict(quick bool, out string, emit func(*experiment.Table) error) error {
	cfg := experiment.DefaultPredictBenchConfig()
	if quick {
		cfg.WindowSize = 20
	}
	res, err := experiment.RunPredictBench(cfg)
	if err != nil {
		return err
	}
	if err := emit(experiment.PredictBenchTable(res)); err != nil {
		return err
	}
	if out == "" {
		return nil
	}
	blob, err := experiment.MarshalPredictBench(res)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// runThroughput measures decision throughput, fences it against the
// baseline file when one is named, and writes the result to out.
func runThroughput(quick bool, out, against string, emit func(*experiment.Table) error) error {
	cfg := experiment.DefaultThroughputConfig()
	if quick {
		cfg.Requests = 3000
		cfg.WindowSize = 30
	}
	res, err := experiment.RunThroughput(cfg)
	if err != nil {
		return err
	}
	if err := emit(experiment.ThroughputTable(res)); err != nil {
		return err
	}
	if against != "" {
		blob, err := os.ReadFile(against)
		if err != nil {
			return fmt.Errorf("reading throughput baseline: %w", err)
		}
		base, err := experiment.UnmarshalThroughput(blob)
		if err != nil {
			return err
		}
		if err := experiment.ThroughputFence(res, base); err != nil {
			return err
		}
		fmt.Printf("throughput fence passed against %s\n", against)
	}
	if out == "" {
		return nil
	}
	blob, err := experiment.MarshalThroughput(res)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
