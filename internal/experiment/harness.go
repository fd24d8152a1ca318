package experiment

// The simulator-driven experiments share one harness. repeat builds the
// replica pool, runCell runs a scenario builder over a seed list and averages a
// per-run extraction (a closedLoop or an openLoop sample), and Experiments
// maps every experiment id to its runner. A new experiment is a registry
// entry whose runner builds scenarios from seeds, extracts one sample per
// run, and formats the averaged cells as a Table.

import (
	"time"

	"aqua/internal/sim"
	"aqua/internal/stats"
)

// Experiment is one registered experiment: the id aqua-exp -exp selects and
// the runner that builds its table (quick selects the reduced
// configuration where the experiment has one).
type Experiment struct {
	ID  string
	Run func(quick bool) (*Table, error)
}

// Experiments lists every experiment once, in the order aqua-exp -exp all
// runs them.
var Experiments = []Experiment{
	{"fig4", func(quick bool) (*Table, error) { return fig45Table(quick, Fig4Table) }},
	{"fig5", func(quick bool) (*Table, error) { return fig45Table(quick, Fig5Table) }},
	{"e0", func(quick bool) (*Table, error) {
		cfg := DefaultE0Config()
		if quick {
			cfg.Requests = 50
		}
		res, err := RunE0(cfg)
		if err != nil {
			return nil, err
		}
		return E0Table(res), nil
	}},
	{"fig3", func(quick bool) (*Table, error) {
		cfg := DefaultFig3Config()
		if quick {
			cfg.Iterations = 30
		}
		rows, err := RunFig3(cfg)
		if err != nil {
			return nil, err
		}
		return Fig3Table(rows), nil
	}},
	{"faults", func(quick bool) (*Table, error) {
		cfg := DefaultFaultsConfig()
		if quick {
			cfg.Warmup = 15
			cfg.Requests = 40
		}
		res, err := RunFaults(cfg)
		if err != nil {
			return nil, err
		}
		return FaultsTable(res), nil
	}},
	{"v1", fixed(RunV1)},
	{"a1", fixed(RunA1)},
	{"a2", fixed(RunA2)},
	{"a3", fixed(RunA3)},
	{"a4", fixed(RunA4)},
	{"a5", fixed(RunA5)},
	{"a6", fixed(RunA6)},
	{"a7", fixed(RunA7)},
	{"a8", fixed(RunA8)},
	{"a9", fixed(RunA9)},
	{"a10", fixed(RunA10)},
	{"a11", fixed(RunA11)},
	{"a12", fixed(RunA12)},
	{"a13", fixed(RunA13)},
	{"a14", fixed(RunA14)},
	{"a15", RunA15},
	{"a16", RunA16},
	{"a17", fixed(RunA17)},
	{"a18", fixed(RunA18)},
}

// fixed adapts an experiment without a quick mode to the registry.
func fixed(run func() (*Table, error)) func(bool) (*Table, error) {
	return func(bool) (*Table, error) { return run() }
}

// fig45Table runs the Figure 4/5 sweep (one seed in quick mode) and formats
// it with table.
func fig45Table(quick bool, table func([]Fig45Row) *Table) (*Table, error) {
	cfg := DefaultFig45Config()
	if quick {
		cfg.Runs = 1
	}
	rows, err := RunFig45(cfg)
	if err != nil {
		return nil, err
	}
	return table(rows), nil
}

// repeat returns n copies of v: a pool of identical replicas, or a group of
// identical clients.
func repeat[T any](n int, v T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// normal is a replica with normally distributed service time, the paper's
// simulated load.
func normal(mu, sigma time.Duration) sim.ReplicaSpec {
	return sim.ReplicaSpec{Service: stats.Normal{Mu: mu, Sigma: sigma}}
}

// lan is the 500 µs constant one-way delay every single-site experiment
// runs on.
func lan() sim.NetworkModel {
	return sim.NetworkModel{Base: stats.Constant{Delay: 500 * time.Microsecond}}
}

// seedRange returns the n consecutive seeds base, base+1, ...
func seedRange(base int64, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// sample is what a cell extracts from one run: plus folds the next run in,
// mean turns the fold over runs into the cell's value.
type sample[T any] interface {
	plus(T) T
	mean(runs int) T
}

// runCell runs the scenario build(seed) for every seed, extracts a sample from
// each result, and returns their mean, summed in seed order and divided
// once at the end.
func runCell[T sample[T]](seeds []int64, build func(seed int64) sim.Scenario, extract func(*sim.Result) T) (T, error) {
	var sum T
	for _, seed := range seeds {
		res, err := sim.Run(build(seed))
		if err != nil {
			return sum, err
		}
		sum = sum.plus(extract(res))
	}
	return sum.mean(len(seeds)), nil
}

// closedLoop is one client's outcome in a run: the Figure 4 and 5 metrics
// plus response times and the whole pool's server work (the redundancy
// cost).
type closedLoop struct {
	Selected float64 // mean |K|
	FailProb float64 // observed timing-failure probability
	MeanRT   time.Duration
	P95      time.Duration
	Served   float64
}

// client extracts client i's closedLoop sample.
func client(i int) func(*sim.Result) closedLoop {
	return func(res *sim.Result) closedLoop {
		c := res.Clients[i]
		return closedLoop{
			Selected: c.MeanSelected(),
			FailProb: c.FailureProbability(),
			MeanRT:   c.MeanResponseTime(),
			P95:      c.ResponseTimePercentile(95),
			Served:   float64(res.TotalServed()),
		}
	}
}

func (s closedLoop) plus(x closedLoop) closedLoop {
	s.Selected += x.Selected
	s.FailProb += x.FailProb
	s.MeanRT += x.MeanRT
	s.P95 += x.P95
	s.Served += x.Served
	return s
}

func (s closedLoop) mean(runs int) closedLoop {
	n := float64(runs)
	s.Selected /= n
	s.FailProb /= n
	s.MeanRT /= time.Duration(runs)
	s.P95 /= time.Duration(runs)
	s.Served /= n
	return s
}

// openLoop is the steady-state outcome of one open-loop run of a
// single-client scenario. Goodput counts timely completions issued after
// the warmup per second of post-warmup makespan, so the cold-start
// transient every variant pays does not mask the regime a sweep measures.
// Averaged over a cell its rates and P95 are means, its counts are totals
// over the runs, MaxK is the largest over the runs and Budget is the last
// run's.
type openLoop struct {
	Goodput    float64 // steady-state timely completions per second
	TimelyFrac float64 // timely / issued, whole run
	MeanK      float64 // mean |K| over admitted requests
	P95        time.Duration
	MaxK       int // largest |K| over admitted requests
	Shed       int
	OverBudget int // admitted requests with |K| above their budget
	Issued     int
	Cancels    int // Cancel messages sent
	Purged     int // cancelled copies removed from replica queues
	Aborted    int // cancelled copies aborted mid-service
	Budget     int // controller's final set point (0 when no controller)
}

// steady extracts the openLoop sample of a run whose requests are issued
// over horizon, the first warmup of it excluded from goodput.
func steady(warmup, horizon time.Duration) func(*sim.Result) openLoop {
	return func(res *sim.Result) openLoop {
		c := res.Clients[0]
		out := openLoop{
			P95:     c.ResponseTimePercentile(95),
			MaxK:    c.MaxSelected(),
			Shed:    c.ShedCount(),
			Issued:  len(c.Records),
			Cancels: res.CancelsSent,
			Purged:  res.CancelsPurged,
			Aborted: res.CancelsAborted,
			Budget:  c.Controller.Budget,
		}
		var makespan time.Duration
		timely, ssTimely, admitted, kSum := 0, 0, 0, 0
		for _, rec := range c.Records {
			if end := rec.IssuedAt + rec.ResponseTime; end > makespan {
				makespan = end
			}
			if rec.Shed {
				continue
			}
			admitted++
			kSum += rec.NumSelected
			if rec.Budget > 0 && rec.NumSelected > rec.Budget {
				out.OverBudget++
			}
			if rec.GotReply && !rec.Failure {
				timely++
				if rec.IssuedAt >= warmup {
					ssTimely++
				}
			}
		}
		if makespan <= warmup {
			makespan = horizon
		}
		out.Goodput = float64(ssTimely) / (makespan - warmup).Seconds()
		if out.Issued > 0 {
			out.TimelyFrac = float64(timely) / float64(out.Issued)
		}
		if admitted > 0 {
			out.MeanK = float64(kSum) / float64(admitted)
		}
		return out
	}
}

func (s openLoop) plus(x openLoop) openLoop {
	s.Goodput += x.Goodput
	s.TimelyFrac += x.TimelyFrac
	s.MeanK += x.MeanK
	s.P95 += x.P95
	s.MaxK = max(s.MaxK, x.MaxK)
	s.Shed += x.Shed
	s.OverBudget += x.OverBudget
	s.Issued += x.Issued
	s.Cancels += x.Cancels
	s.Purged += x.Purged
	s.Aborted += x.Aborted
	s.Budget = x.Budget
	return s
}

func (s openLoop) mean(runs int) openLoop {
	n := float64(runs)
	s.Goodput /= n
	s.TimelyFrac /= n
	s.MeanK /= n
	s.P95 /= time.Duration(runs)
	return s
}
