package experiment

import (
	"fmt"
	"time"

	"aqua/internal/core"
	"aqua/internal/selection"
	"aqua/internal/sim"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

// The open-loop load sweep shared by a13 and a17. sweepReplicas at ~100 ms
// mean service time serve ~50 copies/s; with the warm algorithm settling at
// |K| ≈ 2 the pool saturates near 25 offered req/s, so the sweep covers
// comfortable load, the saturation knee, and a 3×-past-capacity overload.
const (
	sweepReplicas  = 5
	sweepHorizon   = 20 * time.Second // virtual issue window per run
	sweepWarmup    = 5 * time.Second  // excluded from steady-state goodput
	sweepDeadline  = 250 * time.Millisecond
	sweepStaleness = 2 * time.Second // re-probe bound, every variant
	// sweepCeiling is the admission ceiling of the admission-controlled
	// variants. Under saturation the ceiling self-equilibrates admitted
	// response time at roughly ceiling / admitted-rate, so it is sized to
	// keep admitted requests inside the deadline: ~25 admitted/s × 0.25 s
	// ≈ 6 in flight.
	sweepCeiling = 5
	sweepRuns    = 3
)

// sweepRates sweeps the offered load in requests/second.
var sweepRates = []float64{5, 10, 20, 40, 80}

// a13Service is a13's replica service time.
var a13Service = stats.Normal{Mu: 100 * time.Millisecond, Sigma: 30 * time.Millisecond}

// sweepVariant is one scheduler configuration under the load sweep.
type sweepVariant struct {
	name       string
	strategy   func() selection.Strategy
	overload   core.OverloadConfig
	cancel     bool
	controller *core.AdaptiveBudgetConfig
}

// a13Variants contrasts the paper-exact scheduler (select-all fallback, no
// admission control — the A12 amplification) with the budgeted one
// (load-conditioned |K| budget + in-flight ceiling + degradation ladder).
func a13Variants() []sweepVariant {
	return []sweepVariant{
		{
			name:     "paper-exact",
			strategy: func() selection.Strategy { return selection.NewDynamic() },
		},
		{
			name:     "budgeted",
			strategy: func() selection.Strategy { return selection.NewBudgeted() },
			overload: core.OverloadConfig{MaxInFlight: sweepCeiling},
		},
	}
}

// sweepCell averages one (rate, variant) point of the load sweep over
// seeds. Offered load is an open-loop Poisson arrival process (the closed
// loop self-throttles and can never push the pool past saturation, hiding
// exactly the regime the sweep measures).
func sweepCell(service stats.DelayDist, rate float64, v sweepVariant, seeds []int64) (openLoop, error) {
	return runCell(seeds, func(seed int64) sim.Scenario {
		return sim.Scenario{
			Replicas: repeat(sweepReplicas, sim.ReplicaSpec{Service: service}),
			Clients: []sim.ClientSpec{{
				QoS:      wire.QoS{Deadline: sweepDeadline, MinProbability: 0.9},
				Requests: int(rate * sweepHorizon.Seconds()),
				Strategy: v.strategy(),
				Arrival:  stats.Exponential{MeanDelay: time.Duration(float64(time.Second) / rate)},
			}},
			Network:        lan(),
			Overload:       v.overload,
			StalenessBound: sweepStaleness,
			Seed:           seed,
			MaxTime:        4 * time.Hour,
			Cancellation:   v.cancel,
			Controller:     v.controller,
		}
	}, steady(sweepWarmup, sweepHorizon))
}

// RunA13 sweeps offered load through saturation and contrasts the
// paper-exact scheduler with the budgeted/admission-controlled one. The
// paper-exact variant reproduces the A12 collapse: past capacity every
// F_Ri(t) degrades, the line-15 fallback selects all M replicas, and the
// extra copies keep the pool saturated forever — steady-state goodput goes
// to zero. The budgeted variant bounds |K| under the load-conditioned
// budget, sheds excess demand explicitly at the admission ceiling, keeps
// one probe slot so drained replicas are rediscovered, and holds goodput
// within 10% of its peak across the whole overload range.
func RunA13() (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("A13: overload sweep (%d replicas @ ~100ms, deadline=%v, Pc=0.9, open-loop Poisson arrivals)",
			sweepReplicas, sweepDeadline),
		Columns: []string{"offered_rps", "variant", "goodput_rps", "timely_frac", "mean_k", "max_k", "shed", "over_budget"},
		Notes: []string{
			"goodput = steady-state timely completions/s (5s warmup excluded); pool capacity ~25 admitted req/s at |K|=2",
			"paper-exact reproduces the A12 select-all collapse past saturation (~20 req/s offered)",
			"budgeted = selection.NewBudgeted() + MaxInFlight admission ceiling; shed requests are counted, never silently dropped",
			"over_budget counts admitted requests whose |K| exceeded the decision's budget (must stay 0)",
		},
	}
	for _, rate := range sweepRates {
		for _, v := range a13Variants() {
			o, err := sweepCell(a13Service, rate, v, seedRange(1300, sweepRuns))
			if err != nil {
				return nil, fmt.Errorf("experiment: a13 rate=%.0f %s: %w", rate, v.name, err)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f", rate),
				v.name,
				f2(o.Goodput),
				f3(o.TimelyFrac),
				f2(o.MeanK),
				fmt.Sprintf("%d", o.MaxK),
				fmt.Sprintf("%d", o.Shed/sweepRuns),
				fmt.Sprintf("%d", o.OverBudget),
			})
		}
	}
	return t, nil
}
