package experiment

import (
	"fmt"
	"runtime"
	"time"

	"aqua/internal/core"
	"aqua/internal/sim"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

// A14 configuration: the §5.4 chaos soak. Five hosts serve two closed-loop
// clients for ~90 seconds of virtual time while a deterministic fault
// schedule churns through the three timing-fault classes the paper names —
// a persistently slow host, a crashed host, and an overloaded link — with
// the full lifecycle loop (suspicion → quarantine → rejuvenation →
// probation re-admission) enabled. The soak is an acceptance harness, not
// just a table: RunA14 returns an error when any recovery bound is missed.
const (
	a14Hosts    = 5
	a14Deadline = 60 * time.Millisecond
	a14Pc       = 0.9
	// a14Recovery bounds how long after a fault clears the pool may take to
	// deliver >= Pc timely again. It covers a staleness re-probe cycle, a
	// quarantine window refill, a restart, and a probation warm-up.
	a14Recovery = 5 * time.Second
	// Fault schedule (virtual time). Each fault gets a quiet measurement
	// window after it clears (plus a14Recovery of grace).
	a14SlowFrom   = 10 * time.Second
	a14SlowUntil  = 30 * time.Second
	a14CrashAt    = 45 * time.Second
	a14LinkFrom   = 60 * time.Second
	a14LinkUntil  = 70 * time.Second
	a14SoakEnd    = 88 * time.Second
	a14Staleness  = 750 * time.Millisecond
	a14ProbeEvery = 100 * time.Millisecond
)

// a14Window is one measured slice of the soak: requests issued in
// [from, until) with the expected floor on the timely fraction.
type a14Window struct {
	name  string
	from  time.Duration
	until time.Duration
}

// timely counts the requests every client issued inside the window, how
// many of them were timely, and the timely fraction (0 when none were
// issued).
func (w a14Window) timely(res *sim.Result) (issued, timely int, frac float64) {
	for _, c := range res.Clients {
		for _, rec := range c.Records {
			if rec.IssuedAt < w.from || rec.IssuedAt >= w.until {
				continue
			}
			issued++
			if rec.GotReply && !rec.Failure {
				timely++
			}
		}
	}
	if issued > 0 {
		frac = float64(timely) / float64(issued)
	}
	return issued, timely, frac
}

// checkLifecycle reports through fail when a soak's lifecycle loop did not
// close: the slow host was never quarantined or rejuvenated, restarts broke
// the storm cap, a quarantined or probation replica was selected, or a
// client leaked pending entries.
func checkLifecycle(res *sim.Result, fail func(format string, args ...any)) {
	if res.Quarantines < 1 {
		fail("no quarantine recorded; the slow host was never ejected")
	}
	if res.Restarts < 1 {
		fail("no rejuvenation restart recorded")
	}
	if res.Restarts > sim.DefaultSimMaxRestarts {
		fail("restarts %d exceed the storm cap %d", res.Restarts, sim.DefaultSimMaxRestarts)
	}
	if res.ProbationViolations != 0 {
		fail("%d probation/quarantine replicas appeared in selections", res.ProbationViolations)
	}
	for i, c := range res.Clients {
		if c.Outstanding != 0 {
			fail("client %d leaked %d pending entries", i, c.Outstanding)
		}
	}
}

// a14Windows are the quiet windows where the Pc bound must hold: before any
// fault, and after each fault clears plus the recovery grace.
func a14Windows() []a14Window {
	return []a14Window{
		{name: "baseline", from: 2 * time.Second, until: a14SlowFrom},
		{name: "post-slow", from: a14SlowUntil + a14Recovery, until: a14CrashAt},
		{name: "post-crash", from: a14CrashAt + a14Recovery, until: a14LinkFrom},
		{name: "post-link", from: a14LinkUntil + a14Recovery, until: a14SoakEnd},
	}
}

// a14Scenario builds the soak. Deterministic for a fixed seed: the virtual
// kernel, the split random streams, and the fixed fault schedule leave no
// wall-clock dependence.
func a14Scenario(seed int64) sim.Scenario {
	replicas := repeat(a14Hosts, normal(25*time.Millisecond, 5*time.Millisecond))
	// Host 1 turns persistently slow — every reply blows the deadline until
	// the host "heals" at a14SlowUntil. Rejuvenation restarts it, but the
	// window is host-level, so replacements stay sick until then (the case
	// the storm cap exists for).
	replicas[1].Slow = stats.Constant{Delay: 150 * time.Millisecond}
	replicas[1].SlowFrom = a14SlowFrom
	replicas[1].SlowUntil = a14SlowUntil
	// Host 2 crashes outright and stays down: the classic §5.4 crash fault,
	// absorbed by membership detection rather than the lifecycle loop.
	replicas[2].CrashAt = a14CrashAt

	return sim.Scenario{
		Replicas: replicas,
		Clients: repeat(2, sim.ClientSpec{
			QoS:      wire.QoS{Deadline: a14Deadline, MinProbability: a14Pc},
			Requests: 1900,
			Think:    20 * time.Millisecond,
		}),
		Network: lan(),
		// Host 3's link degrades for ten seconds: replies survive but arrive
		// ~100ms late in each direction, the paper's overloaded-link class.
		Faults: []sim.LinkFault{{
			Replica: 3, From: a14LinkFrom, Until: a14LinkUntil,
			ExtraDelay: stats.Constant{Delay: 100 * time.Millisecond},
		}},
		StalenessBound: a14Staleness,
		Lifecycle: core.LifecycleConfig{
			Enabled:         true,
			WindowSize:      12,
			MinObservations: 6,
		},
		ProbeInterval: a14ProbeEvery,
		Rejuvenation:  sim.RejuvenationSpec{Enabled: true, RestartDelay: 250 * time.Millisecond},
		Seed:          seed,
		MaxTime:       10 * time.Minute,
	}
}

// a14Seed keeps `make a14` reproducible run to run.
const a14Seed = 1400

// RunA14 executes the chaos soak and enforces its acceptance criteria:
//
//   - after each injected fault clears, the timely fraction over the next
//     quiet window is back at >= Pc (recovery within a14Recovery);
//   - the persistently slow host is quarantined and restarted at least
//     once, and restarts stay under the storm cap;
//   - no quarantined or probation replica is ever selected while a
//     selectable one exists (ProbationViolations == 0);
//   - every scheduler drains its pending table (no entry leaks);
//   - the soak spawns no goroutines (virtual kernel, single-threaded).
//
// Violations return an error so `make a14` fails loudly in CI.
func RunA14() (*Table, error) {
	gBefore := runtime.NumGoroutine()
	res, err := sim.Run(a14Scenario(a14Seed))
	if err != nil {
		return nil, fmt.Errorf("experiment: a14 soak: %w", err)
	}

	t := &Table{
		Title: fmt.Sprintf("A14: §5.4 chaos soak (%d hosts @ ~25ms, deadline=%v, Pc=%.1f, slow/crash/link churn over %v virtual)",
			a14Hosts, a14Deadline, a14Pc, a14SoakEnd),
		Columns: []string{"window", "issued", "timely", "timely_frac", "floor", "ok"},
		Notes: []string{
			fmt.Sprintf("slow host 1 in [%v,%v); host 2 crashes at %v; host 3 link +100ms/way in [%v,%v)", a14SlowFrom, a14SlowUntil, a14CrashAt, a14LinkFrom, a14LinkUntil),
			fmt.Sprintf("recovery bound: timely fraction back at >= Pc within %v of each fault clearing", a14Recovery),
			"lifecycle: suspicion window 12 (min 6 obs), probe warm-up every " + a14ProbeEvery.String() + ", rejuvenation restart delay 250ms",
		},
	}

	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf("experiment: a14: "+format, args...)
		}
	}

	// Pc-recovery windows, measured across both clients' records.
	for _, w := range a14Windows() {
		issued, timely, frac := w.timely(res)
		ok := issued > 0 && frac >= a14Pc
		if !ok {
			fail("window %q: timely %d/%d = %.3f below Pc=%.2f", w.name, timely, issued, frac, a14Pc)
		}
		t.Rows = append(t.Rows, []string{
			w.name, fmt.Sprintf("%d", issued), fmt.Sprintf("%d", timely),
			f3(frac), f2(a14Pc), fmt.Sprintf("%v", ok),
		})
	}

	checkLifecycle(res, fail)
	// The whole soak runs on the caller's goroutine inside the virtual
	// kernel; anything left over is a leak.
	if gAfter := runtime.NumGoroutine(); gAfter > gBefore {
		fail("goroutines grew %d -> %d over the soak", gBefore, gAfter)
	}

	t.Rows = append(t.Rows, []string{
		"lifecycle",
		fmt.Sprintf("quarantines=%d", res.Quarantines),
		fmt.Sprintf("restarts=%d", res.Restarts),
		fmt.Sprintf("suppressed=%d", res.RestartsSuppressed),
		fmt.Sprintf("violations=%d", res.ProbationViolations),
		fmt.Sprintf("%v", firstErr == nil),
	})
	if firstErr != nil {
		return t, firstErr
	}
	return t, nil
}
