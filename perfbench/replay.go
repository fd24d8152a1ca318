package main

import (
	"runtime/metrics"
	"sort"
	"time"

	"aqua/internal/model"
	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/trace"
	"aqua/internal/wire"
)

// The decision replay feeds the PerfReport stream the traced gateway
// received, in arrival order, through a fresh repository, predictor and
// strategy, with one decision at each call's t0. It times each public call
// and counts its allocations, so the figures reflect a live window that
// changes with every report rather than a frozen one. In-flight counts and
// the adaptive controller are not replayed: the decisions see only what
// the reports carry.

// replayStep is one replayed input: a report (rep != nil) or a decision.
type replayStep struct {
	at       int64
	rep      *perfEvent
	overhead time.Duration // the decision's recorded δ, for compensation
}

func replaySteps(t *tracer, events []trace.Event, epoch int64) []replayStep {
	t.mu.Lock()
	steps := make([]replayStep, 0, len(t.stream)+len(events))
	for i := range t.stream {
		steps = append(steps, replayStep{at: t.stream[i].at, rep: &t.stream[i]})
	}
	t.mu.Unlock()
	for _, e := range events {
		steps = append(steps, replayStep{at: epoch + int64(e.At), overhead: e.Duration})
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	return steps
}

// replayer is one fresh decision path.
type replayer struct {
	w     workload
	base  time.Time
	repo  *repository.Repository
	pred  *model.Predictor
	strat selection.Strategy
	order *selection.Order
	table []model.ReplicaProbability
	cold  []repository.ReplicaSnapshot
	sel   []wire.ReplicaID
	last  time.Duration // previous decision's δ
}

func newReplayer(w workload, base time.Time) *replayer {
	r := &replayer{
		w:     w,
		base:  base,
		repo:  repository.New(repository.WithWindowSize(0)),
		pred:  model.NewPredictor(),
		strat: w.strategy(),
		order: selection.NewOrder(),
	}
	ids := make([]wire.ReplicaID, 0, w.replicas)
	for i := 1; i <= w.replicas; i++ {
		ids = append(ids, replicaID(i))
	}
	r.repo.SetMembership(ids)
	return r
}

// deadline is the prediction horizon, compensated the way the scheduler
// does: minus the previous decision's δ, capped at half the deadline.
func (r *replayer) deadline() time.Duration {
	d := r.w.qos.Deadline
	if !r.w.compensate {
		return d
	}
	return d - min(r.last, d/2)
}

func (r *replayer) record(e *perfEvent) {
	r.repo.RecordPerf(e.replica, "op", e.perf, r.base.Add(time.Duration(e.at)))
}

func (r *replayer) snapshot() []repository.ReplicaSnapshot { return r.repo.SnapshotShared("op") }

// predict builds the probability table. An error (a replica whose window
// cannot be turned into a distribution) leaves the table as far as it got;
// the live scheduler fails that decision, and the replay, which only times
// the calls, goes on to the next step.
func (r *replayer) predict(snaps []repository.ReplicaSnapshot) {
	r.table, r.cold, _ = r.pred.ProbabilityTableInto(snaps, r.deadline(), r.table[:0], r.cold[:0])
}

func (r *replayer) choose() {
	sorted := r.order.Sort(r.table)
	res := r.strat.Select(selection.Input{
		Table: r.table, Cold: r.cold, QoS: r.w.qos, Sorted: sorted, SelectedBuf: r.sel[:0],
	})
	r.sel = res.Selected
}

func readAllocs(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// replay runs the stream twice on fresh state: once timing each call, once
// counting each call's allocations.
func replay(out *runOut, w workload, t *tracer, events []trace.Event, epoch int64) {
	steps := replaySteps(t, events, epoch)

	var recNs, snapNs, tableNs, selNs []float64
	r := newReplayer(w, t.base)
	for _, s := range steps {
		if s.rep != nil {
			a := time.Now()
			r.record(s.rep)
			recNs = append(recNs, float64(time.Since(a)))
			continue
		}
		a := time.Now()
		snaps := r.snapshot()
		b := time.Now()
		r.predict(snaps)
		c := time.Now()
		r.choose()
		d := time.Now()
		snapNs = append(snapNs, float64(b.Sub(a)))
		tableNs = append(tableNs, float64(c.Sub(b)))
		selNs = append(selNs, float64(d.Sub(c)))
		r.last = s.overhead
	}

	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	var snapAllocs, tableAllocs uint64
	r = newReplayer(w, t.base)
	for _, s := range steps {
		if s.rep != nil {
			r.record(s.rep)
			continue
		}
		a := readAllocs(sample)
		snaps := r.snapshot()
		b := readAllocs(sample)
		r.predict(snaps)
		c := readAllocs(sample)
		r.choose()
		snapAllocs += b - a
		tableAllocs += c - b
		r.last = s.overhead
	}
	decisions := float64(len(snapNs))
	out.printf("replay reports=%d decisions=%d", len(recNs), len(snapNs))
	out.add("repository.record_perf_ns.p50", "ns", percentile(recNs, 0.50))
	out.add("repository.snapshot_ns.p50", "ns", percentile(snapNs, 0.50))
	out.add("repository.snapshot_allocs", "allocs", float64(snapAllocs)/max(decisions, 1))
	out.add("model.table_ns.p50", "ns", percentile(tableNs, 0.50))
	out.add("model.table_allocs", "allocs", float64(tableAllocs)/max(decisions, 1))
	out.add("selection.select_ns.p50", "ns", percentile(selNs, 0.50))
}
