package experiment

// The throughput benchmark measures the end-to-end decision path — a full
// Schedule → Release → Forget cycle — three ways:
//
//	reference   the seed-style path (private snapshot copies, fresh
//	            probability tables, per-request sort), one caller
//	optimized   the cached path (shared snapshots, predictor cache,
//	            incremental order, pooled buffers), one caller
//	concurrent  the optimized path under GOMAXPROCS concurrent callers,
//	            exercising the sharded pending table
//
// Two allocation counts go with them: the cached path on frozen windows,
// which must not allocate, and the churned path, where one performance report
// lands on one replica before each decision as on a live gateway, which must
// stay within a small constant (churnAllocsLimit).
//
// Two ratios summarize the result. SpeedupVsReference is the per-decision
// cost the optimization removed; it is machine-independent enough to fence
// in CI. ScaleupVsSingle is the concurrency scaling across the sharded
// scheduler; on a single-core runner (GOMAXPROCS=1) it is ~1 by
// construction, so the fence treats it as informational and the headline
// criterion is carried by SpeedupVsReference.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"aqua/internal/core"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

// ThroughputConfig parameterizes the decision-throughput benchmark.
type ThroughputConfig struct {
	Replicas   int
	WindowSize int
	Deadline   time.Duration
	Requests   int // decision cycles per phase
	Callers    int // concurrent phase width; 0 means GOMAXPROCS
	Seed       int64
}

// DefaultThroughputConfig measures a mid-size group: large enough that the
// reference path's per-request copying and sorting dominate, small enough to
// stay in the paper's 4–16 replica regime.
func DefaultThroughputConfig() ThroughputConfig {
	return ThroughputConfig{
		Replicas:   14,
		WindowSize: 100,
		Deadline:   400 * time.Millisecond,
		Requests:   30_000,
		Seed:       1,
	}
}

// ThroughputPhase is one measured phase.
type ThroughputPhase struct {
	Callers         int     `json:"callers"`
	Ops             int     `json:"ops"`
	WallNs          int64   `json:"wall_ns"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	MeanNs          float64 `json:"mean_ns"`
	P50Ns           int64   `json:"p50_ns"`
	P99Ns           int64   `json:"p99_ns"`
	P999Ns          int64   `json:"p999_ns"`
}

// ThroughputResult is the content of BENCH_throughput.json.
type ThroughputResult struct {
	Replicas   int   `json:"replicas"`
	WindowSize int   `json:"window_size"`
	DeadlineMs int64 `json:"deadline_ms"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	NumCPU     int   `json:"num_cpu"`

	Reference       ThroughputPhase `json:"reference"`
	Optimized       ThroughputPhase `json:"optimized"`
	Concurrent      ThroughputPhase `json:"concurrent"`
	CachedAllocsOp  float64         `json:"cached_allocs_per_op"`
	ChurnAllocsOp   float64         `json:"churn_allocs_per_op"`
	SpeedupVsRef    float64         `json:"speedup_vs_reference"`
	ScaleupVsSingle float64         `json:"scaleup_vs_single"`
}

func percentileNs(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

func summarizePhase(callers int, lats []int64, wall time.Duration) ThroughputPhase {
	sorted := append([]int64(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	p := ThroughputPhase{
		Callers: callers,
		Ops:     len(lats),
		WallNs:  wall.Nanoseconds(),
		P50Ns:   percentileNs(sorted, 0.50),
		P99Ns:   percentileNs(sorted, 0.99),
		P999Ns:  percentileNs(sorted, 0.999),
	}
	if len(lats) > 0 {
		p.MeanNs = float64(sum) / float64(len(lats))
	}
	if wall > 0 {
		p.DecisionsPerSec = float64(len(lats)) / wall.Seconds()
	}
	return p
}

// newThroughputScheduler builds a scheduler over a fresh synthetic repository
// (its own repo per phase, so phases cannot warm each other's caches through
// shared state beyond what the phase itself does).
func newThroughputScheduler(cfg ThroughputConfig, reference bool) (*core.Scheduler, error) {
	rng := stats.NewRand(cfg.Seed)
	repo := syntheticRepo(cfg.Replicas, cfg.WindowSize, rng)
	return core.NewScheduler(core.Config{
		Service:               "throughput-bench",
		QoS:                   wire.QoS{Deadline: cfg.Deadline, MinProbability: 0.9},
		Repository:            repo,
		ReferenceDecisionPath: reference,
	})
}

// decisionCycle is the measured unit: one scheduling decision, released and
// forgotten (targets never dispatched — this isolates decision cost from
// delivery).
func decisionCycle(s *core.Scheduler, now time.Time) error {
	d, err := s.Schedule(now, "")
	if err != nil {
		return err
	}
	seq := d.Seq
	d.Release()
	s.Forget(seq)
	return nil
}

func runPhase(cfg ThroughputConfig, reference bool, callers int) (ThroughputPhase, error) {
	s, err := newThroughputScheduler(cfg, reference)
	if err != nil {
		return ThroughputPhase{}, err
	}
	now := time.Now()
	const warmup = 200
	for i := 0; i < warmup; i++ {
		if err := decisionCycle(s, now); err != nil {
			return ThroughputPhase{}, err
		}
	}
	perCaller := cfg.Requests / callers
	latencies := make([][]int64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats := make([]int64, 0, perCaller)
			for i := 0; i < perCaller; i++ {
				t0 := time.Now()
				if err := decisionCycle(s, now); err != nil {
					errs[c] = err
					return
				}
				lats = append(lats, time.Since(t0).Nanoseconds())
			}
			latencies[c] = lats
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []int64
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			return ThroughputPhase{}, errs[c]
		}
		all = append(all, latencies[c]...)
	}
	return summarizePhase(callers, all, wall), nil
}

// measureCachedAllocs reports steady-state heap allocations per decision
// cycle on the optimized path (the CI fence requires exactly zero; the
// stricter per-commit fence is TestScheduleCachedPathZeroAllocs).
func measureCachedAllocs(cfg ThroughputConfig) (float64, error) {
	s, err := newThroughputScheduler(cfg, false)
	if err != nil {
		return 0, err
	}
	now := time.Now()
	for i := 0; i < 200; i++ {
		if err := decisionCycle(s, now); err != nil {
			return 0, err
		}
	}
	var cycleErr error
	allocs := testing.AllocsPerRun(200, func() {
		if err := decisionCycle(s, now); err != nil {
			cycleErr = err
		}
	})
	return allocs, cycleErr
}

// churnAllocsLimit bounds the allocations of one churned decision cycle: the
// snapshot re-copies the one changed replica (one buffer per element type
// plus the slice) and the predictor rebuilds its one table, whatever the pool
// size.
const churnAllocsLimit = 10

// measureChurnAllocs reports heap allocations per churned decision cycle:
// one performance report and one gateway delay on one replica, then the
// decision cycle, so the snapshot cache and that replica's memo slot miss
// every time, as they do under live traffic.
func measureChurnAllocs(cfg ThroughputConfig) (float64, error) {
	s, err := newThroughputScheduler(cfg, false)
	if err != nil {
		return 0, err
	}
	repo := s.Repository()
	id := repo.Replicas()[0]
	now := time.Now()
	i := 0
	var cycleErr error
	cycle := func() {
		i++
		repo.RecordPerf(id, "", wire.PerfReport{
			ServiceTime: time.Duration(80+i%40) * time.Millisecond,
			QueueDelay:  time.Duration(i%25) * time.Millisecond,
		}, now)
		repo.RecordGatewayDelay(id, time.Duration(i%3)*time.Millisecond)
		if err := decisionCycle(s, now); err != nil {
			cycleErr = err
		}
	}
	for j := 0; j < 200; j++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	return allocs, cycleErr
}

// RunThroughput measures the three phases and derives the headline ratios.
func RunThroughput(cfg ThroughputConfig) (*ThroughputResult, error) {
	if cfg.Replicas <= 0 || cfg.Requests <= 0 {
		return nil, fmt.Errorf("experiment: throughput bench needs positive replicas and requests")
	}
	callers := cfg.Callers
	if callers <= 0 {
		callers = runtime.GOMAXPROCS(0)
	}
	ref, err := runPhase(cfg, true, 1)
	if err != nil {
		return nil, err
	}
	opt, err := runPhase(cfg, false, 1)
	if err != nil {
		return nil, err
	}
	conc, err := runPhase(cfg, false, callers)
	if err != nil {
		return nil, err
	}
	allocs, err := measureCachedAllocs(cfg)
	if err != nil {
		return nil, err
	}
	churn, err := measureChurnAllocs(cfg)
	if err != nil {
		return nil, err
	}
	res := &ThroughputResult{
		Replicas:       cfg.Replicas,
		WindowSize:     cfg.WindowSize,
		DeadlineMs:     int64(cfg.Deadline / time.Millisecond),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		Reference:      ref,
		Optimized:      opt,
		Concurrent:     conc,
		CachedAllocsOp: allocs,
		ChurnAllocsOp:  churn,
	}
	if ref.DecisionsPerSec > 0 {
		res.SpeedupVsRef = opt.DecisionsPerSec / ref.DecisionsPerSec
	}
	if opt.DecisionsPerSec > 0 {
		res.ScaleupVsSingle = conc.DecisionsPerSec / opt.DecisionsPerSec
	}
	return res, nil
}

// ThroughputFence compares a fresh result against a committed baseline and
// returns an error on regression. Absolute ns vary across machines, so the
// fence checks shape, not magnitude: the reference-to-optimized speedup must
// hold (within 15%), the cached path must stay allocation-free, the churned
// path must stay within churnAllocsLimit allocations per decision, and the
// tail must not detach from the median (p999/p50 amplification bounded by 3×
// the baseline's — timer noise makes tighter absolute tail fences flaky).
func ThroughputFence(cur, base *ThroughputResult) error {
	if base == nil {
		return fmt.Errorf("experiment: throughput fence needs a baseline")
	}
	if cur.SpeedupVsRef < 0.85*base.SpeedupVsRef {
		return fmt.Errorf("experiment: decision speedup regressed: %.2fx vs baseline %.2fx (floor 0.85x)",
			cur.SpeedupVsRef, base.SpeedupVsRef)
	}
	if cur.CachedAllocsOp > 0 {
		return fmt.Errorf("experiment: cached decision path allocates %.1f times per op, want 0", cur.CachedAllocsOp)
	}
	if cur.ChurnAllocsOp > churnAllocsLimit {
		return fmt.Errorf("experiment: churned decision path allocates %.1f times per op, limit %d", cur.ChurnAllocsOp, churnAllocsLimit)
	}
	curAmp := tailAmplification(cur.Optimized)
	baseAmp := tailAmplification(base.Optimized)
	if baseAmp > 0 && curAmp > 3*baseAmp {
		return fmt.Errorf("experiment: p999 tail regressed: p999/p50 = %.1f vs baseline %.1f (limit 3x)",
			curAmp, baseAmp)
	}
	return nil
}

func tailAmplification(p ThroughputPhase) float64 {
	if p.P50Ns <= 0 {
		return 0
	}
	return float64(p.P999Ns) / float64(p.P50Ns)
}

// ThroughputTable renders the result for aqua-exp's table output.
func ThroughputTable(r *ThroughputResult) *Table {
	t := &Table{
		Title: fmt.Sprintf("Throughput: decision cycles (%d replicas, l=%d, GOMAXPROCS=%d)",
			r.Replicas, r.WindowSize, r.GOMAXPROCS),
		Columns: []string{"phase", "callers", "decisions_per_sec", "mean_ns", "p50_ns", "p99_ns", "p999_ns"},
		Notes: []string{
			fmt.Sprintf("speedup_vs_reference %.2fx, scaleup_vs_single %.2fx, cached allocs/op %.1f, churned allocs/op %.1f",
				r.SpeedupVsRef, r.ScaleupVsSingle, r.CachedAllocsOp, r.ChurnAllocsOp),
			"one op = Schedule + Release + Forget; reference = seed-style decision path; churned = one perf report on one replica before each op",
		},
	}
	row := func(name string, p ThroughputPhase) []string {
		return []string{
			name,
			fmt.Sprintf("%d", p.Callers),
			fmt.Sprintf("%.0f", p.DecisionsPerSec),
			fmt.Sprintf("%.0f", p.MeanNs),
			fmt.Sprintf("%d", p.P50Ns),
			fmt.Sprintf("%d", p.P99Ns),
			fmt.Sprintf("%d", p.P999Ns),
		}
	}
	t.Rows = append(t.Rows, row("reference", r.Reference))
	t.Rows = append(t.Rows, row("optimized", r.Optimized))
	t.Rows = append(t.Rows, row("concurrent", r.Concurrent))
	return t
}

// MarshalThroughput renders the result as the indented JSON written to
// BENCH_throughput.json.
func MarshalThroughput(r *ThroughputResult) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// UnmarshalThroughput parses a committed BENCH_throughput.json baseline.
func UnmarshalThroughput(b []byte) (*ThroughputResult, error) {
	var r ThroughputResult
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("experiment: parsing throughput baseline: %w", err)
	}
	return &r, nil
}
