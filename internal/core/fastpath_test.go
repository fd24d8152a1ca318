package core

// Fences for the zero-allocation decision path: the cached path must not
// allocate, must agree exactly with the reference (seed) decision path, and
// the pooled Decision buffers must be race-free under concurrent
// schedule/release/reply traffic.

import (
	"fmt"
	"testing"
	"time"

	"aqua/internal/repository"
	"aqua/internal/wire"
)

// variedRepo builds a repository whose replicas have distinct deterministic
// histories, so selection produces a non-trivial proper subset.
func variedRepo(t testing.TB, n int) *repository.Repository {
	t.Helper()
	repo := repository.New()
	base := time.Now()
	for i := 0; i < n; i++ {
		id := wire.ReplicaID(rune('a' + i))
		repo.AddReplica(id)
		svc := time.Duration(5+3*i) * ms
		for j := 0; j < repository.DefaultWindowSize; j++ {
			repo.RecordPerf(id, "", wire.PerfReport{ServiceTime: svc, QueueDelay: ms}, base)
		}
		repo.RecordGatewayDelay(id, ms)
	}
	return repo
}

// TestScheduleCachedPathZeroAllocs is the tentpole fence: once the scratch
// pools, snapshot cache, and predictor cache are warm, a full
// schedule → release → forget cycle performs zero heap allocations.
func TestScheduleCachedPathZeroAllocs(t *testing.T) {
	repo := variedRepo(t, 5)
	s, err := NewScheduler(Config{
		Service:            "svc",
		QoS:                wire.QoS{Deadline: 60 * ms, MinProbability: 0.95},
		Repository:         repo,
		CompensateOverhead: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	cycle := func() {
		d, err := s.Schedule(t0, "")
		if err != nil {
			t.Fatal(err)
		}
		seq := d.Seq
		d.Release()
		s.Forget(seq)
	}
	for i := 0; i < 10; i++ {
		cycle() // warm caches, pools, and map buckets
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("cached schedule/release/forget cycle allocated %.1f times per run, want 0", allocs)
	}
}

// TestScheduleChurnAllocs fences the live decision path, where every reply
// moves a window: one performance report plus one gateway delay on one
// replica, then schedule → release → forget. The snapshot re-copies only the
// changed replica and the predictor rebuilds only its table, so the
// allocations per cycle are a small constant that must not grow with the
// pool size.
func TestScheduleChurnAllocs(t *testing.T) {
	measure := func(n int) float64 {
		repo := variedRepo(t, n)
		s, err := NewScheduler(Config{
			Service:            "svc",
			QoS:                wire.QoS{Deadline: 60 * ms, MinProbability: 0.95},
			Repository:         repo,
			CompensateOverhead: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		i := 0
		cycle := func() {
			i++
			repo.RecordPerf("a", "", wire.PerfReport{ServiceTime: time.Duration(4+i%7) * ms, QueueDelay: time.Duration(i%3) * ms}, t0)
			repo.RecordGatewayDelay("a", time.Duration(1+i%2)*ms)
			d, err := s.Schedule(t0, "")
			if err != nil {
				t.Fatal(err)
			}
			seq := d.Seq
			d.Release()
			s.Forget(seq)
		}
		for j := 0; j < 20; j++ {
			cycle() // warm scratch free lists, memo slots and window buffers
		}
		return testing.AllocsPerRun(200, cycle)
	}
	small, large := measure(7), measure(64)
	t.Logf("allocations per churned cycle: %.1f at 7 replicas, %.1f at 64", small, large)
	if small != large {
		t.Errorf("churned cycle allocates %.1f times at 7 replicas but %.1f at 64; want equal", small, large)
	}
	if small > 10 {
		t.Errorf("churned cycle allocates %.1f times, want at most 10", small)
	}
}

// TestReferencePathMatchesCachedPath checks decision-for-decision equivalence
// between the zero-alloc cached path and the reference path (private
// snapshots, fresh tables, per-request sort): same targets, bit-identical
// P_K(t), across membership-stable and perturbed rounds.
func TestReferencePathMatchesCachedPath(t *testing.T) {
	repo := variedRepo(t, 6)
	q := wire.QoS{Deadline: 60 * ms, MinProbability: 0.95}
	fast, err := NewScheduler(Config{Service: "svc", QoS: q, Repository: repo})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewScheduler(Config{Service: "svc", QoS: q, Repository: repo, ReferenceDecisionPath: true})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for round := 0; round < 100; round++ {
		if round%3 == 1 {
			// Perturb one replica's window so the candidate order moves.
			id := wire.ReplicaID(rune('a' + round%6))
			svc := time.Duration(4+round%20) * ms
			repo.RecordPerf(id, "", wire.PerfReport{ServiceTime: svc, QueueDelay: ms}, now)
		}
		df, errF := fast.Schedule(now, "")
		dr, errR := ref.Schedule(now, "")
		if (errF == nil) != (errR == nil) {
			t.Fatalf("round %d: error mismatch: fast=%v ref=%v", round, errF, errR)
		}
		if errF != nil {
			continue
		}
		if fmt.Sprint(df.Targets) != fmt.Sprint(dr.Targets) {
			t.Fatalf("round %d: targets diverged: fast=%v ref=%v", round, df.Targets, dr.Targets)
		}
		if df.Predicted != dr.Predicted {
			t.Fatalf("round %d: predicted diverged: fast=%v ref=%v", round, df.Predicted, dr.Predicted)
		}
		if df.UsedAll != dr.UsedAll || df.ColdStart != dr.ColdStart {
			t.Fatalf("round %d: flags diverged: fast=%+v ref=%+v", round, df, dr)
		}
		fast.Forget(df.Seq)
		ref.Forget(dr.Seq)
		df.Release()
		dr.Release()
	}
}

// TestDecisionReleaseRace hammers the pooled-buffer lifecycle from many
// goroutines — schedule, read targets, reply, release, forget — so the race
// detector can see any reuse-before-release hazard in the free lists.
func TestDecisionReleaseRace(t *testing.T) {
	repo := variedRepo(t, 4)
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        wire.QoS{Deadline: 60 * ms, MinProbability: 0.95},
		Repository: repo,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			now := time.Now()
			for i := 0; i < 300; i++ {
				d, err := s.Schedule(now, "")
				if err != nil {
					done <- err
					return
				}
				// Read every target before Release: the race detector flags
				// this load if the buffer is ever recycled early.
				var sink wire.ReplicaID
				for _, id := range d.Targets {
					sink = id
				}
				out := s.OnReply(d.Seq, sink, now.Add(5*ms), wire.PerfReport{ServiceTime: 5 * ms, QueueDelay: ms})
				if out.Unknown {
					done <- fmt.Errorf("reply to own request reported unknown")
					return
				}
				seq := d.Seq
				d.Release()
				s.Forget(seq)
			}
			done <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Outstanding(); got != 0 {
		t.Errorf("Outstanding() = %d after all work settled, want 0", got)
	}
}

// BenchmarkScheduleCachedPath measures the per-decision cost of the cached
// path (the throughput experiment drives the same cycle).
func BenchmarkScheduleCachedPath(b *testing.B) {
	repo := variedRepo(b, 5)
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        wire.QoS{Deadline: 60 * ms, MinProbability: 0.95},
		Repository: repo,
	})
	if err != nil {
		b.Fatal(err)
	}
	t0 := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := s.Schedule(t0, "")
		if err != nil {
			b.Fatal(err)
		}
		seq := d.Seq
		d.Release()
		s.Forget(seq)
	}
}

// BenchmarkScheduleReferencePath is the same cycle through the seed-style
// decision path, for the speedup comparison in BENCH_throughput.json.
func BenchmarkScheduleReferencePath(b *testing.B) {
	repo := variedRepo(b, 5)
	s, err := NewScheduler(Config{
		Service:               "svc",
		QoS:                   wire.QoS{Deadline: 60 * ms, MinProbability: 0.95},
		Repository:            repo,
		ReferenceDecisionPath: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	t0 := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := s.Schedule(t0, "")
		if err != nil {
			b.Fatal(err)
		}
		seq := d.Seq
		d.Release()
		s.Forget(seq)
	}
}
