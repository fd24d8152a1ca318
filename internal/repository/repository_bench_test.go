package repository

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aqua/internal/wire"
)

func benchRepo(n, l int) *Repository {
	r := New(WithWindowSize(l))
	now := time.Now()
	for i := 0; i < n; i++ {
		id := wire.ReplicaID(fmt.Sprintf("replica-%03d", i))
		r.AddReplica(id)
		for j := 0; j < l; j++ {
			r.RecordPerf(id, "", wire.PerfReport{
				ServiceTime: time.Duration(j+1) * time.Millisecond,
				QueueDelay:  time.Duration(j) * time.Millisecond,
				QueueLength: j,
			}, now)
		}
		r.RecordGatewayDelay(id, time.Millisecond)
	}
	return r
}

// BenchmarkRecordPerf measures the per-reply repository update cost — paid
// once per reply (duplicates included), so it sits on the hot path.
func BenchmarkRecordPerf(b *testing.B) {
	r := benchRepo(8, 5)
	perf := wire.PerfReport{ServiceTime: 3 * time.Millisecond, QueueDelay: time.Millisecond}
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.RecordPerf("replica-000", "", perf, now)
	}
}

// BenchmarkSnapshot measures the per-request lookup cost the paper's
// repository design optimizes for ("it is important that the lookup time be
// as small as possible").
func BenchmarkSnapshot(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		for _, l := range []int{5, 20} {
			b.Run(fmt.Sprintf("n=%d/l=%d", n, l), func(b *testing.B) {
				r := benchRepo(n, l)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if snaps := r.Snapshot(""); len(snaps) != n {
						b.Fatalf("snapshot len %d", len(snaps))
					}
				}
			})
		}
	}
}

// BenchmarkSnapshotOne measures the single-replica lookup used by probes and
// staleness checks. Its cost must not scale with membership size (it used to
// build and sort the full snapshot slice).
func BenchmarkSnapshotOne(b *testing.B) {
	for _, n := range []int{2, 32, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := benchRepo(n, 5)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.SnapshotOne("replica-000", ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSnapshotOneConstantWork pins SnapshotOne to per-replica cost: the
// allocations for one lookup must be identical at 10 and 1000 members. With
// the old full-snapshot implementation the large pool allocates hundreds of
// times more.
func TestSnapshotOneConstantWork(t *testing.T) {
	small := benchRepo(10, 5)
	large := benchRepo(1000, 5)
	measure := func(r *Repository) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := r.SnapshotOne("replica-001", "m-never-seen"); err != nil {
				t.Fatal(err)
			}
			if _, err := r.SnapshotOne("replica-001", ""); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := measure(small), measure(large)
	if a != b {
		t.Errorf("SnapshotOne allocs scale with membership: %v at n=10 vs %v at n=1000", a, b)
	}
}

// TestSnapshotSharedReusesUnchanged: after one performance report, the next
// shared snapshot re-copies only the reporting replica; every other entry
// shares the previous slice's window slices (same backing arrays). The
// content still equals a fresh private Snapshot.
func TestSnapshotSharedReusesUnchanged(t *testing.T) {
	r := benchRepo(5, 5)
	before := r.SnapshotShared("")
	r.RecordPerf("replica-002", "", wire.PerfReport{ServiceTime: 9 * time.Millisecond, QueueDelay: 2 * time.Millisecond}, time.Now())
	after := r.SnapshotShared("")
	if &after[0] == &before[0] {
		t.Fatal("generation bump returned the cached slice")
	}
	for i := range after {
		a, b := after[i], before[i]
		same := &a.ServiceTimes[0] == &b.ServiceTimes[0] &&
			&a.QueueDelays[0] == &b.QueueDelays[0] &&
			&a.GatewayDelays[0] == &b.GatewayDelays[0] &&
			&a.ServiceHist.Bins[0] == &b.ServiceHist.Bins[0] &&
			&a.QueueHist.Counts[0] == &b.QueueHist.Counts[0] &&
			&a.GatewayHist.Bins[0] == &b.GatewayHist.Bins[0]
		shared := &a.ServiceTimes[0] == &b.ServiceTimes[0] ||
			&a.QueueDelays[0] == &b.QueueDelays[0] ||
			&a.ServiceHist.Bins[0] == &b.ServiceHist.Bins[0] ||
			&a.QueueHist.Counts[0] == &b.QueueHist.Counts[0]
		if a.ID == "replica-002" {
			if shared {
				t.Errorf("%s changed but shares window slices with the previous snapshot", a.ID)
			}
			continue
		}
		if !same {
			t.Errorf("%s unchanged but its window slices were re-copied", a.ID)
		}
	}
	if want := r.Snapshot(""); !reflect.DeepEqual(after, want) {
		t.Errorf("shared snapshot differs from a fresh one:\n got %+v\nwant %+v", after, want)
	}
}

// TestSnapshotSharedMatchesFresh drives a random mix of every mutation that
// reaches a snapshot — reports on two methods, gateway delays (point mass and
// history), membership changes, absorbed digests, lifecycle transitions,
// dispatch counts — and after each step checks that the shared snapshot,
// built by reusing the previous one's unchanged replicas, equals a fresh
// private Snapshot field for field.
func TestSnapshotSharedMatchesFresh(t *testing.T) {
	for _, gwHist := range []int{1, 4} {
		rng := rand.New(rand.NewSource(int64(gwHist)))
		r := New(WithWindowSize(6), WithGatewayHistory(gwHist))
		r.EnableLifecycle(2)
		peer := New(WithWindowSize(6))
		ids := []wire.ReplicaID{"a", "b", "c", "d", "e"}
		r.SetMembership(ids[:4])
		now := time.Now()
		for step := 0; step < 3000; step++ {
			id := ids[rng.Intn(len(ids))]
			method := []string{"", "m"}[rng.Intn(2)]
			now = now.Add(time.Millisecond)
			switch op := rng.Intn(20); {
			case op < 8:
				r.RecordPerf(id, method, perf(time.Duration(1+rng.Intn(30))*ms, time.Duration(rng.Intn(10))*ms, rng.Intn(4)), now)
			case op < 12:
				r.RecordGatewayDelay(id, time.Duration(rng.Intn(5000)-500)*time.Microsecond)
			case op < 14:
				r.NoteDispatched(id)
			case op == 14:
				r.SetMembership(ids[:2+rng.Intn(4)])
			case op == 15:
				r.RemoveReplica(id)
				r.AddReplica(id)
			case op == 16:
				peer.SetMembership(ids)
				for _, pid := range ids {
					peer.RecordPerf(pid, method, perf(time.Duration(1+rng.Intn(30))*ms, ms, 0), now)
					peer.RecordGatewayDelay(pid, ms)
				}
				r.AbsorbDigests(wire.DigestSync{
					Client: "peer", Service: "svc", Seq: uint64(step),
					ResolutionNanos: peer.ExportResolutionNanos(), WindowSize: 6,
					Digests: peer.ExportDigests(now),
				}, now)
			case op == 17:
				r.Quarantine(id, now)
			case op == 18:
				r.Parole(now)
			default:
				r.Suspect(id)
			}
			for _, m := range []string{"", "m"} {
				got, want := append([]ReplicaSnapshot(nil), r.SnapshotShared(m)...), r.Snapshot(m)
				for i := range got {
					// Dispatch counts do not bump the generation, so a shared
					// snapshot's InFlight is as of the last bump (NoteDispatched).
					got[i].InFlight = 0
				}
				for i := range want {
					want[i].InFlight = 0
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("gateway history %d, step %d, method %q: shared snapshot differs from a fresh one:\n got %+v\nwant %+v", gwHist, step, m, got, want)
				}
			}
		}
	}
}

// BenchmarkSnapshotSharedChurn measures the live-traffic snapshot cost: each
// op is one performance report on one replica followed by SnapshotShared, so
// the cache misses every time. Its cost is one re-copied replica, whatever
// the pool size.
func BenchmarkSnapshotSharedChurn(b *testing.B) {
	for _, n := range []int{7, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := benchRepo(n, 5)
			now := time.Now()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.RecordPerf("replica-000", "", wire.PerfReport{
					ServiceTime: time.Duration(1+i%7) * time.Millisecond,
					QueueDelay:  time.Duration(i%3) * time.Millisecond,
				}, now)
				if snaps := r.SnapshotShared(""); len(snaps) != n {
					b.Fatalf("snapshot len %d", len(snaps))
				}
			}
		})
	}
}

func BenchmarkSetMembership(b *testing.B) {
	r := benchRepo(16, 5)
	ids := r.Replicas()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.SetMembership(ids)
	}
}
