package model

// Bit-identity fence for the count-based table build: buildSW's direct route
// from histogram counts must produce exactly (==, not within a tolerance) the
// CDF table of FromCounts → ConvolveDense → CDFTable, and where it declines
// (support past maxSupport, a distributional T) buildSW must return the
// general route's table unchanged.

import (
	"fmt"
	"testing"
	"time"

	"aqua/internal/dist"
	"aqua/internal/repository"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

// pmfRouteTable is the table the count route must reproduce bit for bit.
func pmfRouteTable(t *testing.T, p *Predictor, snap repository.ReplicaSnapshot) cachedCDF {
	t.Helper()
	s, err := dist.FromCounts(p.resolution, snap.ServiceHist.Bins, snap.ServiceHist.Counts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dist.FromCounts(p.resolution, snap.QueueHist.Bins, snap.QueueHist.Counts)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := s.ConvolveDense(w)
	if err != nil {
		t.Fatal(err)
	}
	bins, cdf := sw.CDFTable()
	return cachedCDF{res: sw.Resolution(), bins: bins, cdf: cdf}
}

func sameTable(a, b cachedCDF) bool {
	if a.res != b.res || len(a.bins) != len(b.bins) || len(a.cdf) != len(b.cdf) {
		return false
	}
	for i := range a.bins {
		if a.bins[i] != b.bins[i] || a.cdf[i] != b.cdf[i] {
			return false
		}
	}
	return true
}

// countRouteTaken reports whether buildSW would take the count route.
func countRouteTaken(p *Predictor, snap repository.ReplicaSnapshot) bool {
	_, _, ok := dist.ConvolveCountsCDF(snap.ServiceHist.Bins, snap.ServiceHist.Counts,
		snap.QueueHist.Bins, snap.QueueHist.Counts, p.maxSupport, &dist.CountsScratch{})
	return ok && !distributionalT(&snap)
}

func checkBuild(t *testing.T, p *Predictor, snap repository.ReplicaSnapshot, wantCountRoute bool, label string) {
	t.Helper()
	if !p.fastEligible(&snap) {
		t.Fatalf("%s: snapshot not fast-eligible", label)
	}
	if got := countRouteTaken(p, snap); got != wantCountRoute {
		t.Fatalf("%s: count route taken = %v, want %v", label, got, wantCountRoute)
	}
	got, err := p.buildSW(&snap)
	if err != nil {
		t.Fatal(err)
	}
	general, err := p.buildSWGeneral(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTable(got, general) {
		t.Fatalf("%s: buildSW table differs from the general route", label)
	}
	if wantCountRoute && !sameTable(got, pmfRouteTable(t, p, snap)) {
		t.Fatalf("%s: count-route table differs from FromCounts→ConvolveDense→CDFTable", label)
	}
}

func TestCountRouteBitIdentical(t *testing.T) {
	rng := stats.NewRand(17)
	p := NewPredictor()
	tables := 0
	for trial := 0; trial < 200; trial++ {
		l := 1 + rng.Intn(60)
		for _, s := range randomRepo(rng, 3, l, ms).Snapshot("") {
			checkBuild(t, p, s, true, fmt.Sprintf("random trial %d l=%d %s", trial, l, s.ID))
			tables++
		}
	}
	if tables < 600 {
		t.Fatalf("only %d tables compared", tables)
	}
}

// TestCountRouteBitIdenticalMergedTiers covers snapshots whose histograms are
// the union of a borrowed (gossiped) tier and local samples.
func TestCountRouteBitIdenticalMergedTiers(t *testing.T) {
	rng := stats.NewRand(23)
	p := NewPredictor()
	now := time.Now()
	for trial := 0; trial < 100; trial++ {
		l := 4 + rng.Intn(30)
		source := randomRepo(rng, 2, l, ms)
		repo := repository.New(repository.WithWindowSize(l), repository.WithResolution(ms))
		for _, id := range source.Replicas() {
			repo.AddReplica(id)
		}
		if absorbed, _ := repo.AbsorbDigests(wire.DigestSync{
			Client: "peer", Service: "svc", Seq: 1,
			ResolutionNanos: source.ExportResolutionNanos(), WindowSize: l,
			Digests: source.ExportDigests(now),
		}, now); absorbed != 2 {
			t.Fatalf("trial %d: absorbed %d digests, want 2", trial, absorbed)
		}
		local := 1 + rng.Intn(l/2)
		for _, id := range repo.Replicas() {
			for j := 0; j < local; j++ {
				repo.RecordPerf(id, "", wire.PerfReport{
					ServiceTime: time.Duration(20+rng.Intn(60)) * ms,
					QueueDelay:  time.Duration(rng.Intn(30)) * ms,
				}, now)
			}
			if repo.BorrowedLen(id, "") == 0 {
				t.Fatalf("trial %d: %s lost its borrowed tier after %d local samples (l=%d)", trial, id, local, l)
			}
		}
		for _, s := range repo.Snapshot("") {
			checkBuild(t, p, s, true, fmt.Sprintf("merged trial %d %s", trial, s.ID))
		}
	}
}

// TestCountRouteFallbacks: inputs or products wider than maxSupport, and a
// distributional T, leave the count route for the general one.
func TestCountRouteFallbacks(t *testing.T) {
	rng := stats.NewRand(29)
	narrow := NewPredictor(WithMaxSupport(16))
	wide := NewPredictor()
	for trial := 0; trial < 50; trial++ {
		for _, s := range randomRepo(rng, 3, 60, ms).Snapshot("") {
			if len(s.ServiceHist.Bins) <= 16 && len(s.QueueHist.Bins) <= 16 {
				t.Fatalf("trial %d: %s has narrow inputs; widen the windows", trial, s.ID)
			}
			checkBuild(t, narrow, s, false, fmt.Sprintf("wide input, trial %d %s", trial, s.ID))
		}
		for _, s := range randomWANRepo(rng, 2, 20, 8, ms).Snapshot("") {
			checkBuild(t, wide, s, false, fmt.Sprintf("distributional T, trial %d %s", trial, s.ID))
		}
	}
	// Ten distinct S bins and ten W bins spaced past S's range: both inputs
	// fit maxSupport 16, their 100-point product does not.
	repo := repository.New(repository.WithWindowSize(10), repository.WithResolution(ms))
	repo.AddReplica("r")
	for j := 0; j < 10; j++ {
		repo.RecordPerf("r", "", wire.PerfReport{ServiceTime: time.Duration(j) * ms, QueueDelay: time.Duration(20*j) * ms}, time.Now())
	}
	snaps := repo.Snapshot("")
	checkBuild(t, wide, snaps[0], true, "wide product, default maxSupport")
	checkBuild(t, narrow, snaps[0], false, "wide product, maxSupport 16")
}
