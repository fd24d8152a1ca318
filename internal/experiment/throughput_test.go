package experiment

import (
	"testing"
	"time"
)

func quickThroughputConfig() ThroughputConfig {
	return ThroughputConfig{
		Replicas:   8,
		WindowSize: 30,
		Deadline:   400 * time.Millisecond,
		Requests:   2_000,
		Callers:    2,
		Seed:       1,
	}
}

func TestRunThroughput(t *testing.T) {
	res, err := RunThroughput(quickThroughputConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]ThroughputPhase{
		"reference": res.Reference, "optimized": res.Optimized, "concurrent": res.Concurrent,
	} {
		if p.Ops == 0 || p.DecisionsPerSec <= 0 {
			t.Errorf("%s phase empty: %+v", name, p)
		}
		if p.P50Ns <= 0 || p.P999Ns < p.P99Ns || p.P99Ns < p.P50Ns {
			t.Errorf("%s percentiles inconsistent: %+v", name, p)
		}
	}
	if res.SpeedupVsRef <= 1 {
		t.Errorf("optimized path not faster than reference: %.2fx", res.SpeedupVsRef)
	}
	if res.CachedAllocsOp != 0 {
		t.Errorf("cached path allocates %.1f per op, want 0", res.CachedAllocsOp)
	}
	if res.ChurnAllocsOp <= 0 || res.ChurnAllocsOp > churnAllocsLimit {
		t.Errorf("churned path allocates %.1f per op, want in (0, %d]", res.ChurnAllocsOp, churnAllocsLimit)
	}
	// Round trip through the JSON baseline format.
	blob, err := MarshalThroughput(res)
	if err != nil {
		t.Fatal(err)
	}
	base, err := UnmarshalThroughput(blob)
	if err != nil {
		t.Fatal(err)
	}
	// A result always passes the fence against itself.
	if err := ThroughputFence(res, base); err != nil {
		t.Errorf("fence rejected result against itself: %v", err)
	}
	if ThroughputTable(res) == nil {
		t.Error("nil table")
	}
}

func TestThroughputFenceCatchesRegressions(t *testing.T) {
	cur := &ThroughputResult{
		SpeedupVsRef: 4.0,
		Optimized:    ThroughputPhase{P50Ns: 1000, P999Ns: 5000},
	}
	base := &ThroughputResult{
		SpeedupVsRef: 4.0,
		Optimized:    ThroughputPhase{P50Ns: 1000, P999Ns: 5000},
	}
	if err := ThroughputFence(cur, base); err != nil {
		t.Fatalf("identical results must pass: %v", err)
	}
	slow := *cur
	slow.SpeedupVsRef = 3.0 // below 0.85 * 4.0
	if err := ThroughputFence(&slow, base); err == nil {
		t.Error("speedup regression not caught")
	}
	leaky := *cur
	leaky.CachedAllocsOp = 2
	if err := ThroughputFence(&leaky, base); err == nil {
		t.Error("alloc regression not caught")
	}
	churny := *cur
	churny.ChurnAllocsOp = churnAllocsLimit + 1
	if err := ThroughputFence(&churny, base); err == nil {
		t.Error("churned-path alloc regression not caught")
	}
	churny.ChurnAllocsOp = churnAllocsLimit
	if err := ThroughputFence(&churny, base); err != nil {
		t.Errorf("churned path at the limit rejected: %v", err)
	}
	tail := *cur
	tail.Optimized.P999Ns = 20000 // p999/p50 = 20 vs baseline 5, above 3x
	if err := ThroughputFence(&tail, base); err == nil {
		t.Error("tail regression not caught")
	}
	if err := ThroughputFence(cur, nil); err == nil {
		t.Error("missing baseline not caught")
	}
}
