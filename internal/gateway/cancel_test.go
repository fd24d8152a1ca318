package gateway

// End-to-end fences for first-response-wins cancellation and the adaptive
// redundancy controller: after the earliest reply is delivered, the losing
// replicas receive a Cancel and either purge the queued copy or abort the
// one in service — duplicate work stops, and the client-side accounting
// stays exact.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aqua/internal/core"
	"aqua/internal/metrics"
	"aqua/internal/selection"
	"aqua/internal/server"
	"aqua/internal/stats"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

func TestCancelOnFirstReplyStopsLosers(t *testing.T) {
	// One fast replica, two slow ones: the fast reply wins every race and
	// the slow copies are still queued or mid-service when the Cancel lands.
	f := newFixture(t, 1, stats.Constant{Delay: ms})
	for i := 1; i <= 2; i++ {
		id := wire.ReplicaID(fmt.Sprintf("slow%d", i))
		ep, err := f.net.Listen(transport.Addr(id))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.Start(ep, server.Config{
			ID: id, Service: "svc",
			Handler:   func(string, []byte) ([]byte, error) { return []byte("slow"), nil },
			LoadDelay: stats.Constant{Delay: 400 * ms},
			Seed:      int64(10 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		f.replicas[id] = srv
	}

	reg := metrics.NewRegistry()
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS:                wire.QoS{Deadline: time.Second, MinProbability: 0.9},
		Strategy:           selection.All{}, // always fan to all three
		CancelOnFirstReply: true,
		Metrics:            reg,
	})

	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := h.Call(context.Background(), "m", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}

	// Every call fans to 3 replicas; the two slow losers are cancelled. Call
	// returns once the first reply reaches its waiter, and the receive loop
	// multicasts that call's Cancel just after, so wait for the last one.
	waitFor(t, 2*time.Second, func() bool { return reg.Counter(metrics.GatewayCancels).Value() >= 2*calls },
		"the last call's cancels")
	if got := reg.Counter(metrics.GatewayCancels).Value(); got != 2*calls {
		t.Errorf("cancels sent = %d, want %d", got, 2*calls)
	}
	stopped := func() uint64 {
		var n uint64
		for id, r := range f.replicas {
			if id == "r0" {
				continue
			}
			purged, aborted, _ := r.CancelStats()
			n += purged + aborted
		}
		return n
	}
	waitFor(t, 2*time.Second, func() bool { return stopped() == 2*calls },
		"losing replicas purged or aborted every cancelled copy")

	// The fast replica served everything; with serial calls every duplicate
	// was still pending at the losers when the Cancel arrived, so none of
	// the slow copies burned a full service time.
	if served := f.replicas["r0"].Served(); served != calls {
		t.Errorf("winner served %d, want %d", served, calls)
	}
	// No pending entries leak: cancelled requests are discounted and their
	// silence at the deadline is not charged as a timing failure.
	if out := h.Scheduler().Outstanding(); out != 0 {
		t.Errorf("outstanding = %d, want 0", out)
	}
	if st := h.Stats(); st.TimingFailures != 0 {
		t.Errorf("timing failures = %d, want 0 (cancelled silence must not be charged)", st.TimingFailures)
	}
}

// TestControllerWiredThroughGateway checks Config.Controller reaches the
// scheduler's decision path: with the controller pinned at its floor, every
// budgeted selection obeys it.
func TestControllerWiredThroughGateway(t *testing.T) {
	f := newFixture(t, 5, stats.Constant{Delay: ms})
	ctrl := core.NewAdaptiveBudget(core.AdaptiveBudgetConfig{MinK: 2, MaxK: 2})
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS:        wire.QoS{Deadline: time.Second, MinProbability: 0.99},
		Strategy:   selection.NewBudgeted(),
		Controller: ctrl,
	})
	// The cold start may fan to all 5; every later decision is budgeted at 2.
	for i := 0; i < 4; i++ {
		if _, err := h.Call(context.Background(), "m", nil); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Stats()
	if st.SelectedTotal > 5+3*2 {
		t.Errorf("selected total = %d; controller budget (2) not applied", st.SelectedTotal)
	}
	if got := ctrl.Stats().Selected; got != st.SelectedTotal {
		t.Errorf("controller saw %d selections, scheduler %d", got, st.SelectedTotal)
	}
}
