// Package gateway implements the client-side AQuA gateway and its protocol
// handlers. The centerpiece is the TimingFaultHandler (§5.4): it intercepts
// a client's calls, runs the dynamic replica selection algorithm through
// internal/core, multicasts the request to the selected subset, delivers the
// earliest reply, harvests performance data from every reply, detects timing
// failures, and issues the QoS-violation callback.
//
// AQuA's pre-existing handlers are represented too: the active handler
// (every request to every replica, first reply wins) is the timing fault
// handler configured with the selection.All strategy, and the passive
// handler (primary/backup with failover) lives in passive.go.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/metrics"
	"aqua/internal/model"
	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/trace"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

// forgetGrace is how long after its deadline a request's tracking state is
// retained so straggler duplicate replies can still be harvested.
const forgetGrace = 30 * time.Second

// Config configures a TimingFaultHandler.
type Config struct {
	// Client identifies this client gateway.
	Client wire.ClientID
	// Service is the replicated service the handler fronts.
	Service wire.Service
	// QoS is the client's initial QoS specification (renegotiable).
	QoS wire.QoS
	// Strategy overrides the selection strategy; nil means the paper's
	// Algorithm 1.
	Strategy selection.Strategy
	// WindowSize is the repository sliding-window size l; zero means the
	// paper default of 5.
	WindowSize int
	// CompensateOverhead enables the §5.3.3 δ deadline compensation.
	CompensateOverhead bool
	// StalenessBound forces re-probing of replicas with stale history.
	StalenessBound time.Duration
	// OnViolation is invoked when the observed frequency of timely
	// responses falls below QoS.MinProbability (§5.4.2). Called from the
	// handler's receive goroutine; must not block.
	OnViolation func(core.ViolationReport)
	// Group, when set, tracks membership via the group-communication layer.
	Group *group.Config
	// StaticReplicas maps replica IDs to addresses for deployments without
	// the group layer (tests, fixed clusters). Ignored when Group is set
	// except as an address fallback.
	StaticReplicas map[wire.ReplicaID]transport.Addr
	// MaxWait bounds how long Call waits for a first reply after the
	// deadline has passed; zero means 10× the QoS deadline. Late replies
	// are still delivered (a timing failure is recorded), matching the
	// paper's semantics where the client receives the late response and
	// the failure counter advances.
	MaxWait time.Duration
	// Trace, when non-nil, records scheduling decisions, replies, timing
	// failures, and violations for post-run analysis. Timestamps are
	// relative to the handler's creation.
	Trace *trace.Recorder
	// Overload configures admission control and the degradation ladder in
	// the scheduler (core.OverloadConfig); the zero value keeps the
	// paper-exact behavior. Transport backpressure on the request multicast
	// feeds the same ladder regardless.
	Overload core.OverloadConfig
	// ShedRetryDelay is the backoff before the single bounded retry of a
	// call shed by admission control (core.ErrOverloaded). Zero means half
	// the QoS deadline; negative disables the retry and surfaces
	// ErrOverloaded to the caller immediately.
	ShedRetryDelay time.Duration
	// Lifecycle configures per-replica timing-fault suspicion, quarantine,
	// and probation re-admission in the scheduler (core.LifecycleConfig);
	// the zero value keeps the paper-exact behavior. Pair it with
	// ProbeInterval so probation replicas have a warm-up path back into
	// selection.
	Lifecycle core.LifecycleConfig
	// CancelOnFirstReply enables first-response-wins cancellation: when the
	// earliest reply is delivered, a wire.Cancel is multicast to the
	// remaining selected replicas so a queued duplicate is purged (or a
	// mid-service one aborted) instead of burning a full service time.
	// Replies already in flight are still harvested as duplicates.
	// Incompatible with Ordered: purging a stamped request would hole the
	// apply sequence every replica must execute.
	CancelOnFirstReply bool
	// Ordered enables the ordered service mode (ordered.go): every non-probe
	// request is stamped with a per-client logical timestamp before the
	// multicast, and the gateway retains the stamped frames in a bounded log
	// to answer replica gap-refill requests. Pair it with replicas running a
	// server.StateMachine; stateless replicas ignore the stamps.
	Ordered bool
	// Controller, when set, is the online redundancy controller replacing
	// selection.Budgeted's static load→|K| interpolation; it is wired into
	// the scheduler and fed the cancel-savings signal.
	Controller *core.AdaptiveBudget
	// Gossip, when non-nil with a positive Interval, joins this handler to
	// the shared-intelligence digest fabric (gossip.go): its repository's
	// local window digests are pushed to Gossip.Peers on a jittered cadence,
	// peers' digests are absorbed into the borrowed tier, and with
	// Gossip.Bootstrap the handler seeds itself from one peer's full digest
	// set at startup.
	Gossip *GossipConfig
	// ProbeInterval, when positive, enables active probing (the paper's §8
	// extension): replicas whose performance data is older than
	// StalenessBound (or ProbeInterval if no bound is set) receive probe
	// requests that refresh the repository without counting in the client's
	// statistics.
	ProbeInterval time.Duration
	// NoPerfSubscription disables the §5.4 per-request performance-report
	// subscription to replicas. The handler then learns only from its own
	// replies and probes — the regime (WAN fleets, high fan-out) where
	// per-request publication to every gateway is too expensive and the
	// batched digest fabric (Gossip) is meant to carry shared intelligence
	// instead.
	NoPerfSubscription bool
	// Metrics receives the handler's live counters (calls, errors) and is
	// forwarded to the scheduler and prober; nil means the process-wide
	// default registry.
	Metrics *metrics.Registry
}

// TimingFaultHandler is the client-side protocol handler for tolerating
// timing faults. Create with NewTimingFaultHandler; release with Close.
type TimingFaultHandler struct {
	cfg    Config
	ep     transport.Endpoint
	sched  *core.Scheduler
	node   *group.Node
	prober *prober
	gossip *gossiper
	epoch  time.Time // trace timestamps are offsets from creation

	metCalls        *metrics.Counter
	metCallErrors   *metrics.Counter
	metShedRetries  *metrics.Counter
	metCancels      *metrics.Counter
	metDemuxDropped *metrics.Counter
	dropLogOnce     sync.Once

	ordered *orderedLog // nil unless cfg.Ordered

	mu         sync.Mutex
	addrOf     map[wire.ReplicaID]transport.Addr
	waiters    map[wire.SeqNo]chan wire.Response
	subscribed map[wire.ReplicaID]bool

	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// NewTimingFaultHandler creates the handler on ep. The handler owns ep's
// receive stream; Close closes the endpoint. To share one endpoint across
// several services, load handlers into a MultiGateway instead.
func NewTimingFaultHandler(ep transport.Endpoint, cfg Config) (*TimingFaultHandler, error) {
	return newTimingFaultHandlerOn(ep, cfg, true)
}

// newTimingFaultHandlerOn builds a handler; ownRecvLoop selects whether the
// handler drains ep itself (standalone) or is fed by a MultiGateway demux.
func newTimingFaultHandlerOn(ep transport.Endpoint, cfg Config, ownRecvLoop bool) (*TimingFaultHandler, error) {
	if cfg.Client == "" {
		return nil, fmt.Errorf("gateway: client ID is required")
	}
	if cfg.Ordered && cfg.CancelOnFirstReply {
		return nil, fmt.Errorf("gateway: Ordered is incompatible with CancelOnFirstReply: cancelling a stamped request would hole the apply sequence")
	}
	repo := repository.New(repository.WithWindowSize(cfg.WindowSize))
	reg := metrics.OrDefault(cfg.Metrics)
	sched, err := core.NewScheduler(core.Config{
		Service:            cfg.Service,
		QoS:                cfg.QoS,
		Strategy:           cfg.Strategy,
		Predictor:          model.NewPredictor(),
		Repository:         repo,
		CompensateOverhead: cfg.CompensateOverhead,
		StalenessBound:     cfg.StalenessBound,
		Overload:           cfg.Overload,
		Lifecycle:          cfg.Lifecycle,
		Controller:         cfg.Controller,
		Metrics:            reg,
	})
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	h := &TimingFaultHandler{
		cfg:             cfg,
		ep:              ep,
		sched:           sched,
		epoch:           time.Now(),
		metCalls:        reg.Counter(metrics.GatewayCalls),
		metCallErrors:   reg.Counter(metrics.GatewayCallErrors),
		metShedRetries:  reg.Counter(metrics.GatewayShedRetries),
		metCancels:      reg.Counter(metrics.GatewayCancels),
		metDemuxDropped: reg.Counter(metrics.GatewayDemuxDropped),
		addrOf:          make(map[wire.ReplicaID]transport.Addr),
		waiters:         make(map[wire.SeqNo]chan wire.Response),
		subscribed:      make(map[wire.ReplicaID]bool),
		stop:            make(chan struct{}),
	}
	if cfg.Ordered {
		h.ordered = newOrderedLog()
	}
	for id, addr := range cfg.StaticReplicas {
		h.addrOf[id] = addr
	}
	if cfg.Group != nil {
		gcfg := *cfg.Group
		gcfg.Role = group.Observer
		gcfg.Group = cfg.Service
		gcfg.OnViewChange = h.onViewChange
		node, err := group.Join(ep, gcfg)
		if err != nil {
			return nil, fmt.Errorf("gateway: joining group: %w", err)
		}
		h.node = node
	} else if len(cfg.StaticReplicas) > 0 {
		ids := make([]wire.ReplicaID, 0, len(cfg.StaticReplicas))
		for id := range cfg.StaticReplicas {
			ids = append(ids, id)
		}
		sched.OnMembershipChange(ids)
		h.subscribeAll(ids)
	} else {
		return nil, fmt.Errorf("gateway: either Group or StaticReplicas is required")
	}
	if cfg.ProbeInterval > 0 {
		bound := cfg.StalenessBound
		if bound <= 0 {
			bound = cfg.ProbeInterval
		}
		h.prober = newProber(h, cfg.ProbeInterval, bound)
	}
	if cfg.Gossip != nil && cfg.Gossip.Interval > 0 {
		h.gossip = newGossiper(h, *cfg.Gossip)
	}
	if ownRecvLoop {
		h.wg.Add(1)
		go h.recvLoop()
	}
	return h, nil
}

// Scheduler exposes the underlying scheduler (stats, renegotiation).
func (h *TimingFaultHandler) Scheduler() *core.Scheduler { return h.sched }

// Stats returns the scheduler's counters.
func (h *TimingFaultHandler) Stats() core.Stats { return h.sched.Stats() }

// Renegotiate replaces the QoS specification at runtime.
func (h *TimingFaultHandler) Renegotiate(q wire.QoS) error { return h.sched.Renegotiate(q) }

// ControllerStats returns the adaptive budget controller's counters; ok is
// false when no controller is configured.
func (h *TimingFaultHandler) ControllerStats() (s core.ControllerStats, ok bool) {
	if h.cfg.Controller == nil {
		return core.ControllerStats{}, false
	}
	return h.cfg.Controller.Stats(), true
}

// ProbesSent returns how many active probes have been dispatched (0 when
// probing is disabled).
func (h *TimingFaultHandler) ProbesSent() uint64 {
	if h.prober == nil {
		return 0
	}
	return h.prober.Sent()
}

// GossipStats returns the digest-fabric counters; ok is false when gossip is
// not configured.
func (h *TimingFaultHandler) GossipStats() (s GossipStats, ok bool) {
	if h.gossip == nil {
		return GossipStats{}, false
	}
	return h.gossip.Stats(), true
}

// SetGossipPeers replaces the digest-fabric peer set at runtime (no-op when
// gossip is not configured). A pending bootstrap retries against the new set.
func (h *TimingFaultHandler) SetGossipPeers(peers []transport.Addr) {
	if h.gossip != nil {
		h.gossip.SetPeers(peers)
	}
}

// Close stops the handler and closes its endpoint.
func (h *TimingFaultHandler) Close() {
	h.stopOnce.Do(func() {
		close(h.stop)
		if h.prober != nil {
			h.prober.Stop()
		}
		if h.gossip != nil {
			h.gossip.Stop()
		}
		if h.node != nil {
			h.node.Leave()
		}
		_ = h.ep.Close()
		h.wg.Wait()
	})
}

// UpdateMembership replaces the static replica table: the scheduler's
// repository is reconciled and new replicas are subscribed. Deployments
// without the group layer (e.g. the Cluster facade) call this when replicas
// start or crash-stop.
func (h *TimingFaultHandler) UpdateMembership(replicas map[wire.ReplicaID]transport.Addr) {
	ids := make([]wire.ReplicaID, 0, len(replicas))
	h.mu.Lock()
	h.addrOf = make(map[wire.ReplicaID]transport.Addr, len(replicas))
	for id, addr := range replicas {
		h.addrOf[id] = addr
		ids = append(ids, id)
	}
	for id := range h.subscribed {
		if _, ok := replicas[id]; !ok {
			delete(h.subscribed, id)
		}
	}
	h.mu.Unlock()
	h.sched.OnMembershipChange(ids)
	h.prober.onMembershipChange(ids)
	h.subscribeAll(ids)
}

// onViewChange reconciles membership and subscribes to newcomers.
func (h *TimingFaultHandler) onViewChange(v group.View) {
	h.sched.OnMembershipChange(v.Members)
	h.prober.onMembershipChange(v.Members)
	h.subscribeAll(v.Members)
}

// subscribeAll sends a performance-update subscription to any replica not
// yet subscribed.
func (h *TimingFaultHandler) subscribeAll(ids []wire.ReplicaID) {
	if h.cfg.NoPerfSubscription {
		return
	}
	sub := wire.Subscribe{Client: h.cfg.Client, Service: h.cfg.Service}
	for _, id := range ids {
		h.mu.Lock()
		done := h.subscribed[id]
		h.mu.Unlock()
		if done {
			continue
		}
		if addr, ok := h.resolve(id); ok {
			if err := h.ep.Send(addr, sub); err == nil {
				h.mu.Lock()
				h.subscribed[id] = true
				h.mu.Unlock()
			}
		}
	}
}

// resolve maps a replica ID to its transport address, preferring the group
// layer's live knowledge over the static table.
func (h *TimingFaultHandler) resolve(id wire.ReplicaID) (transport.Addr, bool) {
	if h.node != nil {
		if a, ok := h.node.AddrOf(id); ok {
			return a, true
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.addrOf[id]
	return a, ok
}

// Call issues one request and blocks until the earliest reply, the context
// is done, or MaxWait elapses. A late first reply is returned to the caller
// (with the timing failure already recorded), as in the paper.
//
// A call shed by admission control (core.ErrOverloaded) is retried exactly
// once after ShedRetryDelay — long enough for the backlog that triggered the
// shed to drain a little, bounded so a persistent overload still surfaces as
// an explicit error instead of an unbounded retry storm.
func (h *TimingFaultHandler) Call(ctx context.Context, method string, payload []byte) (_ []byte, retErr error) {
	h.metCalls.Inc()
	defer func() {
		if retErr != nil {
			h.metCallErrors.Inc()
		}
	}()
	out, err := h.callOnce(ctx, method, payload)
	if err == nil || !errors.Is(err, core.ErrOverloaded) || h.cfg.ShedRetryDelay < 0 {
		return out, err
	}
	delay := h.cfg.ShedRetryDelay
	if delay == 0 {
		delay = h.sched.QoS().Deadline / 2
	}
	h.metShedRetries.Inc()
	backoff := time.NewTimer(delay)
	defer backoff.Stop()
	select {
	case <-backoff.C:
	case <-ctx.Done():
		return nil, fmt.Errorf("gateway: call canceled: %w", ctx.Err())
	case <-h.stop:
		return nil, transport.ErrClosed
	}
	return h.callOnce(ctx, method, payload)
}

// callOnce runs one scheduling + multicast + wait cycle.
func (h *TimingFaultHandler) callOnce(ctx context.Context, method string, payload []byte) ([]byte, error) {
	t0 := time.Now()
	d, err := h.sched.Schedule(t0, method)
	if err != nil {
		return nil, fmt.Errorf("gateway: scheduling: %w", err)
	}
	h.cfg.Trace.Record(trace.Event{
		At: t0.Sub(h.epoch), Kind: trace.KindSchedule, Client: h.cfg.Client,
		Seq: d.Seq, Targets: d.Targets, Value: d.Predicted, Duration: d.Overhead,
	})

	waiter := make(chan wire.Response, 1)
	h.mu.Lock()
	h.waiters[d.Seq] = waiter
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.waiters, d.Seq)
		h.mu.Unlock()
	}()

	req := wire.Request{
		Client:  h.cfg.Client,
		Seq:     d.Seq,
		Service: h.cfg.Service,
		Method:  method,
		Payload: payload,
		SentAt:  time.Now(),
	}
	var addrs []transport.Addr
	for _, id := range d.Targets {
		if a, ok := h.resolve(id); ok {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		h.sched.Forget(d.Seq)
		return nil, fmt.Errorf("gateway: no reachable replicas among %v", d.Targets)
	}
	t1 := time.Now()
	req.SentAt = t1
	if h.ordered != nil {
		// Stamp at the last moment before the multicast, so stamps are issued
		// in send order and the logged frame matches the one on the wire.
		h.ordered.stamp(&req)
	}
	// Record t1 before the multicast: every reply can be handled before
	// Multicast returns, and OnReply needs the pending entry and its t1.
	if err := h.sched.Dispatched(d.Seq, t1); err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	if err := transport.Multicast(h.ep, addrs, req); err != nil {
		// A saturated send queue is an overload signal: feed it into the
		// scheduler's degradation ladder so selection stops fanning out
		// before the transport starts dropping frames wholesale.
		if errors.Is(err, transport.ErrBackpressure) {
			h.sched.NoteBackpressure()
		}
		// Partial delivery is fine — that's what redundancy is for — but
		// total failure with one target means the call cannot proceed.
		if len(addrs) == 1 {
			h.sched.Forget(d.Seq)
			return nil, fmt.Errorf("gateway: sending request: %w", err)
		}
	}

	// Arm the deadline: if no reply arrived in time, the timing failure is
	// charged immediately (crashed-subset case) rather than whenever a
	// straggler shows up.
	qos := h.sched.QoS()
	deadlineTimer := time.AfterFunc(qos.Deadline-time.Since(t0), func() {
		if v := h.sched.OnDeadlineExpired(d.Seq); v != nil && h.cfg.OnViolation != nil {
			h.cfg.OnViolation(*v)
		}
	})
	defer deadlineTimer.Stop()

	// Schedule eventual cleanup of the tracking state so requests whose
	// replicas crashed don't accumulate. Forget is a no-op if every reply
	// already arrived.
	time.AfterFunc(qos.Deadline+forgetGrace, func() { h.sched.Forget(d.Seq) })

	maxWait := h.cfg.MaxWait
	if maxWait <= 0 {
		maxWait = 10 * qos.Deadline
	}
	overall := time.NewTimer(maxWait)
	defer overall.Stop()

	select {
	case resp := <-waiter:
		if resp.Err != "" {
			return nil, fmt.Errorf("gateway: replica %s: %s", resp.Replica, resp.Err)
		}
		return resp.Payload, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("gateway: call canceled: %w", ctx.Err())
	case <-overall.C:
		return nil, fmt.Errorf("gateway: no response from %v within %v", d.Targets, maxWait)
	case <-h.stop:
		return nil, transport.ErrClosed
	}
}

// recvLoop routes replies, performance updates, and heartbeats when the
// handler owns its endpoint.
func (h *TimingFaultHandler) recvLoop() {
	defer h.wg.Done()
	for msg := range h.ep.Recv() {
		h.handleMessage(msg, time.Now())
	}
}

// handleMessage processes one incoming transport message. It is the single
// entry point for both the standalone receive loop and the MultiGateway
// demultiplexer.
func (h *TimingFaultHandler) handleMessage(msg transport.Message, now time.Time) {
	switch m := msg.Payload.(type) {
	case wire.Response:
		if m.Client != h.cfg.Client {
			return
		}
		if m.Probe {
			if h.prober != nil {
				h.prober.onProbeReply(m, now)
			}
			return
		}
		out := h.sched.OnReply(m.Seq, m.Replica, now, m.Perf)
		h.cfg.Trace.Record(trace.Event{
			At: now.Sub(h.epoch), Kind: trace.KindReply, Client: h.cfg.Client,
			Seq: m.Seq, Replica: m.Replica, Duration: out.ResponseTime,
		})
		if out.First && out.TimingFailure {
			h.cfg.Trace.Record(trace.Event{
				At: now.Sub(h.epoch), Kind: trace.KindFailure, Client: h.cfg.Client,
				Seq: m.Seq, Duration: out.ResponseTime,
			})
		}
		if out.Violation != nil {
			h.cfg.Trace.Record(trace.Event{
				At: now.Sub(h.epoch), Kind: trace.KindViolation, Client: h.cfg.Client,
				Seq: m.Seq, Value: out.Violation.ObservedTimely,
			})
		}
		if out.Violation != nil && h.cfg.OnViolation != nil {
			h.cfg.OnViolation(*out.Violation)
		}
		// Deliver to the waiting Call on the first reply — or on a reply the
		// scheduler no longer tracks (pending state dropped by Forget's grace
		// timer or the membership sweep while the reply was in flight).
		// Sequence numbers are never reused, so a reply matching a live
		// waiter is that call's response; without this, an orphaned reply
		// strands the caller until MaxWait.
		if out.First || out.Unknown {
			h.mu.Lock()
			w := h.waiters[m.Seq]
			h.mu.Unlock()
			if w != nil {
				select {
				case w <- m:
				default:
				}
			}
		}
		if out.First && h.cfg.CancelOnFirstReply {
			h.fanCancel(m.Seq)
		}
	case wire.PerfUpdate:
		if m.Service == h.cfg.Service {
			h.sched.OnPerfUpdate(m, now)
		}
	case wire.Heartbeat:
		if h.node != nil {
			h.node.HandleHeartbeat(m, msg.From, now)
		}
	case wire.DigestSync:
		if m.Service == h.cfg.Service && h.gossip != nil {
			h.gossip.onSync(m, now)
		}
	case wire.DigestRequest:
		if m.Service == h.cfg.Service && h.gossip != nil {
			h.gossip.onRequest(m, msg.From)
		}
	case wire.StateRequest:
		// A replica found a stamp gap in this client's stream and asks for
		// the originals back. Peer-recovery pulls (WantSnapshot) are replica
		// business and never addressed to gateways.
		if m.Service == h.cfg.Service && m.Gap == h.cfg.Client && !m.WantSnapshot && h.ordered != nil {
			h.serveRefill(m, msg.From)
		}
	default:
		// A payload type this handler does not understand — a newer peer's
		// message on a mixed-version fleet. Count it (and say so once) rather
		// than silently eating it.
		h.metDemuxDropped.Inc()
		h.dropLogOnce.Do(func() {
			log.Printf("gateway %s: dropping unknown payload type %T from %s (counted in %s)",
				h.cfg.Client, msg.Payload, msg.From, metrics.GatewayDemuxDropped)
		})
	}
}

// fanCancel multicasts a first-response-wins Cancel to every selected
// replica that has not yet replied for seq (the losers of the race). The
// scheduler settles their in-flight contributions and suppresses their
// suspicion charges; the multicast reuses the single-encode path, so the
// Cancel costs one serialization regardless of fan-out. Best-effort: a lost
// Cancel just means that replica serves a duplicate, as before.
func (h *TimingFaultHandler) fanCancel(seq wire.SeqNo) {
	targets := h.sched.CancelTargets(seq, nil)
	if len(targets) == 0 {
		return
	}
	addrs := make([]transport.Addr, 0, len(targets))
	for _, id := range targets {
		if a, ok := h.resolve(id); ok {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return
	}
	_ = transport.Multicast(h.ep, addrs, wire.Cancel{Client: h.cfg.Client, Seq: seq, Service: h.cfg.Service})
	h.metCancels.Add(uint64(len(addrs)))
}

// NewActiveHandler returns AQuA's active-replication handler: every request
// goes to every live replica and the first reply is delivered. It reuses
// the timing fault machinery with the All strategy.
func NewActiveHandler(ep transport.Endpoint, cfg Config) (*TimingFaultHandler, error) {
	cfg.Strategy = selection.All{}
	return NewTimingFaultHandler(ep, cfg)
}
