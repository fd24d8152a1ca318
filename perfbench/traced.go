package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aqua/internal/core"
	"aqua/internal/gateway"
	"aqua/internal/metrics"
	"aqua/internal/server"
	"aqua/internal/trace"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

// The traced run assembles the same stack aqua.NewCluster and NewClient
// build, from internal/transport, internal/server and internal/gateway, and
// times every layer from outside: wrappers at the transport.Endpoint and
// server.Handler boundaries, the gateway's schedule trace events (δ), the
// request's SentAt (t1) and the PerfReport piggybacked on each reply (tq,
// ts). Nothing inside the program is changed.

const tracedClient = wire.ClientID("bench-traced")

// frame types counted per call.
const (
	frameRequest = iota
	frameResponse
	frameStateRequest
	frameCancel
	frameOther
	numFrameTypes
)

var frameNames = [numFrameTypes]string{"Request", "Response", "StateRequest", "Cancel", "other"}

func frameType(p any) int {
	switch p.(type) {
	case wire.Request:
		return frameRequest
	case wire.Response:
		return frameResponse
	case wire.StateRequest:
		return frameStateRequest
	case wire.Cancel:
		return frameCancel
	default:
		return frameOther
	}
}

// callRec is one call as its caller saw it.
type callRec struct {
	c0, ret int64 // ns since the tracer's base
	err     bool
	seq     wire.SeqNo
	hasSeq  bool
}

// seqRec is one request as the gateway's endpoint saw it.
type seqRec struct {
	id        uint64
	t1        int64 // Request.SentAt
	sendStart int64 // the Multicast/Send call
	sendEnd   atomic.Int64
	t4        int64 // first reply dequeued from the endpoint
	has4      bool
	perf      wire.PerfReport
	replica   wire.ReplicaID
}

// perfEvent is one PerfReport the gateway received, in arrival order.
type perfEvent struct {
	at      int64
	replica wire.ReplicaID
	perf    wire.PerfReport
	reply   bool // piggybacked on a Response (else a PerfUpdate)
}

type replyKey struct {
	seq     wire.SeqNo
	replica wire.ReplicaID
}

type handlerKey struct {
	id      uint64
	replica wire.ReplicaID
}

// tracer collects the boundary timestamps of one traced run. Spans are
// built from them when the run ends.
type tracer struct {
	base   time.Time
	frames [numFrameTypes]atomic.Uint64

	mu        sync.Mutex
	calls     map[uint64]*callRec
	seqs      map[wire.SeqNo]*seqRec
	stream    []perfEvent
	replySent map[replyKey]int64
	handlers  map[handlerKey][2]int64
	// windowStart is when the measured window opened; per-layer samples
	// are taken from it on.
	windowStart int64
}

func newTracer() *tracer {
	return &tracer{
		base:      time.Now(),
		calls:     make(map[uint64]*callRec),
		seqs:      make(map[wire.SeqNo]*seqRec),
		replySent: make(map[replyKey]int64),
		handlers:  make(map[handlerKey][2]int64),
	}
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.base)) }

func (t *tracer) begin(id uint64, at time.Time) {
	t.mu.Lock()
	t.calls[id] = &callRec{c0: t.ns(at)}
	t.mu.Unlock()
}

func (t *tracer) end(id uint64, at time.Time, err error) {
	t.mu.Lock()
	if c := t.calls[id]; c != nil {
		c.ret, c.err = t.ns(at), err != nil
	}
	t.mu.Unlock()
}

// gatewayEP wraps the client gateway's endpoint: it times each request
// send and stamps every incoming message as it leaves the endpoint.
type gatewayEP struct {
	inner transport.Endpoint
	t     *tracer
	recv  chan transport.Message
}

// recvBuffer matches the depth of the transports' own receive queues, so
// the forwarding hop adds no earlier drop point.
const recvBuffer = 4096

func wrapGateway(ep transport.Endpoint, t *tracer) *gatewayEP {
	g := &gatewayEP{inner: ep, t: t, recv: make(chan transport.Message, recvBuffer)}
	go g.forward()
	return g
}

func (g *gatewayEP) Addr() transport.Addr { return g.inner.Addr() }

func (g *gatewayEP) Recv() <-chan transport.Message { return g.recv }

func (g *gatewayEP) Close() error { return g.inner.Close() }

func (g *gatewayEP) Send(to transport.Addr, payload any) error {
	return g.send([]transport.Addr{to}, payload, func() error { return g.inner.Send(to, payload) })
}

func (g *gatewayEP) SendMulticast(to []transport.Addr, payload any) error {
	return g.send(to, payload, func() error { return transport.Multicast(g.inner, to, payload) })
}

// send counts the frames and, for a new request, records t1 and the send
// span before and after the inner call. The record exists before the
// frames leave, so a reply can never arrive ahead of it.
func (g *gatewayEP) send(to []transport.Addr, payload any, do func() error) error {
	g.t.frames[frameType(payload)].Add(uint64(len(to)))
	req, ok := payload.(wire.Request)
	if !ok || req.Probe {
		return do()
	}
	t := g.t
	var rec *seqRec
	t.mu.Lock()
	if _, seen := t.seqs[req.Seq]; !seen {
		id, _ := tokenID(req.Payload)
		rec = &seqRec{id: id, t1: t.ns(req.SentAt)}
		t.seqs[req.Seq] = rec
		if c := t.calls[id]; c != nil {
			c.seq, c.hasSeq = req.Seq, true
		}
		rec.sendStart = t.ns(time.Now())
	}
	t.mu.Unlock()
	err := do()
	if rec != nil {
		// No lock: waiting here for the receive side would widen the
		// window in which every reply can arrive before the gateway records
		// the dispatch.
		rec.sendEnd.Store(t.ns(time.Now()))
	}
	return err
}

// forward stamps each message as the gateway would dequeue it (t4 for
// replies) and hands it on. It ends when the inner endpoint closes.
func (g *gatewayEP) forward() {
	defer close(g.recv)
	t := g.t
	for msg := range g.inner.Recv() {
		now := t.ns(time.Now())
		switch m := msg.Payload.(type) {
		case wire.Response:
			if m.Client == tracedClient && !m.Probe {
				t.mu.Lock()
				if r := t.seqs[m.Seq]; r != nil && !r.has4 {
					r.t4, r.has4, r.perf, r.replica = now, true, m.Perf, m.Replica
				}
				t.stream = append(t.stream, perfEvent{at: now, replica: m.Replica, perf: m.Perf, reply: true})
				t.mu.Unlock()
			}
		case wire.PerfUpdate:
			t.mu.Lock()
			t.stream = append(t.stream, perfEvent{at: now, replica: m.Replica, perf: m.Perf})
			t.mu.Unlock()
		}
		g.recv <- msg
	}
}

// replicaEP wraps a replica's endpoint to count frames and time each reply
// as it leaves the replica.
type replicaEP struct {
	transport.Endpoint
	t  *tracer
	id wire.ReplicaID
}

func (r *replicaEP) Send(to transport.Addr, payload any) error {
	r.note(payload, 1)
	return r.Endpoint.Send(to, payload)
}

func (r *replicaEP) SendMulticast(to []transport.Addr, payload any) error {
	r.note(payload, len(to))
	return transport.Multicast(r.Endpoint, to, payload)
}

func (r *replicaEP) note(payload any, n int) {
	r.t.frames[frameType(payload)].Add(uint64(n))
	if m, ok := payload.(wire.Response); ok && m.Client == tracedClient {
		now := r.t.ns(time.Now())
		r.t.mu.Lock()
		r.t.replySent[replyKey{m.Seq, r.id}] = now
		r.t.mu.Unlock()
	}
}

// timeHandler wraps the application code a replica runs, keyed by the call
// id in the payload token.
func (t *tracer) timeHandler(id wire.ReplicaID, fn func(string, []byte) ([]byte, error)) func(string, []byte) ([]byte, error) {
	return func(method string, payload []byte) ([]byte, error) {
		start := t.ns(time.Now())
		out, err := fn(method, payload)
		end := t.ns(time.Now())
		if cid, ok := tokenID(payload); ok {
			t.mu.Lock()
			t.handlers[handlerKey{cid, id}] = [2]int64{start, end}
			t.mu.Unlock()
		}
		return out, err
	}
}

// tracedSM times the ordered workload's state machine the same way.
type tracedSM struct {
	server.StateMachine
	apply func(string, []byte) ([]byte, error)
}

func (s tracedSM) Apply(method string, payload []byte) ([]byte, error) {
	return s.apply(method, payload)
}

// stack is the traced cluster: replicas and one gateway handler on a
// network reporting to its own registry.
type stack struct {
	reg      *metrics.Registry
	inmem    *transport.InMem
	servers  []*server.Replica
	handler  *gateway.TimingFaultHandler
	recorder *trace.Recorder
}

// traceCapacity bounds the schedule/reply event ring; calls whose schedule
// event was overwritten are left out of the tiling and counted.
const traceCapacity = 1 << 19

// buildStack starts the workload's cluster the way aqua.NewCluster and
// NewClient do, with the tracer's wrappers in place.
func buildStack(w workload, seed int64, t *tracer) (*stack, error) {
	st := &stack{reg: metrics.NewRegistry(), recorder: trace.New(trace.WithCapacity(traceCapacity))}
	var network transport.Network
	if w.tcp {
		network = transport.NewTCPWithMetrics(st.reg)
	} else {
		st.inmem = transport.NewInMem(transport.WithMetrics(st.reg))
		network = st.inmem
	}
	addrs := make(map[wire.ReplicaID]transport.Addr, w.replicas)
	for i := 1; i <= w.replicas; i++ {
		id := replicaID(i)
		addr := transport.Addr(id)
		if w.tcp {
			addr = "127.0.0.1:0"
		}
		ep, err := network.Listen(addr)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("replica endpoint: %w", err)
		}
		var sm server.StateMachine
		if w.ordered {
			c := &counter{}
			sm = tracedSM{StateMachine: c, apply: t.timeHandler(id, c.Apply)}
		}
		srv, err := server.Start(&replicaEP{Endpoint: ep, t: t, id: id}, server.Config{
			ID:           id,
			Service:      service,
			Handler:      t.timeHandler(id, echo),
			StateMachine: sm,
			Recovering:   w.ordered && i > 1,
			LoadDelay:    w.load,
			Seed:         seed + int64(i),
			Metrics:      st.reg,
		})
		if err != nil {
			_ = ep.Close()
			st.close()
			return nil, fmt.Errorf("start replica: %w", err)
		}
		st.servers = append(st.servers, srv)
		addrs[id] = ep.Addr()
		if w.ordered {
			for _, s := range st.servers {
				s.UpdatePeers(addrs)
			}
		}
	}
	caddr := transport.Addr("client:" + tracedClient)
	if w.tcp {
		caddr = "127.0.0.1:0"
	}
	cep, err := network.Listen(caddr)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("client endpoint: %w", err)
	}
	h, err := gateway.NewTimingFaultHandler(wrapGateway(cep, t), gateway.Config{
		Client:             tracedClient,
		Service:            service,
		QoS:                w.qos,
		Strategy:           w.gatewayStrategy(),
		CompensateOverhead: w.compensate,
		StalenessBound:     w.staleness,
		MaxWait:            w.maxWait,
		Overload:           core.OverloadConfig{MaxInFlight: w.maxInFlight},
		Ordered:            w.ordered,
		CancelOnFirstReply: w.cancel,
		Controller:         w.controller(),
		StaticReplicas:     addrs,
		Metrics:            st.reg,
		Trace:              st.recorder,
	})
	if err != nil {
		_ = cep.Close()
		st.close()
		return nil, fmt.Errorf("gateway handler: %w", err)
	}
	st.handler = h
	return st, nil
}

func (st *stack) close() {
	if st.handler != nil {
		st.handler.Close()
	}
	for _, s := range st.servers {
		s.Stop()
	}
	if st.inmem != nil {
		_ = st.inmem.Close()
	}
}

// counterDelta reads a counter's growth between two registry snapshots.
func counterDelta(a, b metrics.Snapshot, name string) float64 {
	return float64(b.Counter(name) - a.Counter(name))
}

// closedTraceWindow caps each phase of a closed loop's traced run. At up to
// 40,000 calls a second, and a schedule event plus one per reply for each,
// three seconds is what the gateway's trace ring holds.
const closedTraceWindow = 3 * time.Second

// runTraced is the --trace 1 run: half the window (at most
// closedTraceWindow for a closed loop) untraced through the public API, the
// reference for the tracing overhead, and as long through the traced stack;
// then the per-layer figures, the per-call tiling check and the decision
// replay.
func runTraced(ctx context.Context, w workload, seed int64, window time.Duration, spansDir string) (*runOut, error) {
	out := &runOut{}
	half := window / 2
	if w.closed() {
		half = min(half, closedTraceWindow)
	}

	// Untraced reference through the public API.
	p, s, _, err := setUp(ctx, w, seed, 0)
	if err != nil {
		return nil, fmt.Errorf("untraced set-up: %w", err)
	}
	s.warm(ctx)
	ref := s.d.run(ctx, half, windowSlices(w))
	p.close()

	// Traced stack.
	t := newTracer()
	st, err := buildStack(w, seed, t)
	if err != nil {
		return nil, err
	}
	defer st.close()
	ts := &session{d: &runner{w: w, call: st.handler.Call, rate: w.rate, seed: seed}, rng: s.rng}
	if err := ts.untilOK(ctx, 10*time.Second); err != nil {
		return nil, fmt.Errorf("traced first call: %w", err)
	}
	ts.warm(ctx)
	t.mu.Lock()
	t.windowStart = t.ns(time.Now())
	t.mu.Unlock()
	ts.d.trace = t
	reg0, stats0, frames0 := st.reg.Snapshot(), st.handler.Stats(), t.frameCounts()
	res := ts.d.run(ctx, half, windowSlices(w))
	reg1, stats1, frames1 := st.reg.Snapshot(), st.handler.Stats(), t.frameCounts()
	ts.d.trace = nil

	for _, e := range slices.Concat(s.errs, ref.errs, ts.errs, res.errs) {
		out.problems = append(out.problems, "reply check: "+e)
	}
	attempted := float64(res.total.attempted)
	out.attempted = res.total.attempted
	out.failed = res.total.attempted - res.total.ok

	// core: δ of every decision made for a call of the window
	events := t.windowEvents(st.recorder.Filter(trace.KindSchedule))
	deltas := make([]float64, 0, len(events))
	for _, e := range events {
		deltas = append(deltas, float64(e.Duration)/1e3)
	}
	out.printf("trace events=%d dropped=%d", st.recorder.Len(), st.recorder.Dropped())
	out.printf("core.delta_us samples=%d", len(deltas))
	out.add("core.delta_us.p50", "us", percentile(deltas, 0.50))
	out.add("core.delta_us.p99", "us", percentile(deltas, 0.99))
	reqs := float64(stats1.Requests - stats0.Requests)
	replies := float64(stats1.Replies - stats0.Replies)
	out.add("core.replies_per_call", "replies", replies/max(reqs, 1))
	out.add("core.dup_reply_frac", "ratio", float64(stats1.Duplicates-stats0.Duplicates)/max(replies, 1))
	out.add("core.shed_frac", "ratio", float64(stats1.Shed-stats0.Shed)/max(attempted, 1))
	out.add("core.budget_mean", "replicas", histDeltaMean(reg0, reg1, metrics.SchedBudget))

	segs := tile(out, t, events)
	// The replay covers every report and decision of the traced stack,
	// warm-up included, so its windows start as full as the live ones.
	replay(out, w, t, st.recorder.Filter(trace.KindSchedule), segs.epoch)

	// gateway and transport
	out.add("gateway.prep_us.p50", "us", percentile(segs.prep, 0.50))
	out.add("gateway.delivery_us.p50", "us", percentile(segs.delivery, 0.50))
	out.add("gateway.delivery_us.p99", "us", percentile(segs.delivery, 0.99))
	out.add("transport.send_us.p50", "us", percentile(segs.send, 0.50))
	out.add("transport.td_us.p50", "us", percentile(segs.td, 0.50))
	out.add("transport.td_us.p99", "us", percentile(segs.td, 0.99))
	for _, ft := range []int{frameRequest, frameResponse, frameStateRequest, frameCancel} {
		out.add("transport.frames_per_call."+frameNames[ft], "frames", float64(frames1[ft]-frames0[ft])/max(attempted, 1))
	}
	out.add("transport.encodes_per_call", "encodes", counterDelta(reg0, reg1, metrics.TransportEncodes)/max(attempted, 1))
	out.add("transport.drops", "frames", counterDelta(reg0, reg1, metrics.TransportBackpressureDrops)+
		counterDelta(reg0, reg1, metrics.TransportRecvDrops)+counterDelta(reg0, reg1, metrics.TransportLinkDrops))

	// server and queue, over every reply the gateway received
	tq, tsv, qlen := t.serverSamples()
	out.printf("server samples=%d", len(tq))
	out.add("server.tq_us.p50", "us", percentile(tq, 0.50))
	out.add("server.tq_us.p99", "us", percentile(tq, 0.99))
	out.add("server.ts_us.p50", "us", percentile(tsv, 0.50))
	out.add("server.queue_len.p99", "requests", percentile(qlen, 0.99))
	reclaimed := counterDelta(reg0, reg1, metrics.ServerCancelPurged) + counterDelta(reg0, reg1, metrics.ServerCancelAborted)
	out.add("server.cancel_reclaim_frac", "ratio", reclaimed/max(counterDelta(reg0, reg1, metrics.GatewayCancels), 1))
	out.add("server.dup_frames", "frames", counterDelta(reg0, reg1, metrics.ServerDupFrames))

	// Tracing overhead: the traced stack against the untraced public API.
	refP50 := slicePercentile(ref, 0.50)
	trP50 := slicePercentile(res, 0.50)
	out.printf("untraced call_p50_us=%.2f cpu_us_per_call=%.2f; traced call_p50_us=%.2f cpu_us_per_call=%.2f",
		refP50, perCallCPU(ref), trP50, perCallCPU(res))
	out.add("trace.overhead.call_p50_frac", "ratio", trP50/max(refP50, 1e-9)-1)
	out.add("trace.overhead.cpu_frac", "ratio", perCallCPU(res)/max(perCallCPU(ref), 1e-9)-1)
	out.add("trace.tiled_calls", "calls", float64(segs.n))

	if spansDir != "" {
		path, err := writeSpans(spansDir, w, seed, t, segs)
		if err != nil {
			return nil, err
		}
		out.printf("spans written to %s", path)
	}
	return out, nil
}

// histDeltaMean is the mean of a histogram's observations between two
// snapshots, or 0 when it saw none.
func histDeltaMean(a, b metrics.Snapshot, name string) float64 {
	hb, ok := b.Histogram(name)
	if !ok {
		return 0
	}
	ha, _ := a.Histogram(name)
	n := hb.Count - ha.Count
	if n == 0 {
		return 0
	}
	return (hb.Sum - ha.Sum) / float64(n)
}

func (t *tracer) frameCounts() [numFrameTypes]uint64 {
	var out [numFrameTypes]uint64
	for i := range out {
		out[i] = t.frames[i].Load()
	}
	return out
}

// windowEvents keeps the schedule events of the window's calls.
func (t *tracer) windowEvents(events []trace.Event) []trace.Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	inWindow := make(map[wire.SeqNo]bool, len(t.calls))
	for _, c := range t.calls {
		if c.hasSeq {
			inWindow[c.seq] = true
		}
	}
	kept := events[:0:0]
	for _, e := range events {
		if inWindow[e.Seq] {
			kept = append(kept, e)
		}
	}
	return kept
}

// serverSamples returns tq, ts (µs) and queue length from every reply the
// gateway received during the window.
func (t *tracer) serverSamples() (tq, ts, qlen []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.stream {
		if !e.reply || e.at < t.windowStart {
			continue
		}
		tq = append(tq, float64(e.perf.QueueDelay)/1e3)
		ts = append(ts, float64(e.perf.ServiceTime)/1e3)
		qlen = append(qlen, float64(e.perf.QueueLength))
	}
	return tq, ts, qlen
}
