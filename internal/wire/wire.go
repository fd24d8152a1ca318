// Package wire defines the messages exchanged between AQuA gateways and the
// domain types they carry: requests, responses with piggybacked performance
// reports, performance updates pushed to subscribers, and QoS specifications.
//
// In the original system these flow as Maestro messages over Ensemble; here
// they are Go structs carried in a hand-rolled binary codec with
// length-prefix framing (see internal/transport).
package wire

import (
	"fmt"
	"time"
)

// ReplicaID identifies one replica of a service. In the real path it doubles
// as a transport address; in simulation it is a synthetic name.
type ReplicaID string

// ClientID identifies a client gateway (for reply routing and performance
// subscriptions).
type ClientID string

// Service names a replicated service (the paper assumes one method per
// service; Method supports the paper's multi-interface extension).
type Service string

// QoS is a client's quality-of-service specification (§4): a response
// deadline and the minimum probability with which the deadline must be met.
type QoS struct {
	// Deadline is the time by which the client wants a response after it
	// transmits a request (the paper's t).
	Deadline time.Duration
	// MinProbability is the minimum probability with which the deadline
	// should be met (the paper's Pc(t)), in [0, 1].
	MinProbability float64
}

// Validate reports whether the specification is well-formed.
func (q QoS) Validate() error {
	if q.Deadline <= 0 {
		return fmt.Errorf("wire: qos deadline must be positive, got %v", q.Deadline)
	}
	if q.MinProbability < 0 || q.MinProbability > 1 {
		return fmt.Errorf("wire: qos probability %v out of range [0,1]", q.MinProbability)
	}
	return nil
}

func (q QoS) String() string {
	return fmt.Sprintf("qos(t=%v, Pc=%.2f)", q.Deadline, q.MinProbability)
}

// PerfReport is the performance data a replica piggybacks on each response
// and pushes to its subscribers (§5.4.1): the service duration ts, the
// queuing delay tq = t3 − t2, and the replica's current queue length.
type PerfReport struct {
	// ServiceTime is the time the server spent processing the request (ts).
	ServiceTime time.Duration
	// QueueDelay is the time the request spent in the FIFO queue (tq).
	QueueDelay time.Duration
	// QueueLength is the number of outstanding requests in the replica's
	// queue at publication time.
	QueueLength int
	// OrderedTail is the replica's ordered-log length: how many stamped
	// requests it has applied to its state machine. Zero for stateless
	// replicas. Gateways feed it to the repository so lifecycle can tell a
	// caught-up replica from one that is merely fast.
	OrderedTail uint64
	// CaughtUp reports whether the replica's state machine is current: it
	// either booted fresh into an empty group or has completed state
	// transfer since its last restart. Stateless replicas always report
	// true. While false, repositories running with the state-transfer gate
	// refuse to promote the replica Probation→Active no matter how many
	// timely samples it produces.
	CaughtUp bool
}

// SeqNo orders a client's requests; the (ClientID, SeqNo) pair identifies a
// request globally.
type SeqNo uint64

// Request is a client call forwarded by the timing fault handler to the
// selected replica subset.
type Request struct {
	Client  ClientID
	Seq     SeqNo
	Service Service
	Method  string
	Payload []byte
	// SentAt is the client-gateway transmission timestamp t1, echoed in the
	// response so the client can compute the round-trip gateway delay
	// without synchronized clocks (both endpoints of the interval are
	// measured on the client's machine).
	SentAt time.Time
	// Probe marks an active probe (the paper's §8 suggestion for refreshing
	// obsolete performance information): the server measures queueing and
	// load exactly as for a real request but does not invoke the
	// application handler, and the client records the performance data
	// without counting the exchange in its request statistics.
	Probe bool
	// Stamp is the per-client logical timestamp of an ordered-mode request
	// (1, 2, 3, … — contiguous per client gateway), or zero for unordered
	// traffic and probes. Replicas hold stamped requests in a stable-
	// delivery queue and execute them in stamp order (Schneider-style state
	// machine replication), so every replica that executes a client's
	// request has executed the same per-client prefix first.
	Stamp uint64
}

// Response carries a replica's reply plus its piggybacked performance data.
type Response struct {
	Client  ClientID
	Seq     SeqNo
	Replica ReplicaID
	Service Service
	Payload []byte
	// Err is a non-empty application error message, if the handler failed.
	Err string
	// Perf is the performance report for this request (§5.4.1).
	Perf PerfReport
	// SentAt echoes Request.SentAt.
	SentAt time.Time
	// Probe echoes Request.Probe.
	Probe bool
}

// Subscribe registers a client gateway for performance updates from the
// replicas of a service (§5.4: "client handlers ... multicast their
// subscription request to the server replicas").
type Subscribe struct {
	Client  ClientID
	Service Service
}

// Unsubscribe removes a performance-update subscription.
type Unsubscribe struct {
	Client  ClientID
	Service Service
}

// PerfUpdate is a performance report pushed from a replica to a subscriber
// outside of a response (the paper's server "publishes its performance
// update to its subscribers each time it processes a request").
type PerfUpdate struct {
	Replica ReplicaID
	Service Service
	Method  string
	Perf    PerfReport
}

// Cancel asks a replica to stop work on one request (first-response-wins
// cancellation): once the client gateway has delivered the earliest reply,
// the remaining selected replicas receive a Cancel so a copy still sitting
// in a FIFO queue is purged before it burns a full service time, and a copy
// already being served can be aborted early. Cancel is advisory — a replica
// that already replied simply ignores it, and the client-side machinery is
// correct whether or not any Cancel arrives.
type Cancel struct {
	Client  ClientID
	Seq     SeqNo
	Service Service
}

// Heartbeat is exchanged by the group-communication failure detector.
type Heartbeat struct {
	From    ReplicaID
	Service string // group name
	View    uint64
	At      time.Time
}

// WindowDigest is the mergeable summary of one (replica, method) performance
// history: the incremental bin-count histograms the repository's sliding
// windows already maintain, quantized at the enclosing DigestSync's
// resolution. A digest carries only *locally measured* evidence — borrowed
// (previously absorbed) digests are never re-exported, so gossip cannot echo
// or amplify stale data through the fleet.
type WindowDigest struct {
	Replica ReplicaID
	Method  string
	// ServiceBins/ServiceCounts and QueueBins/QueueCounts are the S and W
	// window histograms: distinct quantized bins in ascending order with
	// their positive sample counts. Total counts never exceed the source's
	// window size l.
	ServiceBins   []int64
	ServiceCounts []int64
	QueueBins     []int64
	QueueCounts   []int64
	// GatewayBins/GatewayCounts summarize the source's per-link T window.
	// T is a property of the *source's* link to the replica, so absorbers
	// use it only as a cold-start seed, displaced by the first local
	// measurement.
	GatewayBins   []int64
	GatewayCounts []int64
	// QueueLength is the replica-reported outstanding queue length as of the
	// source's last performance report.
	QueueLength int
	// AgeNanos is how stale the newest sample was at export time
	// (export instant − last update). Absorbers reconstruct an absolute
	// freshness as receipt time − age and keep only the freshest digest per
	// entry, so ordering needs no synchronized clocks.
	AgeNanos int64
}

// DigestSync is the gossip payload of the shared-intelligence fabric: a batch
// of window digests from one gateway's repository, pushed to peer gateways on
// a jittered cadence (and as the reply to a DigestRequest). Peers absorb the
// digests into a borrowed tier that seeds predictions for replicas they have
// no local history on; local measurements displace borrowed data sample by
// sample, so local evidence always wins.
type DigestSync struct {
	// Client identifies the source gateway (version/source metadata: the
	// absorber tracks the highest Seq per source and drops replays).
	Client  ClientID
	Service Service
	// Seq is the source's monotonically increasing gossip round.
	Seq uint64
	// ResolutionNanos is the quantization of every bin in Digests. A
	// support point is bin × resolution.
	ResolutionNanos int64
	// WindowSize is the source repository's sliding-window size l.
	WindowSize int
	Digests    []WindowDigest
}

// DigestRequest asks a peer gateway for its full digest set (peer snapshot
// bootstrap): a newly spawned gateway seeds its repository from one peer's
// DigestSync reply instead of paying a cold start per replica — the paper's
// §5.4 perf-report subscription seam extended gateway-to-gateway.
type DigestRequest struct {
	Client  ClientID
	Service Service
}

// LogEntry is one applied ordered-mode request: enough to replay it through
// a state machine (Apply) during state transfer, and to re-reply should the
// original frame arrive late. Entries are totally ordered by the log they
// sit in; Stamp orders them within one client's stream.
type LogEntry struct {
	Stamp   uint64
	Client  ClientID
	Seq     SeqNo
	Method  string
	Payload []byte
}

// ClientCursor is one row of a replica's stable-delivery table: the next
// stamp it expects from a client. Transferred in a StateChunk so a recovered
// replica resumes exactly where the snapshot + log suffix left off.
type ClientCursor struct {
	Client ClientID
	Next   uint64
}

// StateRequest asks for missing ordered-mode state. It is sent in two
// directions, distinguished by which fields are set:
//
//   - replica → replica (recovery): WantSnapshot is true (and Gap is empty);
//     the receiver, if Active and caught up, answers with StateChunk frames
//     carrying its latest snapshot, the log suffix after it, and its
//     stable-delivery cursors. SinceIndex lets a requester that already
//     holds a prefix ask for only the suffix.
//   - replica → gateway (gap refill): Gap names the client whose stamps
//     [FromStamp, ToStamp] never arrived (dropped frame, or the replica was
//     outside the multicast subset); the gateway re-sends the original
//     stored wire.Request frames through the normal path. If the range has
//     been pruned from the gateway's ordered log, the gateway answers
//     StateChunk{Pruned: true} and the replica falls back to peer recovery.
type StateRequest struct {
	// Replica is the requester (reply routing and diagnostics).
	Replica ReplicaID
	Service Service
	// WantSnapshot marks a recovery request: send snapshot + suffix.
	WantSnapshot bool
	// SinceIndex is the log length the requester already holds; the
	// responder may omit entries at or below it when no snapshot is needed.
	SinceIndex uint64
	// Gap, FromStamp, ToStamp describe a gap-refill request (see above).
	Gap       ClientID
	FromStamp uint64
	ToStamp   uint64
}

// StateChunk is one slice of a state-transfer reply. The responder streams
// its snapshot on the first chunk and the log suffix across however many
// chunks it takes; Done marks the last. A recovering replica applies
// Restore(Snapshot), replays Entries in order, installs Cursors, and only
// then reports CaughtUp in its performance reports — which is what lets
// lifecycle move it Probation→Active again.
type StateChunk struct {
	// Replica is the responder.
	Replica ReplicaID
	Service Service
	// Snapshot is the state-machine snapshot covering the log prefix up to
	// and including SnapshotIndex (only on the first chunk; nil afterwards,
	// and nil throughout when the transfer is pure log suffix).
	Snapshot      []byte
	SnapshotIndex uint64
	// Entries is the log suffix slice carried by this chunk.
	Entries []LogEntry
	// Cursors is the responder's stable-delivery table (final chunk only).
	Cursors []ClientCursor
	// Tail is the responder's total log length; after Done, the requester's
	// log length must equal it.
	Tail uint64
	// Done marks the final chunk of the transfer.
	Done bool
	// Pruned reports a refill miss: the requested stamp range is no longer
	// in the responder's ordered log, so the requester must recover from an
	// Active peer instead.
	Pruned bool
	// Err is a non-empty refusal (responder not caught up itself, unknown
	// service, …); the requester retries against another peer.
	Err string
}
