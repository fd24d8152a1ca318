package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"aqua/internal/stats"
	"aqua/internal/wire"
)

// recvOne waits for a message with a timeout.
func recvOne(t *testing.T, ep Endpoint) Message {
	t.Helper()
	select {
	case m, ok := <-ep.Recv():
		if !ok {
			t.Fatal("recv channel closed")
		}
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for message")
	}
	return Message{}
}

// networkUnderTest runs the same contract suite over both implementations.
func networkUnderTest(t *testing.T, name string, mk func(t *testing.T) (Network, func(i int) Addr, func())) {
	t.Run(name+"/round-trip", func(t *testing.T) {
		net, addr, done := mk(t)
		defer done()
		a, err := net.Listen(addr(1))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = a.Close() }()
		b, err := net.Listen(addr(2))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = b.Close() }()

		req := wire.Request{Client: "c", Seq: 7, Service: "svc", Payload: []byte("hi")}
		if err := a.Send(b.Addr(), req); err != nil {
			t.Fatal(err)
		}
		m := recvOne(t, b)
		got, ok := m.Payload.(wire.Request)
		if !ok {
			t.Fatalf("payload type %T", m.Payload)
		}
		if got.Seq != 7 || string(got.Payload) != "hi" {
			t.Errorf("payload = %+v", got)
		}
		if m.From != a.Addr() {
			t.Errorf("From = %v, want %v", m.From, a.Addr())
		}

		// Reply using the received From address.
		resp := wire.Response{Client: "c", Seq: 7, Replica: "r"}
		if err := b.Send(m.From, resp); err != nil {
			t.Fatal(err)
		}
		m2 := recvOne(t, a)
		if _, ok := m2.Payload.(wire.Response); !ok {
			t.Fatalf("reply type %T", m2.Payload)
		}
	})

	t.Run(name+"/all-wire-types", func(t *testing.T) {
		net, addr, done := mk(t)
		defer done()
		a, err := net.Listen(addr(1))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = a.Close() }()
		b, err := net.Listen(addr(2))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = b.Close() }()

		payloads := []any{
			wire.Request{Client: "c", Seq: 1},
			wire.Response{Client: "c", Seq: 1, Perf: wire.PerfReport{ServiceTime: time.Millisecond}},
			wire.Subscribe{Client: "c", Service: "s"},
			wire.Unsubscribe{Client: "c", Service: "s"},
			wire.PerfUpdate{Replica: "r", Service: "s"},
			wire.Heartbeat{From: "r", Service: "s", View: 3},
		}
		for _, p := range payloads {
			if err := a.Send(b.Addr(), p); err != nil {
				t.Fatalf("send %T: %v", p, err)
			}
			m := recvOne(t, b)
			if fmt.Sprintf("%T", m.Payload) != fmt.Sprintf("%T", p) {
				t.Errorf("got %T, want %T", m.Payload, p)
			}
		}
	})

	t.Run(name+"/send-after-close", func(t *testing.T) {
		net, addr, done := mk(t)
		defer done()
		a, err := net.Listen(addr(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(addr(2), wire.Request{}); err == nil {
			t.Error("want error sending on closed endpoint")
		}
		if err := a.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
	})

	t.Run(name+"/unknown-destination-drops", func(t *testing.T) {
		net, addr, done := mk(t)
		defer done()
		a, err := net.Listen(addr(1))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = a.Close() }()
		// A send to nowhere either errors (TCP) or silently drops (inmem);
		// it must not panic or block.
		_ = a.Send(addr(9), wire.Request{})
	})

	t.Run(name+"/multicast", func(t *testing.T) {
		net, addr, done := mk(t)
		defer done()
		a, err := net.Listen(addr(1))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = a.Close() }()
		var targets []Addr
		var eps []Endpoint
		for i := 2; i <= 4; i++ {
			ep, err := net.Listen(addr(i))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = ep.Close() }()
			targets = append(targets, ep.Addr())
			eps = append(eps, ep)
		}
		if err := Multicast(a, targets, wire.Request{Seq: 9}); err != nil {
			t.Fatal(err)
		}
		for _, ep := range eps {
			m := recvOne(t, ep)
			if r, ok := m.Payload.(wire.Request); !ok || r.Seq != 9 {
				t.Errorf("multicast payload = %+v", m.Payload)
			}
		}
	})
}

func TestNetworks(t *testing.T) {
	networkUnderTest(t, "inmem", func(t *testing.T) (Network, func(int) Addr, func()) {
		n := NewInMem()
		return n, func(i int) Addr { return Addr(fmt.Sprintf("ep-%d", i)) }, func() { _ = n.Close() }
	})
	networkUnderTest(t, "tcp", func(t *testing.T) (Network, func(int) Addr, func()) {
		return NewTCP(), func(i int) Addr { return "127.0.0.1:0" }, func() {}
	})
}

func TestInMemDuplicateAddress(t *testing.T) {
	n := NewInMem()
	defer func() { _ = n.Close() }()
	if _, err := n.Listen("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("x"); err == nil {
		t.Error("want error for duplicate address")
	}
}

func TestInMemLatencyInjection(t *testing.T) {
	n := NewInMem(WithLinkPolicy(LinkPolicy{Delay: stats.Constant{Delay: 30 * time.Millisecond}}, 1))
	defer func() { _ = n.Close() }()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	start := time.Now()
	if err := a.Send(b.Addr(), wire.Request{}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("message arrived after %v, want >= ~30ms", elapsed)
	}
}

func TestInMemLossInjection(t *testing.T) {
	n := NewInMem(WithLinkPolicy(LinkPolicy{LossProb: 1}, 1))
	defer func() { _ = n.Close() }()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	if err := a.Send(b.Addr(), wire.Request{}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Recv():
		t.Fatalf("message %v arrived despite 100%% loss", m)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestInMemListenAfterNetworkClose(t *testing.T) {
	n := NewInMem()
	_ = n.Close()
	if _, err := n.Listen("x"); err == nil {
		t.Error("want error listening on closed network")
	}
}

func TestTCPSendToUnreachable(t *testing.T) {
	netw := NewTCP()
	a, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	// Sends are asynchronous: a dead destination loses the message like a
	// datagram, and the caller must return immediately, not pay the dial.
	start := time.Now()
	for i := 0; i < 10; i++ {
		_ = a.Send("127.0.0.1:1", wire.Request{Seq: wire.SeqNo(i)})
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("10 sends to unreachable peer took %v, want immediate return", elapsed)
	}
	// The failed destination must not poison traffic to a live peer.
	b, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	if err := a.Send(b.Addr(), wire.Request{Seq: 99}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b)
	if r, ok := m.Payload.(wire.Request); !ok || r.Seq != 99 {
		t.Errorf("live peer got %+v", m.Payload)
	}
}

func TestTCPFailedFirstDialDoesNotPoisonLaterSends(t *testing.T) {
	// Reserve a port, then release it so the first dial fails cleanly.
	tmp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := Addr(tmp.Addr().String())
	_ = tmp.Close()

	netw := NewTCP()
	a, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	// First sends fail to dial (connection refused) and enter backoff.
	for i := 0; i < 3; i++ {
		_ = a.Send(addr, wire.Request{Seq: 1})
		time.Sleep(10 * time.Millisecond)
	}

	// The peer comes up on that same port: sends must recover once the
	// (capped) backoff expires — no stale nil-connection state.
	b, err := netw.Listen(addr)
	if err != nil {
		t.Skipf("port %s re-taken by another process: %v", addr, err)
	}
	defer func() { _ = b.Close() }()
	delivered := make(chan Message, 16)
	go func() {
		for m := range b.Recv() {
			delivered <- m
		}
	}()
	deadline := time.After(10 * time.Second)
	for attempt := 0; ; attempt++ {
		_ = a.Send(addr, wire.Request{Seq: wire.SeqNo(attempt)})
		select {
		case <-delivered:
			return // recovered
		case <-time.After(100 * time.Millisecond):
		case <-deadline:
			t.Fatal("sends never recovered after the peer came up")
		}
	}
}

// TestTCPSlowPeerDoesNotBlockSenders is the regression for the old
// synchronous Send, which held the per-destination lock across dial+write:
// one peer that stopped reading blocked every Send to that address, and a
// caller multicasting to it stalled past its own deadline.
func TestTCPSlowPeerDoesNotBlockSenders(t *testing.T) {
	netw := NewTCP()
	a, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()

	// A blackhole peer: accepts connections and never reads, so the OS
	// socket buffers fill and writes wedge until the write deadline.
	blackhole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = blackhole.Close() }()
	stopAccept := make(chan struct{})
	defer close(stopAccept)
	go func() {
		var held []net.Conn
		defer func() {
			for _, c := range held {
				_ = c.Close()
			}
		}()
		for {
			c, err := blackhole.Accept()
			if err != nil {
				return
			}
			held = append(held, c) // never read
			select {
			case <-stopAccept:
				return
			default:
			}
		}
	}()

	b, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()

	// Saturate the blackhole link with large frames; every Send must
	// return immediately even once the writer goroutine is wedged.
	big := wire.Request{Payload: make([]byte, 256<<10)}
	start := time.Now()
	for i := 0; i < 10; i++ {
		_ = a.Send(Addr(blackhole.Addr().String()), big)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("sends to wedged peer took %v, want immediate return", elapsed)
	}

	// Traffic to a healthy destination flows concurrently.
	if err := a.Send(b.Addr(), wire.Request{Seq: 7}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b)
	if r, ok := m.Payload.(wire.Request); !ok || r.Seq != 7 {
		t.Errorf("healthy peer got %+v", m.Payload)
	}
}

func TestTCPSendQueueBounded(t *testing.T) {
	netw := NewTCP()
	a, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()

	// Blackhole peer again: the writer goroutine wedges on a full socket
	// buffer, the queue fills, and overflow must surface as backpressure
	// rather than unbounded buffering or a blocked caller.
	blackhole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = blackhole.Close() }()
	go func() {
		for {
			c, err := blackhole.Accept()
			if err != nil {
				return
			}
			defer func() { _ = c.Close() }()
		}
	}()

	// Concurrent fillers so enqueueing outpaces the writer even when the
	// race detector slows per-send encoding: the queue must overflow
	// within one of the writer's blocked-write windows.
	big := wire.Request{Payload: make([]byte, 64 << 10)}
	to := Addr(blackhole.Addr().String())
	deadline := time.Now().Add(20 * time.Second)
	var mu sync.Mutex
	sawBackpressure := false
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				done := sawBackpressure
				mu.Unlock()
				if done {
					return
				}
				if err := a.Send(to, big); errors.Is(err, ErrBackpressure) {
					mu.Lock()
					sawBackpressure = true
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if !sawBackpressure {
		t.Error("queue never reported backpressure against a wedged peer")
	}
}

func TestTCPConcurrentSendCloseNoDeadlock(t *testing.T) {
	netw := NewTCP()
	a, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { // consume so b's buffer never backs sends up
		for range b.Recv() {
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := a.Send(b.Addr(), wire.Request{Seq: wire.SeqNo(i)}); err != nil {
					return // endpoint closed under us: expected
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond) // let sends overlap the close
	closed := make(chan struct{})
	go func() {
		_ = a.Close()
		_ = b.Close()
		close(closed)
	}()
	wg.Wait()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked against concurrent Send")
	}
	if err := a.Send(b.Addr(), wire.Request{}); err == nil {
		t.Error("Send after Close succeeded")
	}
}

func TestTCPRecvDrainsBufferedFramesAfterClose(t *testing.T) {
	netw := NewTCP()
	a, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const n = 5
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), wire.Request{Seq: wire.SeqNo(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for all frames to land in b's receive buffer before closing.
	ep := b.(*tcpEndpoint)
	deadline := time.Now().Add(5 * time.Second)
	for len(ep.recv) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d frames buffered", len(ep.recv), n)
		}
		time.Sleep(time.Millisecond)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Frames already read off the wire must survive Close: the channel is
	// closed, not discarded, so a consumer drains the full buffer.
	got := 0
	for range b.Recv() {
		got++
	}
	if got != n {
		t.Errorf("drained %d frames after Close, want %d", got, n)
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	net := NewTCP()
	a, err := net.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b1, err := net.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()
	if err := a.Send(addr, wire.Request{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b1)
	_ = b1.Close()

	// Restart the peer on the same port.
	b2, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b2.Close() }()
	// The cached connection is dead. A write into it can succeed silently
	// until the RST arrives (datagram semantics: that message is lost, as
	// the layers above tolerate), but the endpoint must recover: within a
	// few sends the write error triggers a redial and delivery resumes.
	delivered := make(chan Message, 16)
	go func() {
		for m := range b2.Recv() {
			delivered <- m
		}
	}()
	deadline := time.After(5 * time.Second)
	for attempt := 0; ; attempt++ {
		_ = a.Send(addr, wire.Request{Seq: wire.SeqNo(attempt)})
		select {
		case <-delivered:
			return // recovered
		case <-time.After(100 * time.Millisecond):
		case <-deadline:
			t.Fatal("endpoint never recovered after peer restart")
		}
	}
}

func TestCodecRejectsOversizedFrame(t *testing.T) {
	big := wire.Request{Payload: make([]byte, maxFrameSize+1)}
	if _, err := encodeFrame("a", big); err == nil {
		t.Error("want error for oversized frame")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	frame, err := encodeFrame("from-addr", wire.PerfUpdate{
		Replica: "r1",
		Perf:    wire.PerfReport{ServiceTime: 5 * time.Millisecond, QueueLength: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	env, err := decodeFrame(bytesReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if env.From != "from-addr" {
		t.Errorf("From = %v", env.From)
	}
	u, ok := env.Payload.(wire.PerfUpdate)
	if !ok {
		t.Fatalf("payload %T", env.Payload)
	}
	if u.Perf.QueueLength != 3 {
		t.Errorf("QueueLength = %d", u.Perf.QueueLength)
	}
}

// bytesReader adapts a frame to an io.Reader without importing bytes at the
// top (keeps the test file import list minimal).
func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

func TestDecodeTruncatedFrame(t *testing.T) {
	frame, err := encodeFrame("a", wire.Request{Payload: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 2, 4, len(frame) / 2, len(frame) - 1} {
		if _, err := decodeFrame(bytes.NewReader(frame[:cut])); err == nil {
			t.Errorf("decoding %d/%d bytes succeeded", cut, len(frame))
		}
	}
}

func TestDecodeGarbageBody(t *testing.T) {
	frame, err := encodeFrame("a", wire.Request{Payload: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := make([]byte, len(frame))
	copy(corrupt, frame)
	for i := 4; i < len(corrupt); i++ {
		corrupt[i] ^= 0xFF
	}
	if _, err := decodeFrame(bytes.NewReader(corrupt)); err == nil {
		t.Error("decoding corrupted body succeeded")
	}
}

func TestDecodeHugeLengthHeaderRejected(t *testing.T) {
	// A hostile 4GB length prefix must be rejected before allocation.
	var hdr [8]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := decodeFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Error("oversized length header accepted")
	}
}

func TestMalformedFrameDoesNotKillTCPEndpoint(t *testing.T) {
	// A peer sending garbage must only cost its own connection; the
	// endpoint keeps serving others.
	netw := NewTCP()
	ep, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ep.Close() }()

	// Raw garbage connection.
	raw, err := net.Dial("tcp", string(ep.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	_ = raw.Close()

	// A well-formed peer still gets through.
	good, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = good.Close() }()
	if err := good.Send(ep.Addr(), wire.Request{Seq: 5}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, ep)
	if r, ok := m.Payload.(wire.Request); !ok || r.Seq != 5 {
		t.Errorf("got %+v after garbage peer", m.Payload)
	}
}
