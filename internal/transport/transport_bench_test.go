package transport

import (
	"testing"

	"aqua/internal/wire"
)

func BenchmarkCodecEncode(b *testing.B) {
	req := wire.Request{Client: "c", Seq: 1, Service: "svc", Payload: make([]byte, 128)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := encodeFrame("from", req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	req := wire.Request{Client: "c", Seq: 1, Service: "svc", Payload: make([]byte, 128)}
	frame, err := encodeFrame("from", req)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeFrame(bytesReader(frame)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInMemRoundTrip measures the in-memory transport's send+receive
// path, which every simulated-cluster test rides on.
func BenchmarkInMemRoundTrip(b *testing.B) {
	n := NewInMem()
	defer func() { _ = n.Close() }()
	a, err := n.Listen("a")
	if err != nil {
		b.Fatal(err)
	}
	c, err := n.Listen("c")
	if err != nil {
		b.Fatal(err)
	}
	req := wire.Request{Client: "x", Seq: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(c.Addr(), req); err != nil {
			b.Fatal(err)
		}
		<-c.Recv()
	}
}

// BenchmarkTCPRoundTrip measures a full loopback socket round trip through
// the binary codec — the E0 floor's transport component.
func BenchmarkTCPRoundTrip(b *testing.B) {
	net := NewTCP()
	a, err := net.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	c, err := net.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	req := wire.Request{Client: "x", Seq: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(c.Addr(), req); err != nil {
			b.Fatal(err)
		}
		<-c.Recv()
	}
}
