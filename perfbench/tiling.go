package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"aqua/internal/trace"
	"aqua/internal/wire"
)

// tiledCall is one successful traced call cut into the paper's segments:
// δ (selection), prep (t1 − t0 − δ), tq, ts, td (t4 − t1 − tq − ts) and
// delivery (first reply at the endpoint → Call returns). All times are ns
// since the tracer's base.
type tiledCall struct {
	id                 uint64
	seq                wire.SeqNo
	replica            wire.ReplicaID
	t0, delta, t1, t4  int64
	sendStart, sendEnd int64
	tq, ts             int64
	ret                int64
}

// segments holds the per-layer samples of the tiled calls (µs).
type segments struct {
	n                        int
	epoch                    int64 // the handler's trace epoch, ns since base
	prep, delivery, send, td []float64
	calls                    []tiledCall // the first spanCalls, for the span file
}

// spanCalls bounds how many calls' spans are kept for the span file.
const spanCalls = 2000

// tile checks, call by call, that δ + prep + tq + ts + td + delivery covers
// the call's t0 → return latency with no segment negative and the send
// starting inside td, and collects the segment samples.
//
// The schedule trace event carries t0 as an offset from the handler's
// private epoch. Every call entered Call (c0) no later than t0, so the
// largest c0 − offset over all calls is the epoch to within the gap
// between entering Call and reading t0, which is a few hundred ns at most;
// using it never makes prep smaller than it really was.
func tile(out *runOut, t *tracer, events []trace.Event) segments {
	at := make(map[wire.SeqNo]trace.Event, len(events))
	for _, e := range events {
		at[e.Seq] = e
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]uint64, 0, len(t.calls))
	for id := range t.calls {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	seg := segments{epoch: math.MinInt64}
	for _, id := range ids {
		c := t.calls[id]
		if e, ok := at[c.seq]; ok && c.hasSeq {
			seg.epoch = max(seg.epoch, c.c0-int64(e.At))
		}
	}
	var bad, missing int
	for _, id := range ids {
		c := t.calls[id]
		if c.err {
			continue
		}
		e, ok := at[c.seq]
		sr := t.seqs[c.seq]
		if !c.hasSeq || !ok || sr == nil || !sr.has4 || c.ret == 0 {
			missing++
			continue
		}
		tc := tiledCall{
			id: id, seq: c.seq, replica: sr.replica,
			t0: seg.epoch + int64(e.At), delta: int64(e.Duration), t1: sr.t1, t4: sr.t4,
			sendStart: sr.sendStart, sendEnd: sr.sendEnd.Load(),
			tq: int64(sr.perf.QueueDelay), ts: int64(sr.perf.ServiceTime), ret: c.ret,
		}
		prep := tc.t1 - tc.t0 - tc.delta
		td := tc.t4 - tc.t1 - tc.tq - tc.ts
		delivery := tc.ret - tc.t4
		parts := [...]int64{tc.delta, prep, tc.tq, tc.ts, td, delivery}
		var sum int64
		neg := false
		for _, p := range parts {
			sum += p
			neg = neg || p < 0
		}
		switch {
		case neg, sum != tc.ret-tc.t0, tc.sendStart < tc.t1, tc.sendStart > tc.t4:
			bad++
			if bad <= 3 {
				out.problems = append(out.problems, fmt.Sprintf(
					"call %d does not tile: δ=%d prep=%d tq=%d ts=%d td=%d delivery=%d (ns) sum=%d latency=%d send=[%d,%d] t1=%d t4=%d",
					id, tc.delta, prep, tc.tq, tc.ts, td, delivery, sum, tc.ret-tc.t0, tc.sendStart, tc.sendEnd, tc.t1, tc.t4))
			}
			continue
		}
		seg.n++
		seg.prep = append(seg.prep, float64(prep)/1e3)
		seg.td = append(seg.td, float64(td)/1e3)
		seg.delivery = append(seg.delivery, float64(delivery)/1e3)
		seg.send = append(seg.send, float64(tc.sendEnd-tc.sendStart)/1e3)
		if len(seg.calls) < spanCalls {
			seg.calls = append(seg.calls, tc)
		}
	}
	if bad > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d traced calls do not tile", bad))
	}
	out.printf("tiling checked=%d tiled=%d untileable=%d untraced=%d", seg.n+bad, seg.n, bad, missing)
	return seg
}

// span is one written span. Spans of one call share its id; parent names
// the enclosing span of the same call.
type span struct {
	Call    uint64 `json:"call"`
	Seq     uint64 `json:"seq"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
	Replica string `json:"replica,omitempty"`
}

// writeSpans writes the kept calls' spans as JSON Lines.
func writeSpans(dir string, w workload, seed int64, t *tracer, seg segments) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, c := range seg.calls {
		rep := string(c.replica)
		// The reply left the replica at rs; ts and tq run back from there.
		rs, ok := t.replySent[replyKey{c.seq, c.replica}]
		if !ok {
			rs = c.t4
		}
		spans := []span{
			{Name: "call", Start: c.t0, End: c.ret},
			{Name: "core.schedule", Start: c.t0, End: c.t0 + c.delta, Parent: "call"},
			{Name: "gateway.prep", Start: c.t0 + c.delta, End: c.t1, Parent: "call"},
			{Name: "transport.td", Start: c.t1, End: c.t4, Parent: "call"},
			{Name: "transport.send", Start: c.sendStart, End: c.sendEnd, Parent: "transport.td"},
			{Name: "server.queue", Start: rs - c.ts - c.tq, End: rs - c.ts, Parent: "transport.td", Replica: rep},
			{Name: "server.service", Start: rs - c.ts, End: rs, Parent: "transport.td", Replica: rep},
			{Name: "gateway.delivery", Start: c.t4, End: c.ret, Parent: "call"},
		}
		if h, ok := t.handlers[handlerKey{c.id, c.replica}]; ok {
			spans = append(spans, span{Name: "server.handler", Start: h[0], End: h[1], Parent: "server.service", Replica: rep})
		}
		for _, s := range spans {
			s.Call, s.Seq = c.id, uint64(c.seq)
			if err := enc.Encode(s); err != nil {
				t.mu.Unlock()
				f.Close()
				return "", fmt.Errorf("spans: %w", err)
			}
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
