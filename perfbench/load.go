package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"aqua"
)

// callFunc issues one call; both the public aqua.Client and the traced
// gateway handler fit it.
type callFunc func(ctx context.Context, method string, payload []byte) ([]byte, error)

// failure classes, by the error a Call returned.
const (
	classOK = iota
	classDispatchRace
	classShed
	classTimeout
	classReplica
	classOther
	numClasses
)

var classNames = [numClasses]string{"ok", "dispatch_race", "shed", "no_response", "replica_error", "other"}

// classify buckets a Call error. Nothing is retried: every class counts
// against the attempted calls.
func classify(err error) int {
	switch {
	case err == nil:
		return classOK
	case strings.Contains(err.Error(), "dispatched unknown request"):
		return classDispatchRace
	case errors.Is(err, aqua.ErrOverloaded):
		return classShed
	case strings.Contains(err.Error(), "no response from"):
		return classTimeout
	case strings.Contains(err.Error(), "gateway: replica "):
		return classReplica
	default:
		return classOther
	}
}

// outcome is one call as the caller saw it.
type outcome struct {
	class      int
	count      uint64 // ordered: the counter value the reply carried
	checkErr   error  // the reply failed its output check
	start, end time.Time
}

// tally is the output-check bookkeeping of a set of calls.
type tally struct {
	counts []uint64 // ordered: the count every successful call saw
	sent   int      // calls whose request was multicast (and stamped)
	errs   []string // one per reply that failed its check
}

func (t *tally) note(o outcome) {
	if o.class == classOK && o.count > 0 {
		t.counts = append(t.counts, o.count)
	}
	// A dispatch race, a timeout and a replica error all happen after the
	// multicast; a shed or any other error happens before it.
	if o.class == classOK || o.class == classDispatchRace || o.class == classTimeout || o.class == classReplica {
		t.sent++
	}
	if o.checkErr != nil {
		t.errs = append(t.errs, o.checkErr.Error())
	}
}

func (t *tally) merge(o *tally) {
	t.counts = append(t.counts, o.counts...)
	t.sent += o.sent
	t.errs = append(t.errs, o.errs...)
}

// slice accumulates the calls started (closed loop) or due (open loop)
// within one sub-window of a run.
type slice struct {
	attempted int
	ok        int
	timely    int
	classes   [numClasses]int
	lat       []uint32 // latency of every call, ns
}

func (s *slice) add(o *slice) {
	s.attempted += o.attempted
	s.ok += o.ok
	s.timely += o.timely
	for i := range s.classes {
		s.classes[i] += o.classes[i]
	}
	s.lat = append(s.lat, o.lat...)
}

// failedLatency is the latency sample a failed call contributes: a failed
// call misses every latency limit.
const failedLatency = ^uint32(0)

func (s *slice) record(class int, lat, deadline time.Duration) {
	s.attempted++
	s.classes[class]++
	if class != classOK {
		s.lat = append(s.lat, failedLatency)
		return
	}
	s.ok++
	if lat <= deadline {
		s.timely++
	}
	s.lat = append(s.lat, uint32(min(lat, time.Duration(failedLatency))))
}

// procSample is the process-wide resource reading at one instant.
type procSample struct {
	at     time.Time
	cpu    time.Duration // user + system
	allocs uint64        // heap objects allocated since start
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return procSample{
		at:     time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(),
	}
}

// sampleBoundaries fills procs[1:] with readings taken at each slice
// boundary after start.
func sampleBoundaries(start time.Time, sliceLen time.Duration, procs []procSample) {
	for i := 1; i < len(procs); i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * sliceLen)))
		procs[i] = readProc()
	}
}

// heapWatch tracks the peak live heap, as marked by the collector, while a
// window runs.
type heapWatch struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			h.note(liveHeap())
			select {
			case <-t.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

func (h *heapWatch) note(v uint64) {
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// finish stops the sampler and folds in the live heap after a full
// collection at the window's end, so the figure does not depend on where
// the last automatic cycle happened to fall.
func (h *heapWatch) finish() uint64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	h.note(liveHeap())
	return h.peak.Load()
}

// loadResult is what one measured window produced.
type loadResult struct {
	tally
	slices []slice
	// procs holds the process readings at the slice boundaries, and
	// sliceCalls the calls started (closed) or due (open) in each slice.
	procs      []procSample
	sliceCalls []int
	total      slice
	elapsed    time.Duration
	lateness   []time.Duration // open loop: launch time − due time
	peakHeap   uint64
}

// finish sums the slices and stops the heap watch.
func (r *loadResult) finish(heap *heapWatch) {
	r.sliceCalls = make([]int, len(r.slices))
	for i := range r.slices {
		r.total.add(&r.slices[i])
		r.sliceCalls[i] = r.slices[i].attempted
	}
	r.elapsed = r.procs[len(r.procs)-1].at.Sub(r.procs[0].at)
	r.peakHeap = heap.finish()
}

// runner runs calls against one callFunc and checks every reply.
type runner struct {
	w     workload
	call  callFunc
	rate  float64 // open loop: total offered calls per second
	seed  int64
	ids   atomic.Uint64
	trace *tracer // nil outside the traced window
}

// one issues call id and checks its reply.
func (d *runner) one(ctx context.Context, id uint64, noise uint64) outcome {
	token := makeToken(id, noise)
	o := outcome{start: time.Now()}
	if d.trace != nil {
		d.trace.begin(id, o.start)
	}
	reply, err := d.call(ctx, "op", token)
	o.end = time.Now()
	if d.trace != nil {
		d.trace.end(id, o.end, err)
	}
	o.class = classify(err)
	if o.class == classOK {
		o.count, o.checkErr = d.w.checkReply(token, reply)
	}
	return o
}

// spread sends each call to one of several independent pairs, chosen by a
// seeded hash of its call id, so each pair sees its own Poisson share of
// the generator's stream.
func spread(calls []callFunc, seed int64) callFunc {
	if len(calls) == 1 {
		return calls[0]
	}
	return func(ctx context.Context, method string, payload []byte) ([]byte, error) {
		id, _ := tokenID(payload)
		h := (id ^ uint64(seed)) * 0x9e3779b97f4a7c15
		h ^= h >> 31
		return calls[h%uint64(len(calls))](ctx, method, payload)
	}
}

// run measures one window of the given length, cut into nSlices slices.
func (d *runner) run(ctx context.Context, window time.Duration, nSlices int) loadResult {
	if d.w.closed() {
		return d.runClosed(ctx, window, nSlices)
	}
	return d.runOpen(ctx, window, nSlices)
}

// runClosed runs one caller per CPU, each issuing its next call when the
// last returns.
func (d *runner) runClosed(ctx context.Context, window time.Duration, nSlices int) loadResult {
	callers := numCallers()
	sliceLen := window / time.Duration(nSlices)
	type callerOut struct {
		tally
		slices []slice
	}
	outs := make([]callerOut, callers)
	res := loadResult{procs: make([]procSample, nSlices+1), slices: make([]slice, nSlices)}
	heap := watchHeap()
	start := time.Now()
	res.procs[0] = readProc()
	stopAt := start.Add(window)

	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(out *callerOut) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(d.seed*1000003 + int64(c)))
			out.slices = make([]slice, nSlices)
			for {
				o := d.one(ctx, d.ids.Add(1), rng.Uint64())
				// Every reply is checked, the one that overran the window
				// included.
				out.note(o)
				if !o.start.Before(stopAt) {
					break // started after the window closed: not measured
				}
				si := min(int(o.start.Sub(start)/sliceLen), nSlices-1)
				out.slices[si].record(o.class, o.end.Sub(o.start), d.w.qos.Deadline)
			}
		}(&outs[c])
	}
	sampleBoundaries(start, sliceLen, res.procs)
	wg.Wait()
	// The last slice's calls may finish after its boundary; charge their
	// tail to it.
	res.procs[nSlices] = readProc()
	for i := range outs {
		res.merge(&outs[i].tally)
		for j := range outs[i].slices {
			res.slices[j].add(&outs[i].slices[j])
		}
	}
	res.finish(heap)
	return res
}

// runOpen offers calls on a seeded Poisson schedule from one generator
// goroutine. Each call's latency runs from its due time, so a stall that
// delays later launches is charged to them.
func (d *runner) runOpen(ctx context.Context, window time.Duration, nSlices int) loadResult {
	rng := rand.New(rand.NewSource(d.seed))
	// A Poisson process conditioned on its count: exactly rate × window
	// arrivals at sorted uniform offsets. Each seed draws its own schedule,
	// but no run's rate depends on how many arrivals its seed happened to
	// draw.
	offsets := make([]time.Duration, int(math.Round(d.rate*window.Seconds())))
	for i := range offsets {
		offsets[i] = time.Duration(rng.Int63n(int64(window)))
	}
	slices.Sort(offsets)
	sliceLen := window / time.Duration(nSlices)

	var (
		mu  sync.Mutex // guards res.tally and res.slices
		wg  sync.WaitGroup
		res = loadResult{procs: make([]procSample, nSlices+1), slices: make([]slice, nSlices)}
	)
	heap := watchHeap()
	start := time.Now()
	res.procs[0] = readProc()
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		sampleBoundaries(start, sliceLen, res.procs)
	}()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, off := range offsets {
		si := min(int(off/sliceLen), nSlices-1)
		due := start.Add(off)
		sleepUntil(due)
		res.lateness = append(res.lateness, time.Since(due))
		id, noise := d.ids.Add(1), rng.Uint64()
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := d.one(ctx, id, noise)
			mu.Lock()
			defer mu.Unlock()
			res.note(o)
			res.slices[si].record(o.class, o.end.Sub(due), d.w.qos.Deadline)
		}()
	}
	wg.Wait()
	<-sampled
	res.procs[nSlices] = readProc()
	res.finish(heap)
	return res
}

// sleepUntil blocks the calling goroutine's thread in nanosleep until t.
// The runtime's own timers wake an idle process on a millisecond poll, so a
// generator that used time.Sleep would mostly measure that granularity; the
// kernel's high-resolution sleep is accurate to tens of microseconds. The
// caller locks its OS thread so the blocking sleep holds no P.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d) // nanosleep unavailable: fall back to the runtime timer
			return
		}
	}
}

// rank is the nearest-rank index of the p-th percentile (0..1) of n samples.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)
}

// percentileNs returns the p-th percentile of ns samples; it sorts xs in
// place.
func percentileNs(xs []uint32, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return float64(xs[rank(len(xs), p)])
}

// percentile returns the p-th percentile of a sample; it sorts xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[rank(len(xs), p)]
}

// median of a sample; it sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
