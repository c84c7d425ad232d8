package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/giop"
	"repro/internal/telemetry"
)

// epoch is taken at package initialisation, microseconds before main():
// set-up time and every stamp are measured from it.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// sliceNs is the nominal length of one slice of the measured window. A
// window alternates main-leg slices with RTZen slices
// (workload.baselineEvery), so machine drift inside a repetition lands on
// both legs alike. Half a second lets a 4 s window alternate four times.
const sliceNs = int64(100 * time.Millisecond)

// warmSliceNs is the main leg's turn during warm-up; RTZen's is a quarter.
const warmSliceNs = int64(100 * time.Millisecond)

// checkEvery is how often an operation inside the window gets the full reply
// check (every operation gets it during warm-up).
const checkEvery = 64

// hangGrace is how long after the window's end a repetition waits for its
// callers before it reports their in-flight operations as failed.
const hangGrace = 10 * time.Second

// sampleCap is the size of each leg's latency buffer, shared between its
// callers. It is fixed and written once before the window, so the buffer's
// share of the process's peak memory is the same whatever the program's
// speed; a leg expected to complete more operations than fit records every
// step-th one (systematic sampling, step chosen from the warm-up's rate).
// At this size a 100 ms slice keeps two thousand samples or more at the
// default lengths, so a slice the host slowed to half speed still supports
// its own p99.
const sampleCap = 1 << 18

// setupRuns is how many times a repetition sets the workload up: once cold
// before the window (process start to first correct reply) and the rest
// after it. The repetition reports the median.
const setupRuns = 50

// repConfig is what the parent tells a child.
type repConfig struct {
	Workload string
	Seed     int64
	WarmupS  float64
	WindowS  float64
	Trace    bool
}

// quietWithin and quietAnchorQ say which slices of a leg are quiet: those
// whose raw median lies within quietWithin of the anchor, the slice median at
// the quietAnchorQ quantile of the leg's slices. On the small VM this
// benchmark was written on a neighbour on the same core slows everything by a
// tenth to a half for hundredths of a second to minutes at a time, at bad
// times in nine slices out of ten, while undisturbed slices repeat to within
// a percent or two. Interference only adds time, so a repetition takes its
// statistics over the quiet slices: the program's own cost, as far as the host
// lets it be seen. Anchoring at a quantile and not at the fastest slice keeps
// at least a tenth of the slices quiet, so no repetition rests on one lucky
// slice. (Slow-downs that outlast a repetition are calibrate.go's job.)
//
// The price: a slow-down the program causes in only some slices is taken for
// interference. So that it is not lost, the plain statistics of every sample
// of the window (legSummary.Raw) and the share of quiet slices are in the
// result and among the per-layer metrics (bench.raw_*, bench.quiet_share).
const (
	quietWithin  = 0.03
	quietAnchorQ = 0.10
)

// legSummary is one leg's latency and throughput over a repetition's
// window. P50, Tail and OpsPerS are the medians over the leg's quiet slices
// of each slice's plain median, tail percentile and completion rate, the
// slice's values first brought to reference speed by the calibrations around
// it (calibrate.go). Raw and RawOpsPerS are the plain statistics of every
// sample of the window as the clock gave them, interference included; the
// Slice series are each slice's own raw values in window order.
type legSummary struct {
	P50        num     `json:"p50_ns"`
	Tail       num     `json:"tail_ns"`
	TailQ      float64 `json:"tail_q"`
	Beyond     int     `json:"beyond"`            // fewest samples beyond the tail percentile in a slice
	Samples    int     `json:"samples_per_slice"` // fewest samples in a slice
	OpsPerS    num     `json:"ops_per_s"`
	Speed      num     `json:"speed_factor"` // median over the quiet slices of reference time / calibration time
	Slices     int     `json:"slices"`
	Quiet      int     `json:"quiet_slices"`
	Step       int     `json:"sample_step"` // every step-th operation (or batch) was sampled
	Raw        summary `json:"raw_ns"`
	RawOpsPerS num     `json:"raw_ops_per_s"`
	SliceP50   []num   `json:"slice_p50_ns"`
	SliceTail  []num   `json:"slice_tail_ns"` // at TailQ
	SliceOps   []num   `json:"slice_ops_per_s"`
	SliceCal   []num   `json:"slice_calibration_ns"`
}

// repResult is one repetition of one workload, as a child reports it.
// Durations are nanoseconds unless the name says otherwise.
type repResult struct {
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
	Gomaxprocs int    `json:"gomaxprocs"`
	// SetupS is the median of SetupRuns ([0] is the cold one, from process
	// start) at reference speed: times SetupSpeed, from the calibrations taken
	// between the later set-ups.
	SetupS     num       `json:"setup_s"`
	SetupSpeed num       `json:"setup_speed_factor"`
	SetupRuns  []float64 `json:"setup_runs_s"`
	Attempted  int64     `json:"attempted"`
	Failed     int64     `json:"failed"`
	FirstError string    `json:"first_error,omitempty"`
	// Problems lists exact-count checks that did not hold (verify).
	Problems []string `json:"problems,omitempty"`
	Hung     bool     `json:"hung,omitempty"`

	Main        legSummary `json:"main"`
	Baseline    legSummary `json:"baseline"`
	BaselineBad int64      `json:"baseline_failed"`
	AllocsPerOp num        `json:"allocs_per_op"` // NaN when nothing completed
	MemPeakMB   num        `json:"mem_peak_mb"`
	FirstFailS  float64    `json:"first_failure_s"`
	// CoalesceP50 is the median frames per vectored write, when the
	// repetition coalesced at all.
	CoalesceP50 float64 `json:"coalesce_batch_frames_p50,omitempty"`
	// Layer holds the traced repetition's spans and counts by metric name.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// counts are the process-wide counters the benchmark reads from the layers'
// exported accessors, taken at main-slice boundaries when no operation is in
// flight.
type counts struct {
	scopeEnters, payloadCopies, collocated int64
	muxReorder, muxStale, sheds            int64
	ringEvents                             int64
	frames                                 giop.FrameStats
	mallocs                                int64
}

var (
	cScopeEnter  = telemetry.Default.Counter("scope_enter_total")
	cPayloadCopy = telemetry.Default.Counter("payload_copy_total")
	cCollocated  = telemetry.Default.Counter("collocated_invoke_total")
	cMuxReorder  = telemetry.Default.Counter("mux_reorder_total")
	cMuxStale    = telemetry.Default.Counter("mux_stale_drop_total")
	cSheds       = telemetry.Default.Counter("admission_shed_total")
)

func readCounts() counts {
	c := counts{
		scopeEnters:   cScopeEnter.Value(),
		payloadCopies: cPayloadCopy.Value(),
		collocated:    cCollocated.Value(),
		muxReorder:    cMuxReorder.Value(),
		muxStale:      cMuxStale.Value(),
		sheds:         cSheds.Value(),
		ringEvents:    int64(telemetry.Default.Ring().Len()),
		frames:        giop.ReadFrameStats(),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // last, so the reads above are not in the delta
	c.mallocs = int64(ms.Mallocs)
	return c
}

// add accumulates to-from into c.
func (c *counts) add(from, to counts) {
	c.scopeEnters += to.scopeEnters - from.scopeEnters
	c.payloadCopies += to.payloadCopies - from.payloadCopies
	c.collocated += to.collocated - from.collocated
	c.muxReorder += to.muxReorder - from.muxReorder
	c.muxStale += to.muxStale - from.muxStale
	c.sheds += to.sheds - from.sheds
	c.ringEvents += to.ringEvents - from.ringEvents
	c.frames.Acquired += to.frames.Acquired - from.frames.Acquired
	c.frames.Recycled += to.frames.Recycled - from.frames.Recycled
	c.frames.Detached += to.frames.Detached - from.frames.Detached
	c.mallocs += to.mallocs - from.mallocs
}

// callerState is one closed-loop caller's progress. started/completed/failed
// are published atomically so the hang watchdog can account for a caller
// that never returns; the sample buffer is the caller's own.
type callerState struct {
	started, completed, failed atomic.Int64
	samples                    []uint32 // ns per sample (per batch when batched)
	n                          int
	step, skip                 int // record every step-th sample
	firstErr                   error
	firstFailNs                int64
	_                          [64]byte // keep neighbours off this cache line
}

// fail counts a failed operation; at is when the operation started.
func (c *callerState) fail(err error, at int64) {
	if c.failed.Add(1) == 1 {
		c.firstErr, c.firstFailNs = err, at
	}
}

func (c *callerState) record(d int64) {
	if c.skip > 0 {
		c.skip--
		return
	}
	c.skip = c.step - 1
	if c.n < len(c.samples) {
		if d > math.MaxUint32 {
			d = math.MaxUint32
		}
		c.samples[c.n] = uint32(d)
		c.n++
	}
}

// rep is the state of one repetition inside the child.
type rep struct {
	w       workload
	in      *instance
	tr      *tracer
	cal     *calibrator
	callers []callerState
	base    callerState
	ops     []opFunc // instance.op bound to each caller
	seq     []uint64 // next operation number per caller
	baseSeq uint64

	mu     sync.Mutex // guards slices against the hang path's read
	slices []sliceRec
}

// sliceRec is one finished slice of the window: whose it was, how long it
// took, what completed, and which samples of each caller's buffer are its.
type sliceRec struct {
	baseline  bool
	ns        int64
	completed int64
	from, to  []int // per caller; one entry for a baseline slice
	// The machine reference just before and just after the slice, ns per
	// iteration of the calibration loop.
	calBefore, calAfter float64
}

// progress returns a leg's sample cursors and completed operations so far.
func (r *rep) progress(baseline bool) (cursors []int, completed int64) {
	if baseline {
		return []int{r.base.n}, r.base.completed.Load()
	}
	for c := range r.callers {
		cursors = append(cursors, r.callers[c].n)
	}
	return cursors, r.completedMain()
}

// leg summarises the finished slices of one leg.
func (r *rep) leg(baseline bool) legSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	per := 1
	state := func(c int) *callerState { return &r.callers[c] }
	if baseline {
		state = func(int) *callerState { return &r.base }
	} else if r.w.batch > 0 {
		per = r.w.batch
	}
	type sliceLat struct {
		lat []float64 // sorted
		rec sliceRec
	}
	var mine []sliceLat
	var all []float64
	var ops, ns int64
	out := legSummary{Step: max(state(0).step, 1), Samples: math.MaxInt}
	for _, sl := range r.slices {
		if sl.baseline != baseline {
			continue
		}
		var lat []float64
		for c := range sl.from {
			lat = append(lat, batchMeans(state(c).samples[sl.from[c]:sl.to[c]], per)...)
		}
		all = append(all, lat...)
		sort.Float64s(lat)
		mine = append(mine, sliceLat{lat, sl})
		out.Samples = min(out.Samples, len(lat))
		ops, ns = ops+sl.completed, ns+sl.ns
	}
	out.Slices = len(mine)
	if out.Slices == 0 {
		out.Samples = 0
	}
	out.TailQ, out.Beyond = supportedTail(out.Samples)
	out.Raw, out.RawOpsPerS = summarize(all), num(math.NaN())
	if ns > 0 {
		out.RawOpsPerS = num(float64(ops) / (float64(ns) / 1e9))
	}

	medians := make([]float64, 0, len(mine))
	for _, sl := range mine {
		if len(sl.lat) > 0 {
			medians = append(medians, percentile(sl.lat, 0.5))
		}
	}
	sort.Float64s(medians)
	limit := percentile(medians, quietAnchorQ) * (1 + quietWithin) // NaN when nothing completed: no slice is quiet

	var p50s, tails, rates, speeds []float64
	for _, sl := range mine {
		p50, tail := percentile(sl.lat, 0.5), percentile(sl.lat, out.TailQ)
		rate := float64(sl.rec.completed) / (float64(sl.rec.ns) / 1e9)
		cal := (sl.rec.calBefore + sl.rec.calAfter) / 2
		speed := r.cal.refNs / cal
		out.SliceP50 = append(out.SliceP50, num(p50))
		out.SliceTail = append(out.SliceTail, num(tail))
		out.SliceOps = append(out.SliceOps, num(math.Round(rate)))
		out.SliceCal = append(out.SliceCal, num(cal))
		if p50 <= limit {
			out.Quiet++
			p50s, tails = append(p50s, p50*speed), append(tails, tail*speed)
			rates, speeds = append(rates, rate/speed), append(speeds, speed)
		}
	}
	out.P50, out.Tail = overReps(p50s).Median, overReps(tails).Median
	out.OpsPerS, out.Speed = overReps(rates).Median, overReps(speeds).Median
	if out.Quiet == 0 { // nothing completed in any slice
		out.OpsPerS = out.RawOpsPerS
	}
	return out
}

// opFunc performs one operation of a leg; instance.op bound to its caller,
// or instance.baseline.
type opFunc func(seq uint64, check bool, sp *opSpan) error

// runOps drives caller c until end.
func (r *rep) runOps(c int, end int64, measured bool) {
	if r.w.batch > 0 {
		r.runBatched(c, end, measured)
		return
	}
	r.run(&r.callers[c], c, &r.seq[c], r.ops[c], end, measured)
}

// runBaseline drives the RTZen leg until end.
func (r *rep) runBaseline(end int64, measured bool) {
	r.run(&r.base, len(r.callers), &r.baseSeq, r.in.baseline, end, measured)
}

// run repeats op until end, one clock pair per operation. measured selects
// window behaviour (sampling, 1-in-checkEvery verification, trace slots from
// ring); warm-up checks every reply and records nothing.
func (r *rep) run(st *callerState, ring int, next *uint64, op opFunc, end int64, measured bool) {
	seq := *next
	defer func() { *next = seq }()
	for {
		t0 := nowNs()
		if t0 >= end {
			return
		}
		var sp *opSpan
		if measured && r.tr != nil {
			sp = r.tr.take(ring)
			sp.start = t0
		}
		st.started.Add(1)
		err := op(seq, !measured || seq%checkEvery == 0, sp)
		seq++
		t1 := nowNs()
		if err != nil {
			st.fail(err, t0)
			continue
		}
		if sp != nil {
			sp.end = t1
		}
		st.completed.Add(1)
		if measured {
			st.record(t1 - t0)
		}
	}
}

// runBatched is run for operations shorter than 2 µs: one clock pair
// covers workload.batch operations, progress is published once per batch,
// and the traced repetition stamps the first operation of each batch. A
// batch with a failed operation records no sample.
func (r *rep) runBatched(c int, end int64, measured bool) {
	batch := int64(r.w.batch)
	st := &r.callers[c]
	seq := r.seq[c]
	defer func() { r.seq[c] = seq }()
	for {
		t0 := nowNs()
		if t0 >= end {
			return
		}
		st.started.Add(batch)
		ok := int64(0)
		for k := int64(0); k < batch; k++ {
			var sp *opSpan
			if k == 0 && measured && r.tr != nil {
				sp = r.tr.take(c)
				sp.start = nowNs()
			}
			err := r.in.op(c, seq, !measured || k == 0, sp)
			seq++
			if err != nil {
				st.fail(err, t0)
				continue
			}
			if sp != nil {
				sp.end = nowNs()
			}
			ok++
		}
		st.completed.Add(ok)
		if measured && ok == batch {
			st.record(nowNs() - t0)
		}
	}
}

// mainSlice runs every caller until end and returns once all have stopped.
func (r *rep) mainSlice(end int64, measured bool) {
	if len(r.callers) == 1 {
		r.runOps(0, end, measured)
		return
	}
	var wg sync.WaitGroup
	for c := range r.callers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.runOps(c, end, measured)
		}(c)
	}
	wg.Wait()
}

// runRep is the body of a child process: set up, warm up, measure, report.
// setupStart is where set-up time counts from: 0 in a child (the process's
// own start), the current time when the caller's process is reused.
// If callers are still blocked hangGrace after the window it reports the
// repetition as hung, with the operations that never returned as failed.
func runRep(cfg repConfig, setupStart int64) (repResult, error) {
	w, ok := findWorkload(cfg.Workload)
	if !ok {
		return repResult{}, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	prev := runtime.GOMAXPROCS(w.gomaxprocs())
	defer runtime.GOMAXPROCS(prev)
	res := repResult{Workload: w.name, Trace: cfg.Trace, Gomaxprocs: w.gomaxprocs()}
	if w.telemetryOff {
		telemetry.Enable(false)
		defer telemetry.Enable(true)
	}

	var tr *tracer
	if cfg.Trace {
		tr = newTracer(w.callers + 1)
	}
	in, err := w.build(cfg.Seed, tr)
	if err != nil {
		return res, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	closed := false
	defer func() {
		if !closed {
			in.close()
		}
	}()
	if err := in.op(0, 0, true, nil); err != nil {
		return res, fmt.Errorf("%s: first operation: %w", w.name, err)
	}
	res.SetupRuns = []float64{float64(nowNs()-setupStart) / 1e9}
	res.SetupS, res.AllocsPerOp = num(res.SetupRuns[0]), num(math.NaN())
	if err := in.startBaseline(tr); err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}
	cal, err := newCalibrator(w.orb != nil && w.orb.tcp)
	if err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}
	defer cal.close()
	r := &rep{w: w, in: in, tr: tr, cal: cal, callers: make([]callerState, w.callers), seq: make([]uint64, w.callers)}
	r.ops = make([]opFunc, w.callers)
	for c := range r.seq {
		r.seq[c] = 1
		r.ops[c] = func(seq uint64, check bool, sp *opSpan) error { return in.op(c, seq, check, sp) }
	}

	// Warm-up: both legs, every reply checked, nothing recorded.
	warmEnd := nowNs() + int64(cfg.WarmupS*1e9)
	var warmMainNs, warmBaseNs int64
	for nowNs() < warmEnd {
		t0 := nowNs()
		r.mainSlice(min(warmEnd, t0+warmSliceNs), false)
		t1 := nowNs()
		r.runBaseline(min(warmEnd, t1+warmSliceNs/4), false)
		warmMainNs, warmBaseNs = warmMainNs+t1-t0, warmBaseNs+nowNs()-t1
	}
	if f := r.failedMain() + r.base.failed.Load(); f != 0 {
		_, err := r.firstFailure()
		return res, fmt.Errorf("%s: %d operations failed during warm-up, first: %v", w.name, f, err)
	}

	// From the warm-up's rates: how many operations to expect in the window,
	// hence each caller's sampling step and the trace's.
	windowNs := int64(cfg.WindowS * 1e9)
	expect := func(done, tookNs int64) float64 {
		if tookNs <= 0 {
			return 0
		}
		return float64(done) / float64(tookNs) * float64(windowNs)
	}
	prepare := func(st *callerState, ring int, ops float64, share int, batch int) {
		if batch > 0 {
			ops /= float64(batch) // one sample, and one traced operation, per batch
		}
		st.samples = make([]uint32, share)
		for i := range st.samples {
			st.samples[i] = 1 // touch every page now, not as samples arrive
		}
		st.step = max(1, int(math.Ceil(1.5*ops/float64(share))))
		if tr != nil {
			tr.setStep(ring, ops)
		}
		st.started.Store(0)
		st.completed.Store(0)
	}
	for c := range r.callers {
		prepare(&r.callers[c], c, expect(r.callers[c].completed.Load(), warmMainNs), sampleCap/w.callers, w.batch)
	}
	prepare(&r.base, len(r.callers), expect(r.base.completed.Load(), warmBaseNs), sampleCap, 0)

	// Measured window. A watchdog reports a hung window instead of waiting
	// for callers that will never return.
	// The window is whole cycles of baselineEvery equal slices, one of them
	// RTZen's, so that however short the window both legs get their turn.
	cycles := max(1, int(math.Round(float64(windowNs)/float64(int64(w.baselineEvery)*sliceNs))))
	slices := cycles * w.baselineEvery
	sliceLen := windowNs / int64(slices)
	phase := int(uint64(cfg.Seed) % uint64(w.baselineEvery)) // which slice of each cycle is RTZen's
	var delta, baseDelta counts
	var calErr error // the slice goroutine's; read after done
	sendsBefore := portSends()
	done := make(chan struct{})
	windowStart := nowNs()
	go func() {
		defer close(done)
		calibrate := func() float64 {
			ns, err := cal.sample()
			if err != nil && calErr == nil {
				calErr = err
			}
			return ns
		}
		last := calibrate()
		for s := 0; s < slices; s++ {
			sl := sliceRec{baseline: s%w.baselineEvery == phase, calBefore: last}
			end := nowNs() + sliceLen // every slice is full length
			sl.from, sl.completed = r.progress(sl.baseline)
			before := readCounts()
			t0 := nowNs()
			if sl.baseline {
				r.runBaseline(end, true)
			} else {
				r.mainSlice(end, true)
			}
			sl.ns = nowNs() - t0
			if sl.baseline {
				baseDelta.add(before, readCounts())
			} else {
				delta.add(before, readCounts())
			}
			last = calibrate()
			sl.calAfter = last
			to, completed := r.progress(sl.baseline)
			sl.to, sl.completed = to, completed-sl.completed
			r.mu.Lock()
			r.slices = append(r.slices, sl)
			r.mu.Unlock()
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Duration(windowNs+int64(slices+1)*calNs) + hangGrace):
		res.Hung = true
	}

	res.MemPeakMB = vmHWM() // before the harness's own post-processing
	res.Attempted, res.Failed = r.startedMain(), r.failedMain()
	completed := r.completedMain()
	if res.Hung {
		// Operations that never returned count as failed.
		res.Failed = res.Attempted - completed
	}
	if at, err := r.firstFailure(); err != nil {
		res.FirstError = err.Error()
		res.FirstFailS = float64(at-windowStart) / 1e9
	} else if res.Hung {
		res.FirstError = fmt.Sprintf("callers still blocked %v after the window", hangGrace)
		res.FirstFailS = float64(windowNs) / 1e9
	}
	res.BaselineBad = r.base.started.Load() - r.base.completed.Load()
	res.Main, res.Baseline = r.leg(false), r.leg(true)
	if h := telemetry.Default.Histogram("coalesce_batch_frames"); h.Count() > 0 {
		res.CoalesceP50 = float64(h.Quantile(0.5))
	}
	if res.Hung {
		// Stuck callers hold the instance; closing it under them is not
		// worth the risk of a second hang. The process is about to exit.
		closed = true
		return res, nil
	}

	if calErr != nil {
		return res, fmt.Errorf("%s: %w", w.name, calErr)
	}
	if completed > 0 {
		res.AllocsPerOp = num(float64(delta.mallocs) / float64(completed))
		if in.verify != nil {
			if err := in.verify(res.Attempted, delta); err != nil {
				res.Problems = append(res.Problems, err.Error())
			}
		}
	}
	if tr != nil {
		res.Layer = r.layerMetrics(delta, baseDelta, completed, portSends()-sendsBefore)
	}

	// The remaining set-ups, now that nothing is being measured.
	in.close()
	closed = true
	var cals []float64
	for len(res.SetupRuns) < setupRuns {
		if len(res.SetupRuns)%10 == 1 {
			ns, err := cal.sample()
			if err != nil {
				return res, fmt.Errorf("%s: %w", w.name, err)
			}
			cals = append(cals, ns)
		}
		// Start each from a collected heap whose free pages are back with
		// the operating system, as the cold one did. Otherwise whether a
		// collection cycle lands inside the few hundred microseconds of a
		// set-up, and whether its megabyte of immortal memory is carved from
		// pages the process still holds or faulted in afresh (which differs
		// from process to process), decide its time.
		debug.FreeOSMemory()
		t0 := nowNs()
		again, err := w.build(cfg.Seed, nil)
		if err != nil {
			return res, fmt.Errorf("%s: set-up %d: %w", w.name, len(res.SetupRuns)+1, err)
		}
		err = again.op(0, 0, true, nil)
		took := float64(nowNs()-t0) / 1e9
		again.close()
		if err != nil {
			return res, fmt.Errorf("%s: first operation of set-up %d: %w", w.name, len(res.SetupRuns)+1, err)
		}
		res.SetupRuns = append(res.SetupRuns, took)
	}
	res.SetupSpeed = num(cal.refNs) / overReps(cals).Median
	res.SetupS = overReps(res.SetupRuns).Median * res.SetupSpeed
	return res, nil
}

func (r *rep) startedMain() (n int64) {
	for c := range r.callers {
		n += r.callers[c].started.Load()
	}
	return n
}

func (r *rep) completedMain() (n int64) {
	for c := range r.callers {
		n += r.callers[c].completed.Load()
	}
	return n
}

func (r *rep) failedMain() (n int64) {
	for c := range r.callers {
		n += r.callers[c].failed.Load()
	}
	return n
}

// firstFailure returns the earliest recorded failure of the main leg and
// when its operation started, or failing that the baseline's first failure.
func (r *rep) firstFailure() (at int64, err error) {
	at = math.MaxInt64
	for c := range r.callers {
		if st := &r.callers[c]; st.failed.Load() > 0 && st.firstFailNs < at {
			err, at = st.firstErr, st.firstFailNs
		}
	}
	if err == nil && r.base.failed.Load() > 0 {
		err, at = fmt.Errorf("baseline: %w", r.base.firstErr), r.base.firstFailNs
	}
	return at, err
}

// portSends sums the port_sent gauges of every Out port now registered: the
// number of port hops the process has made. RTZen has no ports, so the
// window's difference belongs to the main leg alone.
func portSends() (n int64) {
	for _, g := range telemetry.Default.Snapshot(telemetry.SnapshotOptions{}).Gauges {
		if g.Name == "port_sent" {
			n += g.Value
		}
	}
	return n
}

// vmHWM reads the process's peak resident set size in MB; NaN when
// /proc/self/status is unavailable.
func vmHWM() num {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return num(math.NaN())
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err == nil {
					return num(kb / 1024)
				}
			}
		}
	}
	return num(math.NaN())
}
