// Package telemetry is the runtime observability subsystem: a flight
// recorder for the running middleware. The paper's evaluation methodology
// (§3.1) is entirely about predictability — median latency and jitter — but
// offline measurement alone leaves the running system a black box. This
// package makes queue depths, deadline misses, pool growth, and per-request
// traces visible at runtime, at a cost small enough that it stays enabled on
// the zero-allocation fast path:
//
//   - sharded atomic Counters and lock-free log-linear Histograms for
//     per-port / per-pool / per-SMM statistics;
//   - a fixed-size lock-free event Ring (the flight recorder) holding the
//     most recent dispatch/send/recv/span events with monotonic timestamps,
//     dumpable on demand or on fault;
//   - deadline-miss accounting: a counter and a flight-recorder event;
//   - trace/span ids propagated across the ORB wire protocol so a
//     client→server→client round trip stitches into one trace;
//   - exporters: a JSON snapshot and a text /metrics-style rendering.
//
// Everything is always compiled in and toggled with Enable; the hot-path
// cost when enabled is a handful of atomic stores per event and one atomic
// add per counter, with no allocation and no interface boxing.
package telemetry

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// epoch anchors all telemetry timestamps: Now is monotonic nanoseconds
// since process start.
var epoch = time.Now()

// Now returns monotonic nanoseconds since the telemetry epoch (process
// start). All event timestamps and deadlines use this clock, so they are
// directly comparable and immune to wall-clock steps.
func Now() int64 { return int64(time.Since(epoch)) }

// enabled gates event recording. Counters and gauges are so cheap they stay
// live regardless; the ring and span helpers check this flag.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enable toggles event recording (the flight-recorder ring and span
// helpers). Counters and gauges are unconditional.
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether event recording is on.
func Enabled() bool { return enabled.Load() }

// verbose gates the highest-frequency flight-recorder events: per-port
// send/dispatch records, invocation spans, and wire-read events. These cost
// around a microsecond per round trip in aggregate — visible against a
// ~10µs invocation — so steady-state deployments leave them off and keep
// the cheaper state-change events, counters, and histograms. Deadline
// enforcement does not depend on this flag.
var verbose atomic.Bool

// Verbose toggles per-hop event recording (spans, per-port send/dispatch,
// wire reads). Off by default; Enable(true) alone keeps them off.
func Verbose(on bool) { verbose.Store(on) }

// VerboseEnabled reports whether per-hop event recording is on.
func VerboseEnabled() bool { return verbose.Load() && enabled.Load() }

// ---------------------------------------------------------------------------
// IDs

var (
	idSeed = uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32
	idCtr  atomic.Uint64
)

// NewID returns a process-unique 64-bit id for traces and spans, never zero.
// It is a splitmix64 step over a seeded counter: allocation-free,
// contention is a single atomic add.
func NewID() uint64 {
	if z := Mix(idSeed, idCtr.Add(1)); z != 0 {
		return z
	}
	return 1
}

// Mix is splitmix64's i-th output from seed: the generator's state after i
// golden-ratio increments, through its finalizer. It is the one seeded
// stream in the repository (trace ids, replica picks, backoff jitter, the
// overload sample, fault draws) and stays small enough to inline.
func Mix(seed, i uint64) uint64 {
	z := seed + i*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// ---------------------------------------------------------------------------
// Labels

// LabelID names a static string (a port, pool, or operation name) in ring
// events. Interning happens once at registration time; the hot path carries
// only the 32-bit id, so recording an event never touches a string.
type LabelID uint32

var (
	labelMu    sync.Mutex
	labelIndex = map[string]LabelID{}
	labelNames atomic.Pointer[[]string] // index 0 = ""
)

func init() {
	names := []string{""}
	labelNames.Store(&names)
}

// Label interns s and returns its id. Call it at setup time (port or pool
// registration), not per message.
func Label(s string) LabelID {
	if s == "" {
		return 0
	}
	labelMu.Lock()
	defer labelMu.Unlock()
	if id, ok := labelIndex[s]; ok {
		return id
	}
	old := *labelNames.Load()
	names := append(old[:len(old):len(old)], s) // a copy: readers keep old
	id := LabelID(len(old))
	labelIndex[s] = id
	labelNames.Store(&names)
	return id
}

// LabelName resolves an id back to its string; unknown ids yield "".
func (id LabelID) Name() string {
	names := *labelNames.Load()
	if int(id) < len(names) {
		return names[id]
	}
	return ""
}

// ---------------------------------------------------------------------------
// Counters

// counterShards is the number of cache-line-padded cells a Counter spreads
// its adds over. Power of two.
const counterShards = 8

type counterShard struct {
	v atomic.Int64
	_ [56]byte // pad to a cache line so shards do not false-share
}

// Counter is a monotonically increasing counter, sharded across padded
// cells so concurrent writers on different goroutines rarely contend on
// one cache line. Add is one atomic add; Value sums the shards.
type Counter struct {
	name   string
	shards [counterShards]counterShard
}

// shardIdx picks a shard from the caller's stack address. Distinct
// goroutines have distinct stacks, so concurrent writers spread out; the
// local escapes nowhere, so this costs no allocation.
func shardIdx() int {
	var probe byte
	return int((uintptr(unsafe.Pointer(&probe)) >> 9) & (counterShards - 1))
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.shards[shardIdx()].v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// ---------------------------------------------------------------------------
// Registry

// gaugeKey names one registered callback gauge: its metric family (e.g.
// "port_received") and instance label (e.g. "Pong.in"). Gauges bridge
// existing atomic statistics (port counters, pool stats, message pools) into
// snapshots without adding any cost to the code paths that maintain them.
type gaugeKey struct{ name, label string }

// GaugeHandle unregisters a gauge (or a group registered together).
type GaugeHandle struct {
	r    *Registry
	keys []gaugeKey
}

// Unregister removes the gauge(s) from the registry. Safe to call more than
// once. A freed "#n" label lowers its base label's first candidate to n.
func (h *GaugeHandle) Unregister() {
	if h == nil || h.r == nil {
		return
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	for _, k := range h.keys {
		delete(h.r.gauges, k)
		if i := strings.LastIndexByte(k.label, '#'); i >= 0 {
			base := gaugeKey{k.name, k.label[:i]}
			if n, err := strconv.Atoi(k.label[i+1:]); err == nil && n < h.r.gaugeNext[base] {
				h.r.gaugeNext[base] = n
			}
		}
	}
	h.keys = nil
}

// faultKeep bounds the recent-fault list kept for snapshots.
const faultKeep = 32

// Fault is one recorded fault event (an inspectable error on a cold path:
// dial failure, peer close mid-frame, handler panic).
type Fault struct {
	// When is the telemetry timestamp (ns since process start).
	When int64 `json:"when_ns"`
	// Label names the subsystem that observed the fault.
	Label string `json:"label"`
	// Err is the error text.
	Err string `json:"err"`
}

// Registry holds counters, gauges, histograms, recent faults, and the event
// ring. The package-level Default registry is what the framework packages
// record into; independent registries exist for tests.
type Registry struct {
	mu       sync.Mutex
	counters []*Counter
	byName   map[string]*Counter
	hists    []*Histogram
	histBy   map[string]*Histogram
	faults   []Fault
	faultCtr Counter
	// gauges indexes the callback gauges by (name, label); every "#n" suffix
	// of label k.label below gaugeNext[k] is taken.
	gauges    map[gaugeKey]func() int64
	gaugeNext map[gaugeKey]int

	ring *Ring
}

// DefaultRingSize is the Default registry's flight-recorder capacity.
const DefaultRingSize = 4096

// NewRegistry returns an empty registry with a flight recorder of the given
// capacity (rounded up to a power of two; minimum 16).
func NewRegistry(ringSize int) *Registry {
	return &Registry{
		byName:    map[string]*Counter{},
		histBy:    map[string]*Histogram{},
		gauges:    map[gaugeKey]func() int64{},
		gaugeNext: map[gaugeKey]int{},
		ring:      NewRing(ringSize),
	}
}

// Default is the process-wide registry the framework records into.
var Default = NewRegistry(DefaultRingSize)

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.byName[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.byName[name] = c
	r.counters = append(r.counters, c)
	return c
}

// NewCounter returns the named counter from the Default registry.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histBy[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	r.histBy[name] = h
	r.hists = append(r.hists, h)
	return h
}

// NewHistogram returns the named histogram from the Default registry.
func NewHistogram(name string) *Histogram { return Default.Histogram(name) }

// RegisterGauge registers a callback gauge under (name, label). The
// callback must be safe for concurrent use and must not block. If the
// (name, label) pair is already taken, the label is suffixed with the lowest
// free "#n" (n from 2), so every instance stays visible.
func (r *Registry) RegisterGauge(name, label string, fn func() int64) *GaugeHandle {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &GaugeHandle{r: r, keys: []gaugeKey{r.registerGaugeLocked(name, label, fn)}}
}

// RegisterGauges registers several gauges that share one label (one
// instrumented object exporting several statistics) under a single handle.
func (r *Registry) RegisterGauges(label string, gauges map[string]func() int64) *GaugeHandle {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := &GaugeHandle{r: r}
	for name, fn := range gauges {
		h.keys = append(h.keys, r.registerGaugeLocked(name, label, fn))
	}
	return h
}

// registerGaugeLocked probes the index from the label's first candidate, so
// a taken label costs a map lookup per suffix registered since the last free.
func (r *Registry) registerGaugeLocked(name, label string, fn func() int64) gaugeKey {
	k := gaugeKey{name, label}
	if _, taken := r.gauges[k]; taken {
		base, n := k, max(r.gaugeNext[k], 2)
		for {
			k.label = label + "#" + strconv.Itoa(n)
			if _, taken := r.gauges[k]; !taken {
				break
			}
			n++
		}
		r.gaugeNext[base] = n + 1
	}
	r.gauges[k] = fn
	return k
}

// RecordFault counts a fault, keeps it in the recent-fault list, and (when
// recording is enabled) drops an EvFault event in the ring. Cold path;
// allocation is fine here.
func (r *Registry) RecordFault(label string, err error) {
	r.faultCtr.Inc()
	f := Fault{When: Now(), Label: label}
	if err != nil {
		f.Err = err.Error()
	}
	r.mu.Lock()
	r.faults = append(r.faults, f)
	if len(r.faults) > faultKeep {
		r.faults = r.faults[len(r.faults)-faultKeep:]
	}
	r.mu.Unlock()
	if Enabled() {
		r.ring.Record(EvFault, Label(label), 0, 0, 0)
	}
}

// RecordFault records a fault in the Default registry.
func RecordFault(label string, err error) { Default.RecordFault(label, err) }

// Faults returns a copy of the recent-fault list (newest last) and the
// total fault count.
func (r *Registry) Faults() ([]Fault, int64) {
	r.mu.Lock()
	out := make([]Fault, len(r.faults))
	copy(out, r.faults)
	r.mu.Unlock()
	return out, r.faultCtr.Value()
}

// Ring returns the registry's flight recorder.
func (r *Registry) Ring() *Ring { return r.ring }

// Record drops an event in the Default registry's ring when recording is
// enabled. This is the framework's one-liner on hot paths: the Enabled
// check is an atomic load, and recording itself is a handful of atomic
// stores into a preallocated slot.
func Record(kind EventKind, label LabelID, trace, span, arg uint64) {
	if enabled.Load() {
		Default.ring.Record(kind, label, trace, span, arg)
	}
}

// RecordVerbose drops an event only when both recording and verbose mode
// are on. Hot paths that fire on every message hop use this instead of
// Record, so the steady-state cost is one atomic load.
func RecordVerbose(kind EventKind, label LabelID, trace, span, arg uint64) {
	if verbose.Load() && enabled.Load() {
		Default.ring.Record(kind, label, trace, span, arg)
	}
}
