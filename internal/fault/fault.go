// Package fault is a deterministic fault-injection layer over
// transport.Network. It wraps a real network (TCP or the in-process one)
// and injects the failure modes a DRE system must survive — dial refusal,
// connection drop after a byte budget, added latency and jitter, partial
// writes, and byte corruption — under a seeded pseudo-random schedule, so a
// chaos test that fails is re-runnable with the identical fault sequence.
//
// Every decision consumes one draw from a splitmix64 stream derived from
// Config.Seed; with a fixed seed and a sequential workload the injected
// faults are byte-for-byte reproducible. Every injected fault is counted
// and recorded through the telemetry fault log, so a chaos run's /metrics
// and flight recorder show exactly what the network did to the system.
package fault

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// ErrInjected is the root cause carried by every injected failure; tests
// and retry policies can distinguish injected faults from real ones with
// errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// Injection counters, exported at /metrics as compadres_fault_*.
var (
	cInjected     = telemetry.NewCounter("fault_injected_total")
	cDialRefused  = telemetry.NewCounter("fault_dial_refused_total")
	cConnDropped  = telemetry.NewCounter("fault_conn_dropped_total")
	cDelay        = telemetry.NewCounter("fault_delay_total")
	cPartialWrite = telemetry.NewCounter("fault_partial_write_total")
	cPartialRead  = telemetry.NewCounter("fault_partial_read_total")
	cCorrupt      = telemetry.NewCounter("fault_corrupt_total")
)

// Config is one fault scenario. The zero value injects nothing (the wrapper
// becomes a transparent pass-through), so scenarios enable only the modes
// they exercise.
type Config struct {
	// Seed drives every probabilistic decision. Two networks with the same
	// seed and the same operation sequence inject identical faults.
	Seed uint64

	// DialRefusals lists 0-based dial indices refused outright — a scripted
	// schedule ("refuse dials 3..7") independent of the probabilistic dials.
	DialRefusals []int
	// DialFailProb additionally refuses each dial with this probability.
	DialFailProb float64

	// DropAfterBytes severs a connection once its total traffic (read +
	// written bytes) exceeds this budget. Zero never severs on volume.
	DropAfterBytes int64
	// DropProb severs the connection at each I/O operation with this
	// probability.
	DropProb float64

	// LatencyMin and LatencyMax bound the delay injected before each Read;
	// the actual delay of an affected read is drawn uniformly between them.
	// LatencyMax == 0 disables latency injection.
	LatencyMin, LatencyMax time.Duration

	// PartialWriteProb makes a write deliver only a prefix of its buffer and
	// then sever the connection, so the peer observes a truncated frame.
	PartialWriteProb float64
	// PartialReadProb makes a read return fewer bytes than the peer has
	// ready, without severing — the benign short read every resumable frame
	// reader must tolerate mid-header and mid-body. The read delivers a
	// random proper prefix of what a full read would have returned; the
	// remainder arrives on later reads.
	PartialReadProb float64
	// CorruptProb flips one byte of a written buffer (the caller's slice is
	// not modified; the corruption happens on a copy).
	CorruptProb float64

	// WrapAccepted also injects faults on connections handed out by
	// Accept, not only on dialed ones.
	WrapAccepted bool
}

// Stats counts the faults one Network instance injected, independent of the
// process-global telemetry counters (which aggregate across scenarios).
type Stats struct {
	DialsRefused  int64
	ConnsDropped  int64
	DelaysAdded   int64
	PartialWrites int64
	PartialReads  int64
	BytesFlipped  int64
}

// Network wraps an inner transport.Network with fault injection.
type Network struct {
	inner transport.Network
	cfg   Config

	refuse map[int]struct{}
	dials  atomic.Int64
	draws  atomic.Uint64

	dialsRefused  atomic.Int64
	connsDropped  atomic.Int64
	delaysAdded   atomic.Int64
	partialWrites atomic.Int64
	partialReads  atomic.Int64
	bytesFlipped  atomic.Int64
}

// New wraps inner with the given fault scenario.
func New(inner transport.Network, cfg Config) *Network {
	n := &Network{inner: inner, cfg: cfg}
	if len(cfg.DialRefusals) > 0 {
		n.refuse = make(map[int]struct{}, len(cfg.DialRefusals))
		for _, i := range cfg.DialRefusals {
			n.refuse[i] = struct{}{}
		}
	}
	return n
}

// Stats returns this network's injection counts.
func (n *Network) Stats() Stats {
	return Stats{
		DialsRefused:  n.dialsRefused.Load(),
		ConnsDropped:  n.connsDropped.Load(),
		DelaysAdded:   n.delaysAdded.Load(),
		PartialWrites: n.partialWrites.Load(),
		PartialReads:  n.partialReads.Load(),
		BytesFlipped:  n.bytesFlipped.Load(),
	}
}

// draw consumes one value from the seeded splitmix64 stream.
func (n *Network) draw() uint64 { return telemetry.Mix(n.cfg.Seed, n.draws.Add(1)) }

// roll consumes one draw and reports true with probability p.
func (n *Network) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		n.draws.Add(1)
		return true
	}
	return float64(n.draw()>>11)/(1<<53) < p
}

// Listen implements transport.Network. The listener itself is never faulty;
// accepted connections are wrapped only when Config.WrapAccepted is set, so
// a chaos scenario can degrade one side of the wire while the other stays
// clean.
func (n *Network) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	if !n.cfg.WrapAccepted {
		return l, nil
	}
	return &listener{n: n, inner: l}, nil
}

// Dial implements transport.Network, refusing dials per the scenario's
// scripted schedule and probability before delegating to the inner network.
func (n *Network) Dial(addr string) (transport.Conn, error) {
	idx := int(n.dials.Add(1) - 1)
	_, scripted := n.refuse[idx]
	if scripted || n.roll(n.cfg.DialFailProb) {
		n.dialsRefused.Add(1)
		cInjected.Inc()
		cDialRefused.Inc()
		err := &transport.OpError{Op: "dial", Addr: addr, Err: ErrInjected}
		telemetry.RecordFault("fault.dial", err)
		return nil, err
	}
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &conn{n: n, inner: c, addr: addr}, nil
}

type listener struct {
	n     *Network
	inner transport.Listener
}

func (l *listener) Accept() (transport.Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	return &conn{n: l.n, inner: c, addr: l.inner.Addr()}, nil
}

func (l *listener) Close() error { return l.inner.Close() }
func (l *listener) Addr() string { return l.inner.Addr() }

// conn injects the per-connection fault modes around an inner connection.
type conn struct {
	n       *Network
	inner   transport.Conn
	addr    string
	traffic atomic.Int64
	severed atomic.Bool
}

// sever cuts the connection (idempotently) and returns the injected error.
func (c *conn) sever(kind string) error {
	if c.severed.CompareAndSwap(false, true) {
		_ = c.inner.Close()
		c.n.connsDropped.Add(1)
		cInjected.Inc()
		cConnDropped.Inc()
		telemetry.RecordFault("fault."+kind,
			&transport.OpError{Op: kind, Addr: c.addr, Err: ErrInjected})
	}
	return &transport.OpError{Op: kind, Addr: c.addr, Err: ErrInjected}
}

// chargeTraffic counts conn volume and severs once the byte budget is
// spent. The sever happens after the current operation's bytes are
// delivered, so the byte count at which the peer sees the cut is
// deterministic.
func (c *conn) chargeTraffic(nbytes int) {
	if nbytes <= 0 || c.n.cfg.DropAfterBytes <= 0 {
		return
	}
	if c.traffic.Add(int64(nbytes)) >= c.n.cfg.DropAfterBytes {
		_ = c.sever("drop")
	}
}

func (c *conn) Read(p []byte) (int, error) {
	if c.severed.Load() {
		return 0, &transport.OpError{Op: "read", Addr: c.addr, Err: ErrInjected}
	}
	if max := c.n.cfg.LatencyMax; max > 0 {
		min := c.n.cfg.LatencyMin
		span := max - min
		d := min
		if span > 0 {
			d += time.Duration(c.n.draw() % uint64(span))
		}
		c.n.delaysAdded.Add(1)
		cDelay.Inc()
		time.Sleep(d)
	}
	if c.n.roll(c.n.cfg.DropProb) {
		return 0, c.sever("drop")
	}
	if len(p) > 1 && c.n.roll(c.n.cfg.PartialReadProb) {
		// Benign short read: cap this read at a random proper prefix of the
		// caller's buffer and leave the connection healthy — the rest of the
		// frame arrives on later reads. Counted but not logged to the fault
		// recorder: a short read is legal io.Reader behaviour, injected here
		// only to force the resumable-read paths.
		p = p[:1+int(c.n.draw()%uint64(len(p)-1))]
		c.n.partialReads.Add(1)
		cInjected.Inc()
		cPartialRead.Inc()
	}
	nr, err := c.inner.Read(p)
	c.chargeTraffic(nr)
	return nr, err
}

func (c *conn) Write(p []byte) (int, error) {
	if c.severed.Load() {
		return 0, &transport.OpError{Op: "write", Addr: c.addr, Err: ErrInjected}
	}
	if c.n.roll(c.n.cfg.DropProb) {
		return 0, c.sever("drop")
	}
	buf := p
	if len(p) > 0 && c.n.roll(c.n.cfg.CorruptProb) {
		// Flip one byte on a copy; the caller's buffer must stay intact.
		buf = append([]byte(nil), p...)
		buf[int(c.n.draw()%uint64(len(buf)))] ^= 0xFF
		c.n.bytesFlipped.Add(1)
		cInjected.Inc()
		cCorrupt.Inc()
		telemetry.RecordFault("fault.corrupt",
			&transport.OpError{Op: "corrupt", Addr: c.addr, Err: ErrInjected})
	}
	if len(p) > 1 && c.n.roll(c.n.cfg.PartialWriteProb) {
		k := 1 + int(c.n.draw()%uint64(len(buf)-1))
		nw, _ := c.inner.Write(buf[:k])
		c.n.partialWrites.Add(1)
		cInjected.Inc()
		cPartialWrite.Inc()
		err := c.sever("partial-write")
		return nw, err
	}
	nw, err := c.inner.Write(buf)
	c.chargeTraffic(nw)
	return nw, err
}

func (c *conn) Close() error { return c.inner.Close() }

// SetDeadline sets both halves, so resilient clients can bound reads and
// writes on a faulty connection.
func (c *conn) SetDeadline(t time.Time) error {
	if err := c.inner.SetReadDeadline(t); err != nil {
		return err
	}
	return c.inner.SetWriteDeadline(t)
}

// SetReadDeadline and SetWriteDeadline forward each direction independently:
// the multiplexed client bounds a request write without disturbing the read a
// waiting caller is blocked in.
func (c *conn) SetReadDeadline(t time.Time) error  { return c.inner.SetReadDeadline(t) }
func (c *conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
