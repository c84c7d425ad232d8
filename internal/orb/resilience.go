package orb

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corba"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Resilience errors.
var (
	// ErrCircuitOpen is returned without touching the network while the
	// client's circuit breaker is open: consecutive transport faults exceeded
	// the threshold and the cooldown has not yet elapsed.
	ErrCircuitOpen = errors.New("orb client: circuit open")
	// ErrDeadlineExceeded is returned when a per-invoke deadline elapses
	// before the reply arrives. The connection stays up — the demux keeps
	// the framing synchronised and simply drops the stale reply when it
	// eventually arrives — so one slow invocation does not force a teardown
	// on everyone sharing the pipeline.
	ErrDeadlineExceeded = errors.New("orb client: invoke deadline exceeded")
	// ErrShed marks a reply reporting the server shed the request — overload
	// brown-out or a draining replica — rather than executing it. Shed
	// errors usually arrive as a *ShedError carrying the server's suggested
	// back-off; match with errors.Is(err, ErrShed).
	ErrShed = errors.New("orb client: request shed by server")
)

// ShedError is a shed reply surfaced to the caller, carrying the server's
// retry-after hint from the GIOP service context. It matches both ErrShed
// and corba.ErrSystemException under errors.Is — a shed is a system
// exception, so callers that only screen for exceptions keep working.
type ShedError struct {
	// RetryAfter is the server's suggested back-off before retrying.
	RetryAfter time.Duration
	// Detail is the exception payload text.
	Detail string
}

// Error formats the shed with its hint.
func (e *ShedError) Error() string {
	return fmt.Sprintf("%v (retry after %v): %s", ErrShed, e.RetryAfter, e.Detail)
}

// Is matches ErrShed and corba.ErrSystemException.
func (e *ShedError) Is(target error) bool {
	return target == ErrShed || target == corba.ErrSystemException
}

// Resilience counters, exported at /metrics with the compadres_ prefix.
var (
	retryTotal         = telemetry.NewCounter("retry_total")
	breakerOpenTotal   = telemetry.NewCounter("breaker_open_total")
	reconnectTotal     = telemetry.NewCounter("reconnect_total")
	invokeTimeoutTotal = telemetry.NewCounter("invoke_timeout_total")
)

// Flight-recorder labels for resilience state transitions.
var (
	breakerLabel = telemetry.Label("orb.client.breaker")
	connLabel    = telemetry.Label("orb.client.conn")
)

// ResilienceConfig opts a Client into supervised-connection behaviour:
// reconnect on transport error with capped exponential backoff, per-invoke
// deadlines, a retry budget for idempotent operations, and a circuit
// breaker. A nil ResilienceConfig in ClientConfig leaves the client exactly
// as before — one dial, errors surface to the caller, no retries.
type ResilienceConfig struct {
	// Seed makes backoff jitter (and nothing else) deterministic; zero
	// disables jitter so every delay is the exact doubling ceiling.
	Seed uint64
	// ReconnectBase/ReconnectMax bound the redial/retry backoff; zero
	// selects 1ms and 250ms, sched.Backoff's defaults.
	ReconnectBase, ReconnectMax time.Duration
	// MaxRetries bounds retry attempts beyond the first try for idempotent
	// operations (InvokeIdempotent, InvokeOneway); zero selects 3.
	MaxRetries int
	// RetryBudgetTokens/RetryBudgetEarnEvery parameterise the token bucket
	// that bounds aggregate retry volume: the bucket starts with Tokens,
	// every retry spends one, and every EarnEvery-th success earns one back.
	// Zeros select 16 and 8.
	RetryBudgetTokens, RetryBudgetEarnEvery int
	// InvokeTimeout bounds one wire exchange (write + reply read) via the
	// connection's deadlines. Zero means no deadline.
	InvokeTimeout time.Duration
	// BreakerThreshold is the consecutive transport-fault count that opens
	// the circuit; zero selects 5.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting a
	// single half-open probe; zero selects 100ms.
	BreakerCooldown time.Duration
}

// withDefaults fills zero fields.
func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.RetryBudgetTokens <= 0 {
		c.RetryBudgetTokens = 16
	}
	if c.RetryBudgetEarnEvery <= 0 {
		c.RetryBudgetEarnEvery = 8
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 100 * time.Millisecond
	}
	return c
}

// Breaker states (also the EvState event arg).
const (
	breakerClosed   = 0
	breakerOpen     = 1
	breakerHalfOpen = 2
	// connReconnected is the EvState arg recorded on the conn label when a
	// supervised redial succeeds.
	connReconnected = 3
)

// breaker is the client's circuit breaker. All methods are safe for
// concurrent use and allocation-free.
type breaker struct {
	threshold int32
	cooldown  int64 // ns on the telemetry clock

	state    atomic.Int32
	fails    atomic.Int32
	openedAt atomic.Int64
}

// Allow reports whether an invocation may proceed. While open it fails fast
// until the cooldown elapses, then admits one half-open probe per cooldown
// window (the CAS winner on the window timestamp); concurrent callers keep
// failing fast. Rate-limiting probes by window rather than tracking a
// single in-flight probe means a probe that dies before reaching the wire
// cannot wedge the breaker half-open forever.
func (b *breaker) Allow() bool {
	if b.state.Load() == breakerClosed {
		return true
	}
	last := b.openedAt.Load()
	now := telemetry.Now()
	if now-last < b.cooldown {
		return false
	}
	if !b.openedAt.CompareAndSwap(last, now) {
		return false
	}
	if b.state.CompareAndSwap(breakerOpen, breakerHalfOpen) {
		telemetry.Record(telemetry.EvState, breakerLabel, 0, 0, breakerHalfOpen)
	}
	return true
}

// Success records a completed exchange: the failure streak resets and the
// breaker closes from any state.
func (b *breaker) Success() {
	b.fails.Store(0)
	if b.state.Swap(breakerClosed) != breakerClosed {
		telemetry.Record(telemetry.EvState, breakerLabel, 0, 0, breakerClosed)
	}
}

// Failure records a transport fault. A failed half-open probe reopens the
// breaker immediately; a closed breaker opens once the consecutive-failure
// streak reaches the threshold.
func (b *breaker) Failure() {
	if b.state.Load() == breakerHalfOpen {
		b.openedAt.Store(telemetry.Now())
		if b.state.CompareAndSwap(breakerHalfOpen, breakerOpen) {
			breakerOpenTotal.Inc()
			telemetry.Record(telemetry.EvState, breakerLabel, 0, 0, breakerOpen)
		}
		return
	}
	if b.fails.Add(1) >= b.threshold && b.state.CompareAndSwap(breakerClosed, breakerOpen) {
		b.openedAt.Store(telemetry.Now())
		breakerOpenTotal.Inc()
		telemetry.Record(telemetry.EvState, breakerLabel, 0, 0, breakerOpen)
	}
}

// mayAllow reports whether Allow could currently admit an invocation,
// without consuming a half-open probe. The member selector uses it to skip
// refusing members while scanning candidates, reserving the probe-consuming
// Allow() for the member actually chosen.
func (b *breaker) mayAllow() bool {
	if b.state.Load() == breakerClosed {
		return true
	}
	return telemetry.Now()-b.openedAt.Load() >= b.cooldown
}

// State returns the current breaker state (breakerClosed/Open/HalfOpen).
func (b *breaker) State() int32 { return b.state.Load() }

// resilience is the per-client runtime state behind a ResilienceConfig.
// Circuit-breaker state is NOT here: each member carries its own breaker
// (member.go), so one dead member opens its own circuit while the rest keep
// serving.
type resilience struct {
	cfg    ResilienceConfig
	budget *sched.RetryBudget

	mu      sync.Mutex // guards backoff
	backoff sched.Backoff
}

func newResilience(cfg ResilienceConfig) *resilience {
	cfg = cfg.withDefaults()
	r := &resilience{
		cfg:    cfg,
		budget: sched.NewRetryBudget(cfg.RetryBudgetTokens, cfg.RetryBudgetEarnEvery),
	}
	r.backoff = sched.Backoff{Base: cfg.ReconnectBase, Max: cfg.ReconnectMax, Seed: cfg.Seed}
	return r
}

// initBreaker arms a member's breaker with this config's thresholds.
func (r *resilience) initBreaker(b *breaker) {
	b.threshold = int32(r.cfg.BreakerThreshold)
	b.cooldown = int64(r.cfg.BreakerCooldown)
}

// nextDelay draws the next backoff delay.
func (r *resilience) nextDelay() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.backoff.Next()
}

// resetDelay resets the backoff after a success.
func (r *resilience) resetDelay() {
	r.mu.Lock()
	r.backoff.Reset()
	r.mu.Unlock()
}

// retriable reports whether err is a transport-level failure that an
// idempotent operation may safely retry: the request either never left the
// process (message pool exhausted, open breaker) or the connection died and was
// torn down (the retry goes out with a fresh request id on a fresh
// connection, and stale replies are suppressed by id). Servant-level
// results — user/system exceptions — are never retried.
func retriable(err error) bool {
	var op *transport.OpError
	switch {
	case errors.As(err, &op):
		return true
	case errors.Is(err, ErrShed):
		// A shed never executed on the servant — the server said so
		// explicitly — so retrying is safe; withRetry honours the reply's
		// retry-after hint when pacing the attempt.
		return true
	case errors.Is(err, ErrCircuitOpen), errors.Is(err, ErrDeadlineExceeded):
		return true
	case errors.Is(err, core.ErrPoolEmpty), errors.Is(err, errUnbound):
		return true
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.ErrClosedPipe), errors.Is(err, net.ErrClosed),
		errors.Is(err, os.ErrDeadlineExceeded):
		return true
	case errors.Is(err, corba.ErrClosed):
		// A dead connection surfaces as ErrClosed; the caller has already
		// screened out the client-is-closed case.
		return true
	default:
		return false
	}
}
