package orb

import (
	"errors"
	"testing"
	"time"

	"repro/internal/corba"
	"repro/internal/sched"
	"repro/internal/transport"
)

// TestServerDrainWaitsForInflight checks Drain blocks until dispatched
// requests complete — including one stuck in the servant — and reports a
// bounded timeout while work is still in flight.
func TestServerDrainWaitsForInflight(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	entered, release := make(chan struct{}), make(chan struct{})
	srv.RegisterServant("slow", corba.ServantFunc(func(op string, in []byte) ([]byte, error) {
		close(entered)
		<-release
		return in, nil
	}))
	cl := dial(t, net, srv.Addr(), ClientConfig{})

	done := make(chan error, 1)
	go func() {
		_, err := cl.Invoke("slow", "op", []byte("x"), sched.NormPriority)
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the servant")
	}

	if err := srv.Drain(20 * time.Millisecond); err == nil {
		t.Fatal("drain with a stuck servant returned nil")
	}
	close(release)
	if err := srv.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain after release: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if got := srv.Inflight(); got != 0 {
		t.Fatalf("inflight after drain = %d", got)
	}
}

// TestRetiringServantShedsWithRetryAfter checks UnregisterServant converts
// stragglers into shed replies carrying a retry-after hint, surfaced to the
// caller as a ShedError that still matches corba.ErrSystemException.
func TestRetiringServantShedsWithRetryAfter(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{})

	if _, err := cl.Invoke("echo", "echo", []byte("warm"), sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	srv.UnregisterServant("echo")

	_, err := cl.Invoke("echo", "echo", []byte("straggler"), sched.NormPriority)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("invoke to retiring servant = %v, want ErrShed", err)
	}
	if !errors.Is(err, corba.ErrSystemException) {
		t.Fatalf("shed error does not match ErrSystemException: %v", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("error is not a *ShedError: %v", err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("shed retry-after hint = %v, want positive", shed.RetryAfter)
	}

	// Re-registration clears the retiring mark: the key serves again.
	srv.RegisterServant("echo", corba.EchoServant{})
	if got, err := cl.Invoke("echo", "echo", []byte("back"), sched.NormPriority); err != nil || string(got) != "back" {
		t.Fatalf("invoke after re-register = %q, %v", got, err)
	}
	// A never-registered key still gets the terminal no-servant exception,
	// not a shed.
	if _, err := cl.Invoke("ghost", "echo", nil, sched.NormPriority); errors.Is(err, ErrShed) || !errors.Is(err, corba.ErrSystemException) {
		t.Fatalf("unknown key err = %v, want plain system exception", err)
	}
}

// TestRetryBudgetBacksOffOnShed checks the idempotent retry loop honours the
// shed reply's retry-after hint: with the local backoff floor in the
// microseconds, total elapsed time across retries must cover the hint.
func TestRetryBudgetBacksOffOnShed(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{
		Resilience: &ResilienceConfig{
			MaxRetries:    2,
			ReconnectBase: time.Microsecond,
			ReconnectMax:  2 * time.Microsecond,
		},
	})

	if _, err := cl.InvokeIdempotent("echo", "echo", []byte("warm"), sched.NormPriority); err != nil {
		t.Fatal(err)
	}
	srv.UnregisterServant("echo")

	start := time.Now()
	_, err := cl.InvokeIdempotent("echo", "echo", []byte("x"), sched.NormPriority)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed after exhausted retries", err)
	}
	// Two retries, each paced by the ≥20ms retirement hint.
	if want := 2 * retireRetryAfterNs; int64(elapsed) < want {
		t.Fatalf("retries elapsed %v, want ≥ %v (hint not honoured)", elapsed, time.Duration(want))
	}
}
