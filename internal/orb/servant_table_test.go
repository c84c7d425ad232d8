package orb

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/corba"
	"repro/internal/giop"
	"repro/internal/sched"
	"repro/internal/transport"
)

// tagServant answers every call with its tag and counts the calls it ran,
// and those of them that carried a payload. It is a PrioritizedServant that
// records the priority byte it was shown.
type tagServant struct {
	tag      string
	calls    atomic.Int64
	withBody atomic.Int64
	prio     atomic.Int64
}

func (s *tagServant) Invoke(op string, in []byte) ([]byte, error) {
	return s.InvokeWithPriority(op, in, 0xff)
}

func (s *tagServant) InvokeWithPriority(_ string, in []byte, prio byte) ([]byte, error) {
	s.prio.Store(int64(prio))
	s.calls.Add(1)
	if len(in) > 0 {
		s.withBody.Add(1)
	}
	return []byte(s.tag), nil
}

// servantTableRig is one server with a collocated and a wire client of it.
type servantTableRig struct {
	srv          *Server
	local, wired *Client
}

func newServantTableRig(t *testing.T) servantTableRig {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	return servantTableRig{
		srv:   srv,
		local: dial(t, net, srv.Addr(), ClientConfig{Collocate: true}),
		wired: dial(t, net, srv.Addr(), ClientConfig{}),
	}
}

// each runs f once per transport.
func (r servantTableRig) each(f func(name string, cl *Client)) {
	f("collocated", r.local)
	f("wire", r.wired)
}

// The servant table's contract, on the direct transport and the wire alike:
// the newest binding and every earlier one resolve; a key unbound before a
// call starts is shed as retiring and never run, whether or not its mark is
// the newest edit; Locate answers OBJECT_HERE only for live keys; and a
// PrioritizedServant is shown the raw priority byte.
func TestServantTableContract(t *testing.T) {
	r := newServantTableRig(t)
	a, b := &tagServant{tag: "a"}, &tagServant{tag: "b"}
	r.srv.RegisterServant("a", a)
	r.srv.RegisterServant("b", b)
	if e := r.srv.servants.Load().newest; e.key != "b" || e.sv != corba.Servant(b) {
		t.Fatalf("newest entry is %q, want the second registration, \"b\"", e.key)
	}
	r.each(func(name string, cl *Client) {
		for _, key := range []string{"a", "b", "echo"} {
			want := key
			if key == "echo" {
				want = "hello"
			}
			if out, err := cl.Invoke(key, "echo", []byte("hello"), sched.NormPriority); err != nil || string(out) != want {
				t.Errorf("%s: invoke %q = (%q, %v), want %q", name, key, out, err, want)
			}
		}
		// The byte as sent, an out-of-band one too: it queues at
		// NormPriority, but the servant sees what the caller sent.
		for _, prio := range []sched.Priority{sched.MinPriority, 7, 40} {
			if _, err := cl.Invoke("b", "op", nil, prio); err != nil {
				t.Fatalf("%s: invoke at priority %d: %v", name, prio, err)
			}
			if got := b.prio.Load(); got != int64(prio) {
				t.Errorf("%s: servant shown priority %d, want the raw %d", name, got, prio)
			}
		}
	})

	conn := rawDial(t, r.srv.net, r.srv.Addr())
	locate := func(id uint32, key string) giop.LocateStatus { return rawLocate(t, conn, id, key).Status }
	shedUnrun := func(when, key string, sv *tagServant) {
		t.Helper()
		calls := sv.calls.Load()
		r.each(func(name string, cl *Client) {
			if _, err := cl.Invoke(key, "op", nil, sched.NormPriority); !errors.Is(err, ErrShed) {
				t.Errorf("%s, %s: invoke %q = %v, want a retiring shed", when, name, key, err)
			}
		})
		if d := sv.calls.Load() - calls; d != 0 {
			t.Errorf("%s: an unbound servant ran %d times", when, d)
		}
	}

	r.srv.UnregisterServant("a") // the retiring mark is the newest entry
	shedUnrun("retiring newest", "a", a)
	if st := locate(1, "a"); st != giop.LocateUnknownObject {
		t.Errorf("Locate of a retiring newest key = %v, want UNKNOWN_OBJECT", st)
	}
	r.srv.RegisterServant("c", &tagServant{tag: "c"}) // now it is not
	shedUnrun("retiring, older", "a", a)
	for i, tc := range []struct {
		key  string
		want giop.LocateStatus
	}{{"a", giop.LocateUnknownObject}, {"b", giop.LocateObjectHere}, {"c", giop.LocateObjectHere}, {"echo", giop.LocateObjectHere}, {"ghost", giop.LocateUnknownObject}} {
		if st := locate(uint32(2+i), tc.key); st != tc.want {
			t.Errorf("Locate %q = %v, want %v", tc.key, st, tc.want)
		}
	}
	r.each(func(name string, cl *Client) {
		if _, err := cl.Invoke("ghost", "op", nil, sched.NormPriority); errors.Is(err, ErrShed) || !errors.Is(err, corba.ErrSystemException) {
			t.Errorf("%s: a never-bound key = %v, want the no-servant exception", name, err)
		}
	})
	r.srv.RegisterServant("a", a)
	r.each(func(name string, cl *Client) {
		if out, err := cl.Invoke("a", "op", nil, sched.NormPriority); err != nil || string(out) != "a" {
			t.Errorf("%s: re-registered key = (%q, %v)", name, out, err)
		}
	})
}

// Register, unregister and re-register one key while a collocated and a wire
// caller loop on it: every call either runs the servant or is shed as
// retiring — never a no-servant answer — and a call made between
// UnregisterServant's return and the next RegisterServant is always shed and
// never run.
func TestServantTableFlipUnderTraffic(t *testing.T) {
	r := newServantTableRig(t)
	sv := &tagServant{tag: "flip"}
	r.srv.RegisterServant("flip", sv)
	r.srv.RegisterServant("other", &tagServant{tag: "other"})

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	var served, shed atomic.Int64
	loop := func(name string, cl *Client) {
		defer wg.Done()
		for !stop.Load() {
			out, err := cl.Invoke("flip", "op", nil, sched.NormPriority)
			switch {
			case err == nil && bytes.Equal(out, []byte("flip")):
				served.Add(1)
			case errors.Is(err, ErrShed):
				shed.Add(1)
			default:
				errs <- fmt.Errorf("%s caller: (%q, %v), want the servant's answer or a retiring shed", name, out, err)
				return
			}
		}
	}
	wg.Add(2)
	go loop("collocated", r.local)
	go loop("wire", r.wired)

	const flips = 200
	for i := 0; i < flips && len(errs) == 0; i++ {
		r.srv.UnregisterServant("flip")
		if i%2 == 1 {
			// Every other time the retiring mark is not the newest edit.
			r.srv.RegisterServant("other", &tagServant{tag: "other"})
		}
		// A call made now must be shed, whichever the transport; it is the
		// only one that carries a payload, so the servant shows if it ran.
		r.each(func(name string, cl *Client) {
			if _, err := cl.Invoke("flip", "op", []byte("unbound"), sched.NormPriority); !errors.Is(err, ErrShed) {
				t.Errorf("flip %d, %s: a call after UnregisterServant = %v, want a retiring shed", i, name, err)
			}
		})
		r.srv.RegisterServant("flip", sv)
		r.each(func(name string, cl *Client) {
			if out, err := cl.Invoke("flip", "op", nil, sched.NormPriority); err != nil || string(out) != "flip" {
				t.Errorf("flip %d, %s: a call after RegisterServant = (%q, %v)", i, name, out, err)
			}
		})
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("%d calls served, %d shed as retiring over %d flips", served.Load(), shed.Load(), flips)
	if n := sv.withBody.Load(); n != 0 {
		t.Errorf("the servant ran %d calls made after UnregisterServant returned", n)
	}
	if served.Load() == 0 {
		t.Error("no looping call was ever served")
	}
}
