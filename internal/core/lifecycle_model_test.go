package core

// An executable reference model for the component lifecycle: the packed
// liveness word (Component.life) and the per-name shell slot in the SMM.
//
// The implementation is driven with seeded random concurrent histories of
// {send, Connect/Disconnect, Swap, Stop}; every point where user code can
// see the lifecycle — Setup, the start function, a handler's entry and exit —
// appends an event to one totally ordered log, with the generation of the
// area it ran in, read off the area's String form. Those points nest strictly
// inside the real transitions (a handler runs between its message's reserve
// and release, the start function after the claim and before any handler),
// so replaying the log through the sequential model below accepts it only
// if the concurrent execution kept the lifecycle's rules. A reclaim has no
// event of its own: the model infers it when a shell, or its area, shows up
// one generation on, and requires no handler to be inside at that point.
//
// A handler stands in its owner's area on the delivery's reservation alone
// (memory.Context.EnterBelow moves no holder count), so the handler logs the
// area's generation and whether a wedge holds it at entry and at exit: the
// reservation must keep the area pinned and unreclaimed for the whole call.
// Mutation check: a delivery that gives its reservation back before deliver
// returns fails this model.
//
// A parked Reusable shell keeps its area, reclaimed in place under its wedge,
// so each revival must come back in the
// same area one generation on, and no shell may open in an area another
// shell still holds: open, or parked and not yet swapped out. At rest every
// parked shell holds its area with its wedge alone, and the pool's free
// areas plus the parked shells' are all the areas it created; after Stop
// every area is back in the pool. Mutation check: skipping the generation
// bump of the in-place reclaim, or dropping the wedge release when a parked
// shell is retired, fails this model.
//
// A handler also logs the call state it runs on — one of its owner's two
// call frames, or one from App.calls — and the frame bits of the owner's
// life word, at entry and at exit. No call state may carry two handlers at
// once, a handler's frame must be held in the word for its whole span, no
// frame may be held past a swap (the outgoing version's handlers have all
// returned), and at rest no word holds a frame bit. Mutation check: a
// release that does not clear the frame bit its reserve claimed fails this
// model at rest; one that clears a bit it did not claim hangs the histories.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memory"
	"repro/internal/sched"
)

type evKind uint8

const (
	evSetup     evKind = iota // a fresh shell was built for (child, version)
	evOpen                    // the start function ran: the shell is live
	evBegin                   // a handler entered
	evEnd                     // the handler returned
	evSent                    // a send returned nil
	evSwapBegin               // Swap away from `version` was called
	evSwapEnd                 // ... and returned
	evStop                    // App.Stop was called
)

// incarnation names one open→reclaim span of a shell: a shell keeps its area
// across parks, and every reclaim bumps the generation.
type incarnation struct {
	area *memory.Area
	gen  uint64
}

type event struct {
	kind    evKind
	child   string
	shell   *Component
	version int
	inc     incarnation
	val     int64
	pinned  bool   // evBegin/evEnd: a wedge held the handler's area
	proc    *Proc  // evBegin/evEnd: the handler's call state
	frame   int    // evBegin/evEnd: frameOf(proc)
	held    uint64 // evBegin/evEnd: the frame bits of the shell's life word
}

// span is one handler running on a call state.
type span struct {
	val   int64
	shell *Component
	frame int
}

// eventLog is the totally ordered history: a slot is claimed with one
// atomic add, so recording never serialises the goroutines it observes.
type eventLog struct {
	n   atomic.Int64
	evs []event
}

func (l *eventLog) add(e event) {
	if i := l.n.Add(1) - 1; int(i) < len(l.evs) {
		l.evs[i] = e
	}
}

// modelShell is the sequential model of one shell.
type modelShell struct {
	child    string
	version  int
	open     bool
	inc      incarnation
	handlers int
	opens    int
	reclaims int
}

// lifecycleModel replays a history and reports the first rule it breaks.
type lifecycleModel struct {
	shells    map[*Component]*modelShell
	setups    map[string]int  // "child/version" → shells built
	swapBegun map[string]bool // "child/version" → a Swap away from it started
	swapDone  map[string]bool // ... and returned: the version is retired for good
	handled   map[int64]int
	inside    map[int64]incarnation // message → the area its running handler entered
	running   map[*Proc]span        // call state → the handler running on it
	sent      map[int64]bool
	framed    int // handlers that ran on a call frame
	stopping  bool
}

func key(child string, version int) string { return fmt.Sprintf("%s/%d", child, version) }

// frameHeld checks that a handler on one of its owner's call frames finds
// the frame's bit set in the owner's life word.
func frameHeld(s *modelShell, e event) error {
	if e.frame >= 0 && e.held&(frameOne<<e.frame) == 0 {
		return fmt.Errorf("handler of message %d in %s runs on frame %d, which the life word's frame bits %#x do not hold",
			e.val, key(s.child, s.version), e.frame, e.held)
	}
	return nil
}

// reclaimed infers the reclaim a live shell went through when it shows up in
// a later incarnation than its open one: it parked in between, so no handler
// was inside it.
func (m *lifecycleModel) reclaimed(s *modelShell, inc incarnation) error {
	if !s.open || inc == s.inc {
		return nil
	}
	if s.handlers > 0 && !m.stopping {
		return fmt.Errorf("%s reclaimed with %d handlers inside", key(s.child, s.version), s.handlers)
	}
	s.open = false
	s.reclaims++
	return nil
}

// openShell is the parked→live transition. A revival comes back in the area
// the shell parked with, one reclaim on; a shell's first open takes an area
// no other shell holds.
func (m *lifecycleModel) openShell(s *modelShell, inc incarnation) error {
	if s.open {
		return fmt.Errorf("%s opened while already open: two revivals at once", key(s.child, s.version))
	}
	if m.swapDone[key(s.child, s.version)] {
		return fmt.Errorf("%s revived after the swap that retired it returned", key(s.child, s.version))
	}
	if s.opens > 0 && (inc.area != s.inc.area || inc.gen != s.inc.gen+1) {
		return fmt.Errorf("%s revived in %s@%d, it parked in %s@%d: want the same area one generation on",
			key(s.child, s.version), inc.area.Name(), inc.gen, s.inc.area.Name(), s.inc.gen)
	}
	for _, o := range m.shells {
		// A later incarnation of an area ends every earlier one.
		if o.inc.area == inc.area && inc.gen > o.inc.gen {
			if err := m.reclaimed(o, inc); err != nil {
				return err
			}
		}
		// A shell holds its area while open, and while parked unless a swap
		// or Stop may have disposed of it.
		holds := o.open || o.opens > 0 && !m.swapBegun[key(o.child, o.version)] && !m.stopping
		if o != s && holds && o.inc.area == inc.area {
			return fmt.Errorf("%s opened in %s, which %s still holds",
				key(s.child, s.version), inc.area.Name(), key(o.child, o.version))
		}
	}
	for _, o := range m.shells {
		if o == s || !o.open || o.child != s.child {
			continue
		}
		// A second open shell under one name is legal only while it drains:
		// an older version whose swap has begun.
		if o.version >= s.version || !m.swapBegun[key(o.child, o.version)] {
			return fmt.Errorf("%s opened while %s is live: two live shells for one name",
				key(s.child, s.version), key(o.child, o.version))
		}
	}
	s.open, s.inc = true, inc
	s.opens++
	return nil
}

func (m *lifecycleModel) apply(e event) error {
	s := m.shells[e.shell]
	if e.shell != nil && s == nil && e.kind != evSetup {
		return fmt.Errorf("event %d on a shell that was never set up", e.kind)
	}
	switch e.kind {
	case evSetup:
		if s != nil {
			return fmt.Errorf("Setup re-ran on the shell of %s", key(s.child, s.version))
		}
		k := key(e.child, e.version)
		if m.setups[k]++; m.setups[k] > 1 {
			return fmt.Errorf("%s: a second shell was built beside the first", k)
		}
		m.shells[e.shell] = &modelShell{child: e.child, version: e.version}
	case evOpen:
		if err := m.reclaimed(s, e.inc); err != nil {
			return err
		}
		return m.openShell(s, e.inc)
	case evBegin:
		if !e.pinned {
			return fmt.Errorf("handler of %s entered %s@%d with no wedge holding it",
				key(s.child, s.version), e.inc.area.Name(), e.inc.gen)
		}
		if err := m.reclaimed(s, e.inc); err != nil {
			return err
		}
		if !s.open {
			// A child without a start function shows its revival only
			// through the first handler of the incarnation.
			if e.child == "Worker" {
				return fmt.Errorf("handler ran in %s while it was parked or disposed", key(s.child, s.version))
			}
			if err := m.openShell(s, e.inc); err != nil {
				return err
			}
		}
		if s.inc != e.inc {
			return fmt.Errorf("handler of %s ran in area %s@%d, the shell's incarnation is %s@%d",
				key(s.child, s.version), e.inc.area.Name(), e.inc.gen, s.inc.area.Name(), s.inc.gen)
		}
		s.handlers++
		if m.handled[e.val]++; m.handled[e.val] > 1 {
			return fmt.Errorf("message %d handled twice", e.val)
		}
		m.inside[e.val] = e.inc
		if o, busy := m.running[e.proc]; busy {
			return fmt.Errorf("handler of message %d entered call state %p (frame %d) while message %d runs on it",
				e.val, e.proc, e.frame, o.val)
		}
		m.running[e.proc] = span{e.val, e.shell, e.frame}
		if e.frame >= 0 {
			m.framed++
		}
		if err := frameHeld(s, e); err != nil {
			return err
		}
	case evEnd:
		entered := m.inside[e.val]
		delete(m.inside, e.val)
		if e.inc != entered || !e.pinned {
			return fmt.Errorf("handler of %s entered %s@%d and left it at @%d, pinned=%v: the area went from under it",
				key(s.child, s.version), entered.area.Name(), entered.gen, e.inc.gen, e.pinned)
		}
		if sp := m.running[e.proc]; sp.val != e.val {
			return fmt.Errorf("handler of message %d left call state %p, which message %d entered", e.val, e.proc, sp.val)
		}
		delete(m.running, e.proc)
		if err := frameHeld(s, e); err != nil {
			return err
		}
		if s.handlers--; s.handlers < 0 {
			return fmt.Errorf("%s: pending went negative", key(s.child, s.version))
		}
	case evSent:
		m.sent[e.val] = true
	case evSwapBegin:
		m.swapBegun[key(e.child, e.version)] = true
	case evSwapEnd:
		m.swapDone[key(e.child, e.version)] = true
		for _, sp := range m.running {
			if o := m.shells[sp.shell]; sp.frame >= 0 && o.child == e.child && o.version == e.version {
				return fmt.Errorf("%s: message %d still runs on frame %d after the swap away from it returned",
					key(o.child, o.version), sp.val, sp.frame)
			}
		}
	case evStop:
		m.stopping = true
	}
	return nil
}

// modelRig is one app under test: parent P with two Reusable pooled
// children. Worker has a start function, takes handles, and dispatches on
// pool threads; Bare is the ORB's per-request shape — no start function,
// synchronous port — so its revival is the reopen fast path.
type modelRig struct {
	app    *App
	parent *Component
	log    *eventLog

	swapMu  sync.Mutex
	version map[string]int
	nextVal atomic.Int64
}

func (r *modelRig) def(child string, version int) ChildDef {
	threading, start := ThreadingSynchronous, false
	if child == "Worker" {
		threading, start = ThreadingShared, true
	}
	return ChildDef{
		Name: child, UsePool: true, Reusable: true,
		Setup: func(c *Component) error {
			r.log.add(event{kind: evSetup, child: child, shell: c, version: version})
			if start {
				c.SetStart(func(p *Proc) error {
					r.log.add(event{kind: evOpen, child: child, shell: c, inc: incarnationOf(c.Area())})
					return nil
				})
			}
			_, err := AddInPort(c, r.parent.SMM(), InPortConfig{
				Name: "in", Type: intType, Threading: threading, MaxThreads: 4,
				BufferSize: 32, Overflow: OverflowBlock,
				Handler: HandlerFunc(func(p *Proc, m Message) error {
					// The owner is the shell the message reserved, which during
					// a swap can be the outgoing one under the incoming handler.
					owner := p.comp
					area := owner.Area()
					inc := incarnationOf(area)
					v, f := m.(*intMsg).value, frameOf(p)
					r.log.add(event{kind: evBegin, child: child, shell: owner, inc: inc, val: v, pinned: area.Pinned(),
						proc: p, frame: f, held: owner.life.Load() & frameMask})
					runtime.Gosched() // widen the window a quiesce could wrongly slip into
					r.log.add(event{kind: evEnd, child: child, shell: owner,
						inc: incarnationOf(area), val: v, pinned: area.Pinned(),
						proc: p, frame: f, held: owner.life.Load() & frameMask})
					return nil
				}),
			})
			return err
		},
	}
}

func newModelRig(t *testing.T) *modelRig {
	r := &modelRig{
		log:     &eventLog{evs: make([]event, 1<<16)},
		version: map[string]int{"Worker": 0, "Bare": 0},
	}
	r.app = newTestApp(t, AppConfig{
		ScopePools: []ScopePoolSpec{{Level: 1, AreaSize: 1 << 12, Count: modelPoolCount, Grow: true}},
	})
	var err error
	r.parent, err = r.app.NewImmortalComponent("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, child := range []string{"Worker", "Bare"} {
		if err := r.parent.DefineChild(r.def(child, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := AddOutPort(r.parent, r.parent.SMM(), OutPortConfig{
			Name: "to" + child, Type: intType, Dests: []string{child + ".in"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.app.Start(); err != nil {
		t.Fatal(err)
	}
	return r
}

const modelPoolCount = 4

func (r *modelRig) send(child string) error {
	out, err := r.parent.SMM().GetOutPort("to" + child)
	if err != nil {
		return err
	}
	var m Message
	for {
		if m, err = out.GetMessage(); err == nil {
			break
		}
		if !errors.Is(err, ErrPoolEmpty) {
			return err
		}
		time.Sleep(50 * time.Microsecond)
	}
	v := r.nextVal.Add(1)
	m.(*intMsg).value = v
	if err := out.Send(m, sched.NormPriority); err != nil {
		return err
	}
	r.log.add(event{kind: evSent, val: v})
	return nil
}

func (r *modelRig) swap(child string) error {
	r.swapMu.Lock()
	defer r.swapMu.Unlock()
	from := r.version[child]
	r.log.add(event{kind: evSwapBegin, child: child, version: from})
	_, err := r.parent.SMM().Swap(r.def(child, from+1), SwapOptions{DrainTimeout: 5 * time.Second})
	r.version[child] = from + 1
	r.log.add(event{kind: evSwapEnd, child: child, version: from})
	return err
}

// randomOp runs one operation of the mix.
func (r *modelRig) randomOp(rng *rand.Rand, swaps bool) error {
	switch n := rng.Intn(100); {
	case n < 35:
		return r.send("Worker")
	case n < 70:
		return r.send("Bare")
	case n < 88 || !swaps:
		h, err := r.parent.SMM().Connect("Worker")
		if err != nil {
			return err
		}
		if rng.Intn(2) == 0 {
			runtime.Gosched()
		}
		h.Disconnect()
		return nil
	case n < 95:
		return r.swap("Worker")
	default:
		return r.swap("Bare")
	}
}

// replay runs the recorded history through the sequential model.
func (r *modelRig) replay(t *testing.T) *lifecycleModel {
	t.Helper()
	n := int(r.log.n.Load())
	if n > len(r.log.evs) {
		t.Fatalf("history of %d events overflowed the log", n)
	}
	m := &lifecycleModel{
		shells: map[*Component]*modelShell{}, setups: map[string]int{},
		swapBegun: map[string]bool{}, swapDone: map[string]bool{},
		handled: map[int64]int{}, inside: map[int64]incarnation{}, running: map[*Proc]span{}, sent: map[int64]bool{},
	}
	for i, e := range r.log.evs[:n] {
		if err := m.apply(e); err != nil {
			t.Fatalf("event %d of %d: %v", i, n, err)
		}
	}
	return m
}

// lastReclaims infers the reclaim that ended each shell's last incarnation
// once the history is over: its area has moved past it.
func (m *lifecycleModel) lastReclaims(t *testing.T) {
	t.Helper()
	for _, s := range m.shells {
		if s.open {
			if err := m.reclaimed(s, incarnationOf(s.inc.area)); err != nil {
				t.Error(err)
			}
		}
	}
}

// atRest checks what must hold once every operation has returned and every
// message has been handled: all shells closed, counts zero, every parked
// shell holding its area with its wedge alone, and the pool's areas all
// either free or held by a parked shell.
func (r *modelRig) atRest(t *testing.T, m *lifecycleModel) {
	t.Helper()
	for v := range m.sent {
		if m.handled[v] != 1 {
			t.Errorf("message %d was sent and handled %d times", v, m.handled[v])
		}
	}
	m.lastReclaims(t)
	held := 0
	for c, s := range m.shells {
		if s.open || s.opens != s.reclaims {
			t.Errorf("%s: %d opens, %d reclaims, open=%v at rest", key(s.child, s.version), s.opens, s.reclaims, s.open)
		}
		w := c.life.Load()
		if w&(countMask|frameMask) != 0 || w&lifeDisposed == 0 {
			t.Errorf("%s: life word %#x at rest, want disposed with zero counts", key(s.child, s.version), w)
		}
		current := s.version == r.version[s.child]
		parked := w&(lifeParked|lifeRetired) == lifeParked
		if parked != current && !m.stopping {
			t.Errorf("%s: life word %#x, parked=%v but current=%v", key(s.child, s.version), w, parked, current)
		}
		if parked {
			held++
			if st := stateOf(c.Area()); c.wedge.Area() != c.Area() || st.entrants != 0 || st.wedges != 1 || st.gen != s.inc.gen+1 {
				t.Errorf("%s parked in %v, its wedge holding %v: want its own wedge alone", key(s.child, s.version), c.Area(), c.wedge.Area())
			}
		}
	}
	if w := r.parent.life.Load(); w&countMask != 0 {
		t.Errorf("parent life word %#x at rest, want zero counts", w)
	}
	created, reused, free := r.app.ScopePool(1).Stats()
	if int64(free+held) != created {
		t.Errorf("scope pool at rest: %d areas free and %d held by parked shells, %d created", free, held, created)
	}
	// Only building a shell takes an area; a revival reuses its own.
	if acquires := reused + created - modelPoolCount; acquires != int64(len(m.shells)) {
		t.Errorf("scope pool served %d acquires for %d shells built", acquires, len(m.shells))
	}
}

// areaState is what an area's String form shows.
type areaState struct {
	used, capacity int64
	level          int
	entrants       int
	wedges         int
	gen            uint64
}

// stateOf reads an area's bytes, holders and reuse generation off its
// String form.
func stateOf(a *memory.Area) (st areaState) {
	s := a.String()
	var kind string
	if _, err := fmt.Sscanf(s[strings.LastIndex(s, "(")+1:], "%s %d/%d bytes, level %d, entrants %d, wedges %d, generation %d)",
		&kind, &st.used, &st.capacity, &st.level, &st.entrants, &st.wedges, &st.gen); err != nil {
		panic(fmt.Sprintf("%q: %v", s, err))
	}
	return st
}

// incarnationOf names the area's current incarnation.
func incarnationOf(a *memory.Area) incarnation { return incarnation{a, stateOf(a).gen} }

// settle waits for the assembly to come to rest: Drain for every delivery
// the senders queued, then the parent's child count for the last close to
// have parked or disposed its shell.
func (r *modelRig) settle(t *testing.T) {
	t.Helper()
	if err := r.app.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	p := r.parent
	if !p.changed.Wait(func() bool { return p.life.Load()&countMask < childOne }, time.Now().Add(5*time.Second)) {
		t.Fatalf("parent life word %#x: a child never finished closing", p.life.Load())
	}
}

// storm runs the operation mix from several goroutines. With stopping set
// (the App.Stop race) the first error ends a goroutine quietly: a send then
// fails with ErrStopped or on a port pool already shut down.
func (r *modelRig) storm(t *testing.T, seed int64, goroutines, ops int, swaps, stopping bool) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(g)))
			for i := 0; i < ops; i++ {
				if err := r.randomOp(rng, swaps); err != nil {
					if !stopping {
						errs <- err
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLifecycleModelRandomHistories checks seeded concurrent histories
// against the sequential model at GOMAXPROCS 1, 2 and 4 (2 is where the
// PR 12 quiesce/instantiate wedge showed). Phase one mixes sends, handles
// and swaps and must come to rest balanced; phase two races the same mix
// against App.Stop, where forceDispose meets the quiescence winner.
func TestLifecycleModelRandomHistories(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		for _, seed := range []int64{1, 2, 3} {
			procs, seed := procs, seed
			t.Run(fmt.Sprintf("procs=%d/seed=%d", procs, seed), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				r := newModelRig(t)
				// A send into Bare held live by a handle runs on a call frame
				// whatever the storm's interleaving, so the frame rules always
				// have a span to check.
				h, err := r.parent.SMM().Connect("Bare")
				if err != nil {
					t.Fatal(err)
				}
				if err := r.send("Bare"); err != nil {
					t.Fatal(err)
				}
				h.Disconnect()
				r.storm(t, seed, 4, 150, true, false)
				r.settle(t)
				m := r.replay(t)
				r.atRest(t, m)
				if m.framed == 0 {
					t.Error("no handler ran on a call frame: the frame rules went unchecked")
				}
				if n, err := r.app.Errors(); n != 0 {
					t.Errorf("handler errors: %d (%v)", n, err)
				}
				// The ports must name the one live shell.
				h, err = r.parent.SMM().Connect("Worker")
				if err != nil {
					t.Fatal(err)
				}
				if owner, _ := r.parent.SMM().inPort("Worker.in").binding(); owner != h.Component() {
					t.Errorf("Worker.in is bound to %p, the live shell is %p", owner, h.Component())
				}
				h.Disconnect()

				stopped := make(chan struct{})
				go func() {
					defer close(stopped)
					time.Sleep(time.Duration(seed) * 300 * time.Microsecond)
					r.log.add(event{kind: evStop})
					r.app.Stop()
				}()
				r.storm(t, seed+100, 4, 1<<20, false, true)
				<-stopped
				m = r.replay(t)
				m.lastReclaims(t)
				for c, s := range m.shells {
					if !c.Disposed() || s.open {
						t.Errorf("%s survived Stop (open=%v, life %#x)", key(s.child, s.version), s.open, c.life.Load())
					}
				}
				if created, _, free := r.app.ScopePool(1).Stats(); int64(free) != created {
					t.Errorf("scope pool after Stop: %d of %d areas free", free, created)
				}
			})
		}
	}
}

// TestReviveQuiesceLockBudget pins the cost of a pooled Reusable child's
// revive→quiesce cycle. Every SMM and app mutex is held by the test while
// the cycles run — through a real Send on a synchronous port, and through
// reserve/release directly — so the cycle takes none of them; it allocates
// nothing; and it touches the scope pool not at all: the shell keeps its
// area, and its one remaining mutex acquisition is the area lock of the
// in-place reclaim (Wedge.Reclaim), which moves the generation by one.
func TestReviveQuiesceLockBudget(t *testing.T) {
	app := newTestApp(t, AppConfig{
		ScopePools: []ScopePoolSpec{{Level: 1, AreaSize: 1 << 12, Count: 2}},
	})
	handled := 0
	parent, err := app.NewImmortalComponent("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	smm := parent.SMM()
	if err := parent.DefineChild(ChildDef{
		Name: "Bare", UsePool: true, Reusable: true,
		Setup: func(c *Component) error {
			_, err := AddInPort(c, smm, InPortConfig{
				Name: "in", Type: intType, Threading: ThreadingSynchronous,
				Handler: HandlerFunc(func(*Proc, Message) error { handled++; return nil }),
			})
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
	out, err := AddOutPort(parent, smm, OutPortConfig{Name: "out", Type: intType, Dests: []string{"Bare.in"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	send := func() {
		m, err := out.GetMessage()
		if err == nil {
			err = out.Send(m, sched.NormPriority)
		}
		if err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 8; i++ { // build the shell, warm routes and pools
		send()
	}
	shell := smm.shell("Bare")
	parked := lifeDisposed | lifeParked | lifeAuto
	cycle := func() {
		if _, err := shell.reserve(false); err != nil {
			t.Error(err)
		}
		if shell.Disposed() {
			t.Error("shell not live after reserve")
		}
		shell.release(pendingOne, 0)
		if w := shell.life.Load(); w != parked {
			t.Errorf("life word %#x after the last release, want parked %#x", w, parked)
		}
	}

	const cycles = 100
	pool := app.ScopePool(1)
	_, reusedBefore, _ := pool.Stats()
	area := shell.Area()
	gen := stateOf(area).gen
	app.mu.Lock()
	smm.mu.Lock()
	smm.instMu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < cycles/2; i++ {
			send()
			cycle()
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("a revive→quiesce cycle blocked on an SMM or app mutex")
	}
	smm.instMu.Unlock()
	smm.mu.Unlock()
	app.mu.Unlock()
	<-done

	created, reused, free := pool.Stats()
	if reused != reusedBefore || created != 2 || free != 1 {
		t.Errorf("pool after %d cycles: %d acquires, %d created, %d free; want none, the shell holding one area of two",
			cycles, reused-reusedBefore, created, free)
	}
	if shell.Area() != area {
		t.Errorf("the shell moved from %v to %v", area, shell.Area())
	}
	if g := stateOf(area).gen - gen; g != cycles {
		t.Errorf("area reclaimed %d times over %d cycles, want one reclaim per quiesce", g, cycles)
	}
	// (The whole send is pinned at 0 allocs/op by the repo-level
	// TestSteadyStateRoundTripAllocFree/Wire; its sync.Pools make that a
	// non-race check, while the bare cycle has none.)
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("revive→quiesce cycle allocates %.1f objects, want 0", allocs)
	}
}
