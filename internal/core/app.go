package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/memory"
)

// AppConfig parameterises an App. It corresponds to the CCL
// <RTSJAttributes> section plus framework-wide defaults.
type AppConfig struct {
	// Name is the application name (CCL <ApplicationName>).
	Name string
	// ImmortalSize is the immortal memory budget in bytes
	// (CCL <ImmortalSize>); zero selects the model default.
	ImmortalSize int64
	// ScopePools pre-creates pools of scoped areas per nesting level
	// (CCL <ScopedPool>). Components whose definition names a pooled level
	// acquire their area from the pool instead of creating a fresh one.
	ScopePools []ScopePoolSpec
	// MsgPoolCapacity is the number of pooled instances per message type
	// per SMM; zero selects DefaultMsgPoolCapacity.
	MsgPoolCapacity int
}

// ScopePoolSpec describes one CCL <ScopedPool> entry.
type ScopePoolSpec struct {
	// Level is the scope nesting level the pool serves (1 = children of
	// immortal components).
	Level int
	// AreaSize is the byte budget of each pooled area (CCL <ScopeSize>).
	AreaSize int64
	// Count is the number of pre-created areas (CCL <PoolSize>).
	Count int
	// Grow permits creating extra areas past Count on demand.
	Grow bool
}

// DefaultMsgPoolCapacity is the per-type message pool capacity used when
// AppConfig.MsgPoolCapacity is zero.
const DefaultMsgPoolCapacity = 32

// Byte charges for framework structures, so that area budgets in CCL files
// are meaningful and exhaustion behaves like the RTSJ.
const (
	componentHeaderBytes = 128
	portHeaderBytes      = 64
	bufferSlotBytes      = 16
)

// App is one Compadres application: a memory model, scope pools, and a tree
// of components rooted at immortal top-level components.
type App struct {
	name   string
	model  *memory.Model
	pools  map[int]*memory.ScopePool // written only by NewApp
	msgCap int

	mu       sync.Mutex
	top      []*Component
	topNames map[string]*Component
	started  bool
	stopped  bool
	errCount int64
	lastErr  error

	// calls recycles callStates — a no-heap memory context and the state of
	// one handler invocation — across Exec calls and deliveries, so the
	// steady-state delivery path allocates neither a context (and its scope
	// stack) nor a Proc per message.
	calls sync.Pool
}

// getCall takes a recycled callState, its context's scope stack at immortal.
func (a *App) getCall() *callState {
	return a.calls.Get().(*callState)
}

// putCall recycles a callState whose context's scope stack is back at its
// base; one left unbalanced (a panic unwound past Exec) is dropped.
func (a *App) putCall(cs *callState) {
	if cs.ctx.Depth() == 1 {
		a.calls.Put(cs)
	}
}

// NewApp creates an application per cfg.
func NewApp(cfg AppConfig) (*App, error) {
	model := memory.NewModel(memory.Config{ImmortalSize: cfg.ImmortalSize})
	msgCap := cfg.MsgPoolCapacity
	if msgCap == 0 {
		msgCap = DefaultMsgPoolCapacity
	}
	a := &App{
		name:     cfg.Name,
		model:    model,
		msgCap:   msgCap,
		topNames: make(map[string]*Component),
		pools:    make(map[int]*memory.ScopePool),
	}
	a.calls.New = func() any { return newCallState(a.model.NewNoHeapContext()) }
	for _, spec := range cfg.ScopePools {
		if spec.Level < 1 {
			return nil, fmt.Errorf("core: scope pool level %d: levels start at 1", spec.Level)
		}
		if _, dup := a.pools[spec.Level]; dup {
			return nil, fmt.Errorf("%w: scope pool for level %d", ErrDuplicateName, spec.Level)
		}
		p, err := model.NewScopePool(memory.ScopePoolConfig{
			Name:     fmt.Sprintf("%s.level%d", cfg.Name, spec.Level),
			AreaSize: spec.AreaSize,
			Count:    spec.Count,
			Grow:     spec.Grow,
		})
		if err != nil {
			return nil, err
		}
		a.pools[spec.Level] = p
	}
	return a, nil
}

// Model returns the application's memory model.
func (a *App) Model() *memory.Model { return a.model }

// ScopePool returns the pool configured for the given level, or nil. The
// table is fixed by NewApp, so reading it takes no lock.
func (a *App) ScopePool(level int) *memory.ScopePool { return a.pools[level] }

// NewImmortalComponent creates a top-level component in immortal memory.
// setup (which may be nil) adds the component's ports, child definitions,
// and start function; it runs with the component's execution context.
func (a *App) NewImmortalComponent(name string, setup func(*Component) error) (*Component, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return nil, ErrStopped
	}
	if _, dup := a.topNames[name]; dup {
		a.mu.Unlock()
		return nil, fmt.Errorf("%w: component %q", ErrDuplicateName, name)
	}
	c := &Component{
		app:  a,
		name: name,
		area: a.model.Immortal(),
	}
	a.top = append(a.top, c)
	a.topNames[name] = c
	a.mu.Unlock()

	// Charge the component header to immortal memory.
	ctx := a.model.NewNoHeapContext()
	if _, err := ctx.AllocIn(c.area, componentHeaderBytes); err != nil {
		return nil, fmt.Errorf("component %q: %w", name, err)
	}
	if setup != nil {
		if err := setup(c); err != nil {
			return nil, fmt.Errorf("component %q setup: %w", name, err)
		}
	}
	return c, nil
}

// Component returns the top-level component with the given name, or nil.
func (a *App) Component(name string) *Component {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.topNames[name]
}

// Start runs the start function of every top-level component in creation
// order. Children run their start functions when instantiated.
func (a *App) Start() error {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return ErrStopped
	}
	if a.started {
		a.mu.Unlock()
		return nil
	}
	a.started = true
	top := make([]*Component, len(a.top))
	copy(top, a.top)
	a.mu.Unlock()

	for _, c := range top {
		if err := c.runStart(); err != nil {
			return fmt.Errorf("start %q: %w", c.name, err)
		}
	}
	return nil
}

// Stop shuts the application down: new sends are rejected, port thread
// pools are drained and stopped, and live children are disposed bottom-up.
// Stop is idempotent.
func (a *App) Stop() {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	a.stopped = true
	top := make([]*Component, len(a.top))
	copy(top, a.top)
	a.mu.Unlock()

	for _, c := range top {
		c.shutdown()
	}
}

// Errors reports the number of asynchronous handler errors observed and the
// most recent one.
func (a *App) Errors() (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.errCount, a.lastErr
}

// reportError records an asynchronous handler error (see Errors).
func (a *App) reportError(err error) {
	if err == nil {
		return
	}
	a.mu.Lock()
	a.errCount++
	a.lastErr = err
	a.mu.Unlock()
}

// checkName rejects empty names and names containing the qualifier
// separator.
func checkName(name string) error {
	if name == "" || strings.Contains(name, ".") {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}
