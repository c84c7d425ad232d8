// Package rtzen is the hand-coded baseline ORB the paper compares the
// Compadres ORB against (§3.3): RTZen-style, highly predictable RT-CORBA
// middleware whose scoped-memory management is written by hand rather than
// generated by a component framework.
//
// It shares the GIOP codec (internal/giop), networks (internal/transport),
// servants (internal/corba), and the simulated RTSJ memory substrate
// (internal/memory) with the Compadres ORB — but there are no components,
// ports, SMMs, message pools, or thread-pool dispatches in the invocation
// path. The client enters a pooled request scope, marshals, exchanges, and
// demarshals inline; the server does the same per request on the
// connection's reader thread. The delta against internal/orb is therefore
// exactly the component framework's overhead, which is what Fig. 11
// measures.
package rtzen

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/corba"
	"repro/internal/giop"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Flight-recorder labels for the hand-coded ORB's spans, kept distinct from
// the component ORB's so mixed-process traces stay attributable.
var (
	rtzenClientSpanLabel = telemetry.Label("rtzen.client.invoke")
	rtzenServerSpanLabel = telemetry.Label("rtzen.server.request")
)

// Each end pre-creates defaultScopePool request scopes of scopeSize bytes,
// room for a message body at the limit several times over, and grows the
// pool past them on demand (RTZen always pools).
const (
	defaultScopePool = 4
	scopeSize        = 4*giop.DefaultMaxMessage + 4096
)

// ClientConfig parameterises an RTZen client.
type ClientConfig struct {
	// Network and Addr locate the server.
	Network transport.Network
	Addr    string
}

// Client is the hand-coded ORB client. It marshals big-endian and stamps no
// tenant: the baseline measures the invocation path, not overload control.
type Client struct {
	pool *memory.ScopePool

	// ctxPool recycles no-heap contexts across Invoke calls.
	ctxPool sync.Pool

	mu     sync.Mutex // serialises the request/reply exchange
	conn   transport.Conn
	fr     *giop.FrameReader // persistent reply reader, guarded by mu
	nextID uint32
	keyBuf []byte // reused object-key scratch, guarded by mu
	closed atomic.Bool
}

// DialClient connects a hand-coded client. Unlike the Compadres client it
// dials eagerly: there is no component instantiation to defer to.
func DialClient(cfg ClientConfig) (*Client, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("rtzen: nil network")
	}
	model := memory.NewModel(memory.Config{})
	pool, err := model.NewScopePool(memory.ScopePoolConfig{
		Name:     "rtzen.client.request",
		AreaSize: scopeSize,
		Count:    defaultScopePool,
		Grow:     true,
	})
	if err != nil {
		return nil, err
	}
	conn, err := cfg.Network.Dial(cfg.Addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		pool: pool,
		conn: conn,
		fr:   giop.NewFrameReader(conn, giop.DefaultMaxMessage),
	}
	c.ctxPool.New = func() any { return model.NewNoHeapContext() }
	return c, nil
}

// Invoke performs one synchronous request/reply. The whole exchange runs in
// a scoped memory area drawn from the request pool and reclaimed on return
// — the hand-coded pattern RTZen uses for its transport/processing scopes.
func (c *Client) Invoke(key, op string, payload []byte, prio sched.Priority) ([]byte, error) {
	if c.closed.Load() {
		return nil, corba.ErrClosed
	}
	area, err := c.pool.Acquire()
	if err != nil {
		return nil, err
	}
	ctx := c.ctxPool.Get().(*memory.Context)
	var out []byte
	err = ctx.Enter(area, func(ic *memory.Context) error {
		var ierr error
		out, ierr = c.exchange(ic, key, op, payload, prio)
		return ierr
	})
	c.ctxPool.Put(ctx)
	return out, err
}

func (c *Client) exchange(ctx *memory.Context, key, op string, payload []byte, prio sched.Priority) ([]byte, error) {
	wireCap := giop.HeaderSize + 96 + len(key) + len(op) + len(payload)
	wireRef, err := ctx.Alloc(wireCap)
	if err != nil {
		return nil, fmt.Errorf("rtzen client: marshal buffer: %w", err)
	}
	wireBuf, err := wireRef.Bytes()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, corba.ErrClosed
	}
	c.nextID++
	id := c.nextID
	c.keyBuf = append(c.keyBuf[:0], key...)

	// Same trace propagation as the component ORB, under the same verbose
	// gate: open a trace, carry it as a GIOP service context, and stitch the
	// reply's server span in.
	var trace, span uint64
	var spanStart int64
	if telemetry.VerboseEnabled() {
		trace, span = telemetry.NewID(), telemetry.NewID()
		telemetry.Record(telemetry.EvSpanStart, rtzenClientSpanLabel, trace, span, uint64(id))
		spanStart = telemetry.Now()
		defer func() {
			telemetry.Record(telemetry.EvSpanEnd, rtzenClientSpanLabel, trace, span, uint64(telemetry.Now()-spanStart))
		}()
	}

	wire := giop.MarshalRequest(wireBuf[:0], giop.BigEndian, &giop.Request{
		RequestID:        id,
		ResponseExpected: true,
		ObjectKey:        c.keyBuf,
		Operation:        op,
		Priority:         byte(prio),
		TraceID:          trace,
		SpanID:           span,
		Payload:          payload,
	})
	if _, err := c.conn.Write(wire); err != nil {
		return nil, fmt.Errorf("rtzen client: write: %w", err)
	}
	// The persistent FrameReader owns the reply scratch; the body aliases it
	// and stays valid until the next exchange, which c.mu serialises. The
	// reply payload is copied into the caller's scope before return.
	h, body, err := c.fr.Next()
	if err != nil {
		if err == io.EOF {
			err = corba.ErrClosed
		}
		return nil, fmt.Errorf("rtzen client: read: %w", err)
	}
	if h.Type != giop.MsgReply {
		return nil, fmt.Errorf("rtzen client: unexpected %v message", h.Type)
	}
	var rep giop.Reply
	if err := giop.DecodeReply(h.Order, body, &rep); err != nil {
		return nil, err
	}
	if rep.RequestID != id {
		return nil, fmt.Errorf("rtzen client: reply id %d for request %d", rep.RequestID, id)
	}
	switch rep.Status {
	case giop.ReplyNoException:
		out := make([]byte, len(rep.Payload))
		copy(out, rep.Payload)
		return out, nil
	case giop.ReplyUserException:
		return nil, fmt.Errorf("%w: %s", corba.ErrUserException, rep.Payload)
	default:
		return nil, fmt.Errorf("%w: %s", corba.ErrSystemException, rep.Payload)
	}
}

// Close shuts the client down.
func (c *Client) Close() {
	if c.closed.Swap(true) {
		return
	}
	c.mu.Lock()
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	c.mu.Unlock()
}

// ServerConfig parameterises an RTZen server.
type ServerConfig struct {
	// Network and Addr select where to listen.
	Network transport.Network
	Addr    string
}

// Server is the hand-coded ORB server: an accept loop, one reader thread
// per connection, and a pooled request scope entered per request.
type Server struct {
	model *memory.Model
	pool  *memory.ScopePool
	ln    transport.Listener

	// servants is copy-on-write (see orb.Server): per-request lookups read
	// a plain map through one atomic load, keyed by raw ObjectKey bytes.
	servants atomic.Pointer[map[string]corba.Servant]

	mu     sync.Mutex
	conns  []transport.Conn
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewServer binds the listener and prepares the scope pool.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("rtzen: nil network")
	}
	model := memory.NewModel(memory.Config{})
	pool, err := model.NewScopePool(memory.ScopePoolConfig{
		Name:     "rtzen.server.request",
		AreaSize: scopeSize,
		Count:    defaultScopePool,
		Grow:     true,
	})
	if err != nil {
		return nil, err
	}
	ln, err := cfg.Network.Listen(cfg.Addr)
	if err != nil {
		return nil, err
	}
	return &Server{model: model, pool: pool, ln: ln}, nil
}

// RegisterServant binds a servant to an object key.
func (s *Server) RegisterServant(key string, sv corba.Servant) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var old map[string]corba.Servant
	if p := s.servants.Load(); p != nil {
		old = *p
	}
	m := make(map[string]corba.Servant, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[key] = sv
	s.servants.Store(&m)
}

// servant resolves an object key without copying it to a string on the heap.
func (s *Server) servant(key []byte) (corba.Servant, bool) {
	p := s.servants.Load()
	if p == nil {
		return nil, false
	}
	sv, ok := (*p)[string(key)]
	return sv, ok
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr() }

// ServeBackground starts the accept loop.
func (s *Server) ServeBackground() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := s.ln.Accept()
			if err != nil {
				return
			}
			if s.closed.Load() {
				conn.Close()
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
			}()
		}
	}()
}

// serveConn reads framed requests and processes each inside a pooled scope.
func (s *Server) serveConn(conn transport.Conn) {
	defer conn.Close()
	fr := giop.NewFrameReader(conn, giop.DefaultMaxMessage)
	defer fr.Close()
	ctx := s.model.NewNoHeapContext()
	var wmu sync.Mutex
	for {
		h, body, err := fr.Next()
		if err != nil {
			return
		}
		if h.Type != giop.MsgRequest {
			switch h.Type {
			case giop.MsgCloseConnection:
				return
			case giop.MsgLocateRequest:
				var req giop.LocateRequest
				if err := giop.DecodeLocateRequest(h.Order, body, &req); err != nil {
					return
				}
				status := giop.LocateUnknownObject
				if _, ok := s.servant(req.ObjectKey); ok {
					status = giop.LocateObjectHere
				}
				wb := giop.GetBuffer()
				wb.B = giop.MarshalLocateReply(wb.B, h.Order, &giop.LocateReply{
					RequestID: req.RequestID, Status: status,
				})
				wmu.Lock()
				_, werr := conn.Write(wb.B)
				wmu.Unlock()
				giop.PutBuffer(wb)
				if werr != nil {
					return
				}
			}
			continue
		}
		area, err := s.pool.Acquire()
		if err != nil {
			return
		}
		err = ctx.Enter(area, func(ic *memory.Context) error {
			return s.processRequest(ic, conn, &wmu, h.Order, body)
		})
		if err != nil {
			return
		}
	}
}

func (s *Server) processRequest(ctx *memory.Context, conn transport.Conn, wmu *sync.Mutex, order giop.ByteOrder, body []byte) error {
	var req giop.Request
	if err := giop.DecodeRequest(order, body, &req); err != nil {
		return err
	}
	var serverSpan uint64
	var spanStart int64
	if req.TraceID != 0 && telemetry.VerboseEnabled() {
		serverSpan = telemetry.NewID()
		telemetry.Record(telemetry.EvSpanStart, rtzenServerSpanLabel, req.TraceID, serverSpan, uint64(req.RequestID))
		spanStart = telemetry.Now()
		defer func() {
			telemetry.Record(telemetry.EvSpanEnd, rtzenServerSpanLabel, req.TraceID, serverSpan, uint64(telemetry.Now()-spanStart))
		}()
	}
	var (
		status  giop.ReplyStatus
		payload []byte
	)
	sv, ok := s.servant(req.ObjectKey)
	if !ok {
		status = giop.ReplySystemException
		payload = []byte(corba.ErrNoServant.Error())
	} else {
		out, err := invokeServant(sv, &req)
		if err != nil {
			status = giop.ReplyUserException
			payload = []byte(err.Error())
		} else {
			payload = out
		}
	}
	if !req.ResponseExpected {
		return nil
	}
	ref, err := ctx.Alloc(giop.HeaderSize + 48 + len(payload))
	if err != nil {
		return err
	}
	buf, err := ref.Bytes()
	if err != nil {
		return err
	}
	wire := giop.MarshalReply(buf[:0], order, &giop.Reply{
		RequestID: req.RequestID,
		Status:    status,
		TraceID:   req.TraceID,
		SpanID:    serverSpan,
		Payload:   payload,
	})
	wmu.Lock()
	defer wmu.Unlock()
	_, err = conn.Write(wire)
	return err
}

// invokeServant dispatches to the priority-aware interface when the servant
// provides it.
func invokeServant(sv corba.Servant, req *giop.Request) ([]byte, error) {
	if ps, ok := sv.(corba.PrioritizedServant); ok {
		return ps.InvokeWithPriority(req.Operation, req.Payload, req.Priority)
	}
	return sv.Invoke(req.Operation, req.Payload)
}

// Close shuts the server down.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	_ = s.ln.Close()
	s.mu.Lock()
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}
