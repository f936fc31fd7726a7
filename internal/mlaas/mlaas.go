// Package mlaas implements the machine-learning-as-a-service deployment of
// §I over a real transport: the client packs and encrypts its image locally
// and ships ciphertexts to the server; the server — holding only the model
// weights and the public evaluation keys, never the secret key — evaluates
// the HE-CNN homomorphically and returns the encrypted logits; only the
// client can decrypt. The wire volume it reports is the concrete form of
// the paper's "5-6 orders of magnitude" ciphertext expansion.
//
// Protocol (all little-endian, length-delimited):
//
//	request:  the request header (header.go: optional trace, route, crc
//	          and batch prefixes, then a uint32 ciphertext count), then
//	          that many serialized ciphertexts
//	response: status byte (see Status), then the result (StatusOK) or a
//	          uint32-length error string (any other status)
//
// A per-request result is one ciphertext. A batched request (Config.Batch)
// ships one single-slot ciphertext per tensor position under the
// batch-ring parameters, and its result is a uint32 slot index, a uint32
// logit-ciphertext count and the shared logit ciphertexts; the client
// decrypts only its own slot. A CRC-framed success response ends with the
// trailer of frame.go.
//
// The serving layer is production-shaped: per-connection I/O deadlines and
// a total request budget, admission scheduling (MaxConcurrent evaluation
// slots fronted by an optional bounded FIFO queue — Config.QueueDepth —
// where requests wait out bursts up to their budget before StatusBusy;
// the default remains fail-fast), per-request panic isolation (a malformed ciphertext
// that blows up deep in the evaluator kills one request, not the
// process), typed wire statuses, and Shutdown(ctx) that drains in-flight
// inferences while refusing new ones with StatusShuttingDown. The client
// side mirrors it: Infer honors a context, and InferRetry adds capped
// exponential backoff with deterministic jitter for retryable failures.
// internal/faultnet drives every one of these paths in the test suite.
//
// Evaluation parallelism: the server owns one shared worker pool
// (Config.Workers) attached to the parameters' ring. Concurrent requests
// and each request's internal limb/digit/rotation fan-out draw from that
// single budget with non-blocking, work-conserving dispatch, and parallel
// evaluation is bit-exact with serial — responses never depend on the
// worker count.
package mlaas

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/parallel"
	"fxhenn/internal/registry"
	"fxhenn/internal/telemetry"
)

// maxRequestCiphertexts bounds a request so a malicious client cannot force
// unbounded allocation.
const maxRequestCiphertexts = 4096

// maxErrorMessageBytes caps the error string on the wire in both
// directions: the server truncates before writing, the client refuses to
// read more.
const maxErrorMessageBytes = 64 << 10

// ErrServerClosed is returned by Serve after Shutdown stops the listener.
var ErrServerClosed = errors.New("mlaas: server closed")

// Config bounds a Server's resource usage. The zero value takes every
// default.
type Config struct {
	// MaxConcurrent caps simultaneous evaluations; requests beyond it are
	// refused immediately with StatusBusy. Default 4.
	MaxConcurrent int
	// QueueDepth bounds the admission queue in front of the evaluation
	// slots. 0 (the default) keeps the fail-fast behaviour: any request
	// beyond MaxConcurrent is refused immediately with StatusBusy. With a
	// queue, up to QueueDepth requests wait for a slot — in arrival order,
	// up to their RequestBudget — before being refused; the wait is
	// reported in the queue phase histogram, MetricQueueWait, and counted
	// against the request's budget.
	QueueDepth int
	// CacheBytes bounds the server's encoded-plaintext cache (the
	// hecnn.CompiledNetwork behind steady-state zero-encode inference).
	// 0 (the default) auto-sizes from the compiled operand set
	// (hecnn.AutoPlaintextCacheBytes): the stock default when the warm
	// set fits it, the measured set plus headroom when it doesn't — BSGS
	// networks outgrow the fixed default and would thrash. A negative
	// value disables the cache entirely and every request re-encodes its
	// weight plaintexts, as before PR4.
	CacheBytes int64
	// IOTimeout is the rolling per-read/per-write deadline on a
	// connection. Default 30s.
	IOTimeout time.Duration
	// RequestBudget is the absolute wall-clock budget for one exchange,
	// admission to final byte. Default 2m.
	RequestBudget time.Duration
	// Workers sizes the shared evaluation worker pool attached to the
	// parameters' ring: 0 (the default) uses GOMAXPROCS workers, 1 forces
	// fully serial evaluation, n > 1 uses exactly n. All concurrent
	// requests draw from this one pool, so intra-request (limb/digit/
	// rotation) and inter-request parallelism share a single budget: pool
	// dispatch is non-blocking and a request whose fan-out finds every
	// worker busy simply computes on its own goroutine, which keeps
	// scheduling fair and work-conserving under load. Parallel evaluation
	// is bit-exact with serial evaluation.
	Workers int

	// ShedEWMA enables deadline-aware load shedding (shed.go): the value
	// is the smoothing factor α ∈ (0,1] of an EWMA over observed
	// evaluation latency, and a request whose projected completion (load
	// ahead × EWMA ÷ slots, plus its own evaluation) already misses its
	// budget is refused at the door with StatusBusy and a retry-after
	// hint instead of timing out in the queue. 0 (the default) disables
	// shedding and keeps busy messages hint-free.
	ShedEWMA float64

	// Batch, when non-nil, enables cross-request batched serving: batched
	// requests park in a scheduler that coalesces them into one
	// position-major BatchedNetwork evaluation per flush (see batch.go).
	// Per-request LoLa traffic is unaffected.
	Batch *BatchConfig

	// Registry, when non-nil, enables multi-tenant serving (tenant.go):
	// requests carrying a route prefix (header.go) resolve through it to
	// a per-tenant runtime — parameters, keys, compiled network, quota,
	// batch domain — materialized by Models and cached keyed by the
	// record's generation. Unrouted requests keep using the server's own
	// single-tenant network, so a multi-tenant server still serves legacy
	// clients. Requires Models.
	Registry *registry.Registry
	// Models materializes a registry record into serving material; see
	// ModelBuilder. Required when Registry is set.
	Models ModelBuilder

	// Metrics, when non-nil, receives the server's telemetry: request
	// counters by status, phase/request latency histograms, the in-flight
	// gauge, and per-layer evaluate breakdowns (see the Metric* names in
	// telemetry.go). Nil exports nothing and adds no request-path work
	// beyond the per-status counters that back Stats.
	Metrics *telemetry.Registry
	// Flight, when non-nil, receives the server's tail-sampled request
	// traces: every error/slow/shed/degraded request is kept, healthy
	// traffic is sampled, and each kept trace carries the full
	// queue/decode/validate/evaluate/encode span tree (per-layer spans
	// included) under the client's wire-propagated trace ID. Nil disables
	// tracing with zero added work — and unchanged wire bytes — on the
	// request path.
	Flight *telemetry.FlightRecorder
	// SlowRequestThreshold gates the slow-request log: an exchange whose
	// total time reaches it is logged with its per-phase and per-layer
	// span breakdown. Zero disables the log.
	SlowRequestThreshold time.Duration
	// SlowRequestLog receives slow-request lines. Defaults to os.Stderr
	// when SlowRequestThreshold is set.
	SlowRequestLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 30 * time.Second
	}
	if c.RequestBudget <= 0 {
		c.RequestBudget = 2 * time.Minute
	}
	if c.SlowRequestThreshold > 0 && c.SlowRequestLog == nil {
		c.SlowRequestLog = os.Stderr
	}
	return c
}

// Stats is a snapshot of a Server's request counters. Every field but
// Dropped is a sum of the per-status exchange counters exported as
// MetricRequestsTotal{status}:
//
//	Served      = ok
//	BadRequests = bad-request + unknown-tenant
//	Rejected    = busy + shutting-down (drain, shed, admission queue,
//	              tenant quota, and batch-budget refusals alike)
//	Panics      = internal
//
// Each counter moves once per exchange, before the first response byte
// is written, so a client holding its answer always finds it counted.
// Servers sharing one Config.Metrics registry share those counters.
type Stats struct {
	Served      int // completed inferences
	BadRequests int // protocol or data errors reported to clients
	Rejected    int // refused with StatusBusy or StatusShuttingDown
	Panics      int // evaluation panics recovered into StatusInternal
	Dropped     int // in-flight requests cut off by a forced shutdown
}

// Server evaluates encrypted inferences. It holds the compiled network,
// the model weights (inside the network), and the evaluation keys — but no
// secret key.
type Server struct {
	params ckks.Parameters
	net    *hecnn.Network
	ctx    *hecnn.Context
	cfg    Config
	adm    *admitter
	shed   *shedder // nil unless Config.ShedEWMA > 0
	pool   *parallel.Pool
	// compiled is the warmed serve-path cache of encoded weight
	// plaintexts; nil when Config.CacheBytes < 0, in which case every
	// request re-encodes through a plain crypto backend.
	compiled *hecnn.CompiledNetwork
	// Batched serving (nil unless Config.Batch is set): the batch-ring
	// evaluation context and the scheduler coalescing batched requests.
	bparams ckks.Parameters
	bat     *batcher
	// Multi-tenant serving (nil unless Config.Registry is set): routed
	// requests resolve through the registry to per-tenant runtimes. defRT
	// is the single-tenant default runtime every unrouted request uses.
	tenants *tenantSet
	defRT   *tenantRuntime

	// requests counts exchanges by status — the MetricRequestsTotal
	// family of Config.Metrics, or unexported zero-value counters without
	// one — and backs Stats. met is nil when Config.Metrics is nil; reqSeq
	// tags every exchange with a monotonically increasing id that appears
	// in failure messages and the slow-request log, correlating
	// client-observed errors with server telemetry.
	requests *statusCounters
	met      *serverMetrics
	flight   *telemetry.FlightRecorder
	reqSeq   atomic.Uint64
	slowMu   sync.Mutex
	slowLog  io.Writer

	mu        sync.Mutex
	dropped   int
	inflight  int
	draining  bool
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	drained   chan struct{}
	drainOnce sync.Once

	// testEvalHook, when set, runs after request validation and before
	// evaluation — the seam the fault suite uses to force deep panics and
	// slow requests deterministically.
	testEvalHook func()
}

// NewServer builds a server with default limits from the compiled network
// and the client's published evaluation keys.
func NewServer(params ckks.Parameters, henet *hecnn.Network, rlk *ckks.RelinearizationKey, rtk *ckks.RotationKeys) *Server {
	return NewServerWithConfig(params, henet, rlk, rtk, Config{})
}

// NewServerWithConfig builds a server with explicit limits.
func NewServerWithConfig(params ckks.Parameters, henet *hecnn.Network, rlk *ckks.RelinearizationKey, rtk *ckks.RotationKeys, cfg Config) *Server {
	cfg = cfg.withDefaults()
	// One pool for the whole server: every request's limb/digit/rotation
	// fan-out and the request-level concurrency compete for the same
	// Workers budget (see Config.Workers). Evaluation stays deterministic,
	// so attaching the pool never changes a response byte.
	pool := parallel.New(cfg.Workers)
	params.AttachPool(pool)
	pool.SetMetrics(cfg.Metrics)
	s := &Server{
		pool:   pool,
		params: params,
		net:    henet,
		ctx: &hecnn.Context{
			Params:  params,
			Encoder: ckks.NewEncoder(params),
			Eval:    ckks.NewEvaluator(params, rlk, rtk),
		},
		cfg:       cfg,
		adm:       newAdmitter(cfg.MaxConcurrent, cfg.QueueDepth, cfg.Metrics),
		requests:  newStatusCounters(cfg.Metrics, MetricRequestsTotal, "completed exchanges by typed wire status"),
		met:       newServerMetrics(cfg.Metrics, henet),
		flight:    cfg.Flight,
		slowLog:   cfg.SlowRequestLog,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		drained:   make(chan struct{}),
	}
	if cfg.ShedEWMA > 0 {
		s.shed = newShedder(cfg.ShedEWMA, cfg.MaxConcurrent)
	}
	if cfg.CacheBytes >= 0 {
		// Pre-encode every weight/bias plaintext at the exact levels and
		// scales the compiled plan consumes, so steady-state requests
		// perform zero Encoder.Encode calls (responses are bit-identical
		// either way — see hecnn.TestCompiledZeroEncodeSteadyState).
		// Unset budgets auto-size from the compiled operand set: BSGS
		// operand sets outgrow the fixed default and would thrash the LRU
		// on every request (hecnn.AutoPlaintextCacheBytes).
		budget := cfg.CacheBytes
		if budget == 0 {
			budget = hecnn.AutoPlaintextCacheBytes(henet, params, params.MaxLevel())
		}
		s.compiled = hecnn.NewCompiledNetwork(henet, params, s.ctx.Encoder, budget)
		s.compiled.SetMetrics(cfg.Metrics)
		s.compiled.Warm(params.MaxLevel())
	}
	if cfg.Batch != nil {
		bc := cfg.Batch.withDefaults()
		s.bparams = bc.Params
		bctx := &hecnn.Context{
			Params:  bc.Params,
			Encoder: ckks.NewEncoder(bc.Params),
			Eval:    ckks.NewEvaluator(bc.Params, bc.Rlk, bc.Rtk),
		}
		cb := hecnn.NewCompiledBatched(bc.Net, bc.Params, bctx.Encoder, bc.CacheBytes)
		cb.SetMetrics(cfg.Metrics)
		cb.Warm(bc.Params.MaxLevel())
		s.bat = newBatcher(bc, bctx, cb, s.adm, s.met)
		s.bat.flight = cfg.Flight
		go s.bat.run()
	}
	s.defRT = &tenantRuntime{
		params:   s.params,
		net:      s.net,
		ctx:      s.ctx,
		compiled: s.compiled,
		bparams:  s.bparams,
		bat:      s.bat,
	}
	if cfg.Registry != nil {
		if cfg.Models == nil {
			panic("mlaas: Config.Registry requires Config.Models")
		}
		s.tenants = newTenantSet(cfg.Registry, cfg.Models, s)
	}
	return s
}

// backend returns the evaluation backend for one request on the default
// runtime. rec may be nil for untraced requests.
func (s *Server) backend(rec *hecnn.Recorder) hecnn.Backend {
	return s.defRT.backend(rec)
}

// resolveTenant maps a route prefix to its resident runtime: registry
// lookup (typed unknown-tenant refusal on a miss), client generation
// check (a client whose keys derive from a rotated-away generation is
// refused rather than served undecryptable logits), then lazy runtime
// materialization.
func (s *Server) resolveTenant(hdr RouteHeader) (*tenantRuntime, *wireError) {
	if s.tenants == nil {
		return nil, &wireError{StatusBadRequest, fmt.Sprintf("tenant %q routed to a server without multi-tenant serving", hdr.Tenant)}
	}
	rec, err := s.tenants.reg.Lookup(hdr.Tenant)
	if err != nil {
		if errors.Is(err, registry.ErrNotFound) {
			return nil, &wireError{StatusUnknownTenant, fmt.Sprintf("unknown tenant %q", hdr.Tenant)}
		}
		return nil, &wireError{StatusInternal, fmt.Sprintf("registry lookup for %q: %v", hdr.Tenant, err)}
	}
	if hdr.Generation != 0 && hdr.Generation != rec.Generation {
		return nil, &wireError{StatusBadRequest, fmt.Sprintf(
			"tenant %q generation mismatch: client keys at generation %d, registry at %d — re-derive from the current record",
			hdr.Tenant, hdr.Generation, rec.Generation)}
	}
	rt, err := s.tenants.runtime(rec)
	if err != nil {
		return nil, &wireError{StatusInternal, fmt.Sprintf("materializing tenant %q: %v", hdr.Tenant, err)}
	}
	return rt, nil
}

// observes reports whether requests need a trace (metrics, slow log, or
// flight recorder).
func (s *Server) observes() bool {
	return s.met != nil || s.flight != nil || (s.cfg.SlowRequestThreshold > 0 && s.slowLog != nil)
}

// Served returns the number of completed inferences.
func (s *Server) Served() int { return int(s.requests[StatusOK].Value()) }

// Stats returns a snapshot of the request counters. Each field is read
// atomically; fields read while exchanges complete may straddle one.
func (s *Server) Stats() Stats {
	c := s.requests
	s.mu.Lock()
	dropped := s.dropped
	s.mu.Unlock()
	return Stats{
		Served:      int(c[StatusOK].Value()),
		BadRequests: int(c[StatusBadRequest].Value() + c[StatusUnknownTenant].Value()),
		Rejected:    int(c[StatusBusy].Value() + c[StatusShuttingDown].Value()),
		Panics:      int(c[StatusInternal].Value()),
		Dropped:     dropped,
	}
}

// PoolStats returns a snapshot of the evaluation worker pool's scheduling
// counters (workers, busy, items by execution mode).
func (s *Server) PoolStats() parallel.Stats { return s.pool.Stats() }

// Serve accepts connections until the listener closes or the server shuts
// down, handling one inference per connection. During a drain it keeps
// accepting just long enough to refuse each connection with
// StatusShuttingDown; once drained, Shutdown closes the listener and
// Serve returns ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		go func() {
			defer conn.Close()
			s.trackConn(conn, true)
			defer s.trackConn(conn, false)
			s.Handle(conn)
		}()
	}
}

func (s *Server) trackConn(c net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
}

// Shutdown stops admitting new requests, waits for in-flight inferences
// to drain, then closes the listeners. While draining, new connections
// are refused with StatusShuttingDown. If ctx expires first, the
// remaining connections are severed and the error reports how many
// in-flight requests were dropped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.inflight == 0 {
		s.closeDrained()
	}
	s.mu.Unlock()
	if s.bat != nil {
		// Flush parked batch members immediately: their handlers are
		// in-flight requests the drain below waits for.
		s.bat.drain()
	}
	if s.tenants != nil {
		s.tenants.forEachBatcher(func(b *batcher) { b.drain() })
	}

	var err error
	select {
	case <-s.drained:
	case <-ctx.Done():
		s.mu.Lock()
		dropped := s.inflight
		s.dropped += dropped
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		err = fmt.Errorf("mlaas: shutdown forced, %d in-flight requests dropped: %w", dropped, ctx.Err())
	}

	s.mu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()
	if s.bat != nil {
		// Stop the scheduler; any member still pending (forced shutdown)
		// is failed with StatusShuttingDown rather than evaluated.
		s.bat.stop()
	}
	if s.tenants != nil {
		s.tenants.forEachBatcher(func(b *batcher) { b.stop() })
	}
	return err
}

func (s *Server) closeDrained() {
	s.drainOnce.Do(func() { close(s.drained) })
}

// After a failure response the peer may still be mid-request; the server
// keeps reading (and discarding) up to drainWindow/maxDrainBytes so the
// peer can finish its write and read the typed status instead of taking
// a connection reset. Purely politeness — both bounds are hard.
const (
	drainWindow   = time.Second
	maxDrainBytes = 8 << 20
)

// Handle processes one request/response exchange on rw: admission
// (drain check, then the concurrency semaphore), deadline-bounded
// protocol I/O, validation, panic-isolated evaluation, and a typed
// status on every failure path, followed by a bounded politeness drain
// of any unread request bytes.
func (s *Server) Handle(rw io.ReadWriter) {
	if !s.handleRequest(rw) {
		return
	}
	d, ok := rw.(deadliner)
	if !ok {
		return // cannot bound the drain; skip it
	}
	d.SetReadDeadline(time.Now().Add(drainWindow)) //nolint:errcheck
	io.CopyN(io.Discard, rw, maxDrainBytes)        //nolint:errcheck
}

// handleRequest runs the exchange and reports whether unread request
// bytes may remain on the wire (i.e. the request was refused or failed).
// Every exchange — including refusals — is tagged with a monotonically
// increasing request id that prefixes failure messages and keys the
// slow-request log.
//
// Every path ends in one tail: the response is fully encoded, then
// accounted (the only account call), then flushed in one write. A client
// holding its answer therefore never reads counters, histograms, or
// traces that have not moved yet. Drain still waits for the flush:
// s.inflight covers the write, only the in-flight gauge moves at
// accounting.
func (s *Server) handleRequest(rw io.ReadWriter) (drain bool) {
	reqID := s.reqSeq.Add(1)
	var rt *reqTrace
	if s.observes() {
		rt = &reqTrace{id: reqID, start: time.Now()}
	}
	trw := newTimedRW(rw, s.cfg.IOTimeout, time.Time{})

	s.mu.Lock()
	admitted := !s.draining
	if admitted {
		s.inflight++
	}
	s.mu.Unlock()
	var frame []byte
	var we *wireError
	if admitted {
		s.met.inflightAdd(1)
		defer func() {
			s.mu.Lock()
			s.inflight--
			if s.draining && s.inflight == 0 {
				s.closeDrained()
			}
			s.mu.Unlock()
		}()
		frame, we = s.admit(trw, rt)
	} else {
		we = &wireError{StatusShuttingDown, "server is shutting down"}
	}

	st := StatusOK
	if we != nil {
		st = we.status
		frame = failureFrame(st, fmt.Sprintf("req %d: %s", reqID, we.msg))
		// The failure report gets one fresh I/O window even when the
		// request died by exhausting its budget.
		trw.abs = time.Now().Add(s.cfg.IOTimeout)
	} else {
		rt.lap(phaseEncode)
	}
	s.account(rt, st, admitted)
	trw.Write(frame) //nolint:errcheck // the peer may be gone; it is accounted either way
	return we != nil
}

// admit runs an admitted exchange through deadline-aware shedding and
// the admission queue, then serves it under its request budget. It
// returns the encoded success frame or the typed failure to report.
func (s *Server) admit(trw *timedRW, rt *reqTrace) ([]byte, *wireError) {
	// The request budget starts at arrival: time spent waiting in the
	// admission queue is the client's time too.
	deadline := time.Now().Add(s.cfg.RequestBudget)
	if s.shed != nil {
		// Deadline-aware shedding: refuse now — with a hint — rather than
		// let a request wait out a budget its projected completion already
		// misses. The projection needs latency evidence, so a cold server
		// never sheds.
		busy, queued := s.adm.load()
		if hint, ok := s.shed.shouldAdmit(time.Now(), deadline, busy, queued); !ok {
			s.met.observeShed()
			rt.markShed()
			msg := fmt.Sprintf("shed: projected completion exceeds the request budget (%d busy, %d queued)", busy, queued)
			return nil, &wireError{StatusBusy, withRetryAfterHint(msg, hint)}
		}
	}
	wait, decision := s.adm.acquire(deadline)
	if decision != admitOK {
		msg := fmt.Sprintf("server at capacity (%d concurrent, %d queued)", s.cfg.MaxConcurrent, s.adm.queued())
		if decision == admitDeadline {
			msg = fmt.Sprintf("request budget exhausted after %v in the admission queue", wait.Round(time.Millisecond))
		}
		if s.shed != nil {
			// With shedding on, every busy refusal carries a hint; the
			// default configuration keeps these messages byte-identical to
			// the pre-hint wire traffic.
			busy, queued := s.adm.load()
			msg = withRetryAfterHint(msg, s.shed.retryAfter(busy, queued))
		}
		return nil, &wireError{StatusBusy, msg}
	}
	rt.admitted(wait)
	// The batched path hands its slot back while the request parks in the
	// batch (the flush re-acquires one slot for the whole batch), so the
	// release must be idempotent.
	slotHeld := true
	releaseSlot := func() {
		if slotHeld {
			slotHeld = false
			s.adm.release()
		}
	}
	defer releaseSlot()

	trw.abs = deadline
	return s.serveRequest(trw, rt, releaseSlot)
}

// serveRequest reads, validates, and evaluates one request, timing each
// lifecycle phase into rt (nil rt skips all timing), and returns the
// encoded success frame; it never writes to rw. Any panic below it —
// corrupt ciphertext structure surviving validation, scale drift in the
// evaluator, a bug in a layer kernel — is confined to this request and
// surfaced as StatusInternal.
func (s *Server) serveRequest(rw *timedRW, rt *reqTrace, releaseSlot func()) (frame []byte, we *wireError) {
	defer func() {
		if r := recover(); r != nil {
			frame, we = nil, &wireError{StatusInternal, fmt.Sprintf("evaluation panic: %v", r)}
		}
	}()

	hdr, raw, _, err := readRequestHeader(rw)
	if err != nil {
		return nil, &wireError{StatusBadRequest, err.Error()}
	}
	rt.setWire(hdr.Trace)
	// A routed request runs on its tenant's serving runtime — parameters,
	// keys, compiled network, quota, batch domain — instead of the
	// single-tenant default.
	run := s.defRT
	if !hdr.Route.IsZero() {
		if run, we = s.resolveTenant(hdr.Route); we != nil {
			return nil, we
		}
		rt.setTenant(hdr.Route.Tenant)
		if !run.acquireQuota() {
			return nil, &wireError{StatusBusy, fmt.Sprintf("tenant %q at its admission quota (%d concurrent)", hdr.Route.Tenant, cap(run.quota))}
		}
		defer run.releaseQuota()
	}
	if hdr.Batch {
		if run.bat != nil {
			return s.serveBatched(rw, run, rt, releaseSlot, hdr.CRC, raw)
		}
		// Without batching the magic is what it is to a server predating
		// the framing: a hostile ciphertext count.
		raw = batchMagic
	}
	expect := run.net.Layers[0].(*hecnn.ConvPacked).NumPositions()
	cts, we := readCiphertexts(rw, run.params, raw, expect, false)
	if we != nil {
		return nil, we
	}
	rt.lap(phaseDecode)
	if err := run.net.ValidateCiphertexts(cts, run.params.MaxLevel()); err != nil {
		return nil, &wireError{StatusBadRequest, err.Error()}
	}
	rt.lap(phaseValidate)

	if s.testEvalHook != nil {
		s.testEvalHook()
	}
	evalStart := time.Now()
	var out *hecnn.CT
	if rt != nil {
		// Traced path: a per-request recorder feeds the tracer so the
		// per-layer table in the slow-request log and the layer metric
		// families come straight from the ckks trace of this inference.
		rec := hecnn.NewRecorder()
		tr := hecnn.NewTracer(rec)
		if s.met != nil {
			tr.Sink = s.met.observeLayer
		}
		out = run.net.EvaluateTraced(run.backend(rec), cts, tr)
		rt.layers = tr.Stats
		rt.lap(phaseEvaluate)
	} else {
		out = run.net.EvaluateEncrypted(run.backend(nil), cts)
	}
	if s.shed != nil {
		s.shed.observe(time.Since(evalStart))
		s.met.setEvalEWMA(s.shed.estimate())
	}
	return successFrame(nil, []*hecnn.CT{out}, hdr.CRC), nil
}

// serveBatched runs one batched exchange: decode and validate the
// position-major ciphertexts, hand the evaluation slot back, park in the
// batch scheduler, and — when the flush delivers — encode the shared
// logit ciphertexts plus this member's slot index. The scheduler
// evaluates whole batches under one evaluation slot; a member whose
// budget expires while parked claims itself away from the next flush and
// is refused with StatusBusy, never stalling the batch.
func (s *Server) serveBatched(rw *timedRW, run *tenantRuntime, rt *reqTrace, releaseSlot func(), crc bool, count uint32) ([]byte, *wireError) {
	bnet := run.bat.net
	cts, we := readCiphertexts(rw, run.bparams, count, bnet.InputSize(), true)
	if we != nil {
		return nil, we
	}
	rt.lap(phaseDecode)
	if err := bnet.ValidateBatchCiphertexts(cts, run.bparams.MaxLevel()); err != nil {
		return nil, &wireError{StatusBadRequest, err.Error()}
	}
	rt.lap(phaseValidate)
	if s.testEvalHook != nil {
		s.testEvalHook()
	}

	// Park in the scheduler without holding an evaluation slot: the flush
	// acquires one slot for the whole batch.
	releaseSlot()
	m := &batchMember{
		arrival:  time.Now(),
		deadline: rw.abs,
		cts:      cts,
		result:   make(chan batchOutcome, 1),
	}
	if rt != nil {
		// The flush span links every member's trace as a follow-from.
		m.wt = rt.wt
	}
	if we := run.bat.submit(m); we != nil {
		return nil, we
	}
	timer := time.NewTimer(time.Until(m.deadline))
	defer timer.Stop()
	var out batchOutcome
	select {
	case out = <-m.result:
	case <-timer.C:
		if m.claimed.CompareAndSwap(false, true) {
			// Still parked: withdraw before any flush claims it.
			return nil, &wireError{StatusBusy, "request budget expired waiting for a batch"}
		}
		// A flush owns this member; its result is imminent.
		out = <-m.result
	}
	if rt != nil {
		rt.lap(phaseEvaluate)
		// The member's request trace links forward to the flush trace that
		// evaluated it (and remembers whether it took the degraded path).
		rt.flushCtx = out.flush
		rt.degraded = out.degraded
	}
	if out.err != nil {
		return nil, out.err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(out.slot))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(out.outs)))
	return successFrame(hdr[:], out.outs, crc), nil
}

// readCiphertexts reads a request's ciphertext list after its header:
// the raw count is bounds-checked before anything is allocated, then
// matched against the model's expected input count, then that many
// ciphertexts are decoded under params. batched selects the wording of
// the batched framing.
func readCiphertexts(r io.Reader, params ckks.Parameters, raw uint32, expect int, batched bool) ([]*hecnn.CT, *wireError) {
	kind, layout := "request", "packed"
	if batched {
		kind, layout = "batched", "position-major"
	}
	count := int(raw)
	if count < 1 || count > maxRequestCiphertexts {
		return nil, &wireError{StatusBadRequest, fmt.Sprintf("%s ciphertext count %d outside [1,%d]", kind, count, maxRequestCiphertexts)}
	}
	if count != expect {
		return nil, &wireError{StatusBadRequest, fmt.Sprintf("expected %d %s ciphertexts, got %d", expect, layout, count)}
	}
	cts := make([]*hecnn.CT, 0, count)
	for i := 0; i < count; i++ {
		ct, err := ckks.ReadCiphertext(r, params)
		if err != nil {
			return nil, &wireError{StatusBadRequest, fmt.Sprintf("reading ciphertext %d: %v", i, err)}
		}
		cts = append(cts, hecnn.WrapCiphertext(ct))
	}
	return cts, nil
}

// successFrame encodes a complete success response into one exactly
// sized buffer: the status byte, the optional batch slot/count header,
// the ciphertexts, and — on CRC-framed requests — the trailer over every
// byte before it.
func successFrame(hdr []byte, cts []*hecnn.CT, crc bool) []byte {
	size := 1 + len(hdr)
	for _, ct := range cts {
		size += ct.Ciphertext().SerializedSize()
	}
	if crc {
		size += trailerBytes
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	buf.WriteByte(byte(StatusOK))
	buf.Write(hdr)
	for _, ct := range cts {
		ct.Ciphertext().WriteTo(buf) //nolint:errcheck // bytes.Buffer never errors
	}
	if crc {
		return appendTrailer(buf.Bytes())
	}
	return buf.Bytes()
}

// failureFrame encodes a typed failure response: the status byte, then
// the uint32-length-delimited message, truncated to the wire cap.
func failureFrame(status Status, msg string) []byte {
	if len(msg) > maxErrorMessageBytes {
		msg = msg[:maxErrorMessageBytes]
	}
	b := make([]byte, 5, 5+len(msg))
	b[0] = byte(status)
	binary.LittleEndian.PutUint32(b[1:], uint32(len(msg)))
	return append(b, msg...)
}

// WriteFailure writes a typed failure response in the server's wire
// framing (see failureFrame) in one write. Exported for the gateway,
// which refuses a request in the protocol's own vocabulary when no shard
// is reachable. Write errors are ignored: the peer may already be gone.
func WriteFailure(w io.Writer, status Status, msg string) {
	w.Write(failureFrame(status, msg)) //nolint:errcheck
}

// readStatus consumes a response's status byte and, on any status but
// StatusOK, the rest of the failure frame: the uint32 length and the
// message, refused beyond maxErrorMessageBytes. It returns the bytes
// consumed and, for a failure, the typed error that ends the exchange;
// nil means the success payload follows.
func readStatus(r io.Reader) (int64, error) {
	var b [5]byte
	if _, err := io.ReadFull(r, b[:1]); err != nil {
		return 0, &TransportError{Err: err}
	}
	code := Status(b[0])
	if code == StatusOK {
		return 1, nil
	}
	if _, err := io.ReadFull(r, b[1:]); err != nil {
		return 1, &TransportError{Partial: true, Err: err}
	}
	msgLen := binary.LittleEndian.Uint32(b[1:])
	if msgLen > maxErrorMessageBytes {
		return 5, &StatusError{Code: code, Msg: "(error message exceeds wire cap)"}
	}
	msg := make([]byte, msgLen)
	if _, err := io.ReadFull(r, msg); err != nil {
		return 5, &TransportError{Partial: true, Err: err}
	}
	return 5 + int64(msgLen), &StatusError{Code: code, Msg: string(msg)}
}

// deadliner is the subset of net.Conn needed for rolling deadlines.
// net.Pipe and *faultnet.Conn implement it too; plain buffers in unit
// tests do not and simply run unbounded.
type deadliner interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// timedRW bumps a rolling per-operation deadline before every read and
// write, clamped to an absolute budget cutoff. It is how one Config
// timeout pair bounds every io.ReadFull and WriteTo in the codec without
// threading deadlines through each call site.
type timedRW struct {
	rw  io.ReadWriter
	d   deadliner // nil when rw cannot carry deadlines
	op  time.Duration
	abs time.Time
}

func newTimedRW(rw io.ReadWriter, op time.Duration, abs time.Time) *timedRW {
	t := &timedRW{rw: rw, op: op, abs: abs}
	if d, ok := rw.(deadliner); ok {
		t.d = d
	}
	return t
}

func (t *timedRW) deadline() time.Time {
	var dl time.Time
	if t.op > 0 {
		dl = time.Now().Add(t.op)
	}
	if !t.abs.IsZero() && (dl.IsZero() || t.abs.Before(dl)) {
		dl = t.abs
	}
	return dl
}

func (t *timedRW) overBudget() error {
	if !t.abs.IsZero() && time.Now().After(t.abs) {
		return fmt.Errorf("request budget exhausted: %w", context.DeadlineExceeded)
	}
	return nil
}

func (t *timedRW) Read(b []byte) (int, error) {
	if err := t.overBudget(); err != nil {
		return 0, err
	}
	if t.d != nil {
		t.d.SetReadDeadline(t.deadline()) //nolint:errcheck
	}
	return t.rw.Read(b)
}

func (t *timedRW) Write(b []byte) (int, error) {
	if err := t.overBudget(); err != nil {
		return 0, err
	}
	if t.d != nil {
		t.d.SetWriteDeadline(t.deadline()) //nolint:errcheck
	}
	return t.rw.Write(b)
}

// Client packs, encrypts, ships, and decrypts. It owns the secret key.
type Client struct {
	params    ckks.Parameters
	net       *hecnn.Network
	encoder   *ckks.Encoder
	encryptor *ckks.Encryptor
	decryptor *ckks.Decryptor

	// Timeout is the rolling per-read/per-write deadline applied when the
	// connection supports deadlines (0 disables). A context deadline on
	// Infer additionally caps the whole exchange.
	Timeout time.Duration

	// FrameCheck opts the client into CRC-framed responses (frame.go):
	// requests carry the crc header prefix (header.go) and success
	// responses must carry a matching CRC32 trailer, turning silently
	// corrupted logits into a typed, retryable ErrFrameCorrupt. Servers
	// predating the framing refuse the prefix with a typed bad-request, so
	// leave this off when talking to old servers.
	FrameCheck bool

	// Tenant, when set, adds the route prefix to every request header
	// (header.go): the gateway routes it to the tenant's home shard
	// and a multi-tenant server resolves this tenant's keys, network, and
	// quota. Leave empty when talking to single-tenant servers.
	Tenant string
	// TenantGeneration, when non-zero, pins the registry generation this
	// client's key material derives from; a server whose registry has
	// rotated past it refuses the request instead of returning logits the
	// client cannot decrypt.
	TenantGeneration uint64

	// BytesSent / BytesReceived accumulate wire traffic; Retries counts
	// extra attempts performed by InferRetry and InferHedged; Hedges
	// counts hedged second attempts InferHedged fired.
	BytesSent     int64
	BytesReceived int64
	Retries       int
	Hedges        int

	// Flight, when non-nil, enables client-side tracing: every
	// Infer/InferRetry/InferHedged call runs under a root span whose
	// trace context is propagated in the request header, with one
	// child span per attempt tagged endpoint/breaker-state/hedge. Nil
	// keeps wire bytes and the request path byte-identical to the
	// untraced client.
	Flight *telemetry.FlightRecorder
	// cm holds the pre-resolved client metric handles (SetMetrics).
	cm *clientMetrics

	// Failover state (failover.go): per-endpoint circuit breakers and the
	// latency window behind the quantile-derived hedge delay. Guarded by
	// foMu; lazily initialized on the first InferHedged call.
	foMu       sync.Mutex
	foBreakers map[string]*breaker
	foLat      latencyWindow
}

// NewClient builds the client side from the key material.
func NewClient(params ckks.Parameters, henet *hecnn.Network, pk *ckks.PublicKey, sk *ckks.SecretKey, seed int64) *Client {
	return &Client{
		params:    params,
		net:       henet,
		encoder:   ckks.NewEncoder(params),
		encryptor: ckks.NewEncryptor(params, pk, seed),
		decryptor: ckks.NewDecryptor(params, sk),
		Timeout:   30 * time.Second,
	}
}

// Infer runs one encrypted inference over the connection and returns the
// decrypted logits. The context's deadline bounds the whole exchange;
// failures before any response byte arrive as *TransportError with
// Partial=false (safe to retry on a fresh connection), failures after as
// Partial=true, and typed server refusals as *StatusError.
func (c *Client) Infer(ctx context.Context, conn io.ReadWriter, img *cnn.Tensor) ([]float64, error) {
	sp := c.startClientTrace("infer")
	logits, err := c.inferSpan(ctx, conn, img, sp)
	recordClientTrace(c.Flight, sp, err)
	return logits, err
}

// inferSpan is Infer under an optional span: the span's context rides
// the wire ahead of the request, so the server's trace joins the
// client's. A nil span keeps the exchange byte-identical to the
// untraced protocol.
func (c *Client) inferSpan(ctx context.Context, conn io.ReadWriter, img *cnn.Tensor, sp *telemetry.Span) ([]float64, error) {
	if err := c.net.ValidateInput(img); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var abs time.Time
	if dl, ok := ctx.Deadline(); ok {
		abs = dl
	}
	trw := newTimedRW(conn, c.Timeout, abs)

	cts := c.encryptRequest(img)
	sent, err := writeInferRequest(trw, c.header(sp.Context()), cts)
	c.BytesSent += sent
	if err != nil {
		return nil, &TransportError{Err: err}
	}
	out, recv, err := c.readResponse(trw)
	c.BytesReceived += recv
	if err != nil {
		return nil, err
	}
	return c.decodeLogits(out), nil
}

// encryptRequest packs and encrypts the image into the per-position
// ciphertexts of one request. The encryptor's randomness advances once
// per call, so re-sending the returned ciphertexts (retry, hedge,
// failover) reproduces the exchange bit-for-bit.
func (c *Client) encryptRequest(img *cnn.Tensor) []*ckks.Ciphertext {
	packed := c.net.PackInput(img)
	level := c.params.MaxLevel()
	cts := make([]*ckks.Ciphertext, len(packed))
	for i, v := range packed {
		cts[i] = c.encryptor.Encrypt(c.encoder.Encode(v, level, c.params.Scale))
	}
	return cts
}

// header assembles the client's request header; tc is the attempt's
// trace context (zero when untraced).
func (c *Client) header(tc telemetry.SpanContext) requestHeader {
	return requestHeader{
		Trace: tc,
		Route: RouteHeader{Tenant: c.Tenant, Generation: c.TenantGeneration},
		CRC:   c.FrameCheck,
	}
}

// writeInferRequest streams one request: the header, then the serialized
// ciphertexts. Serialization only reads the ciphertexts, so concurrent
// hedged attempts may stream the same set. A zero header writes the
// legacy framing byte-for-byte.
func writeInferRequest(w io.Writer, hdr requestHeader, cts []*ckks.Ciphertext) (int64, error) {
	buf, err := hdr.appendTo(make([]byte, 0, maxHeaderBytes), uint32(len(cts)))
	if err != nil {
		return 0, err
	}
	m, err := w.Write(buf)
	n := int64(m)
	if err != nil {
		return n, err
	}
	for _, ct := range cts {
		mm, err := ct.WriteTo(w)
		n += mm
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// readResponse consumes one response: a typed status, then either the
// result ciphertext (plus, under FrameCheck, the CRC32 trailer) or the
// failure message. It never touches mutable client state, so hedged
// attempts call it concurrently; decryption stays with the single caller
// via decodeLogits.
func (c *Client) readResponse(r io.Reader) (*ckks.Ciphertext, int64, error) {
	var out *ckks.Ciphertext
	recv, err := readCheckedResponse(r, c.FrameCheck, func(src io.Reader) (int64, error) {
		ct, err := ckks.ReadCiphertext(src, c.params)
		if err != nil {
			return 0, err
		}
		out = ct
		return int64(ct.SerializedSize()), nil
	})
	if err != nil {
		return nil, recv, err
	}
	return out, recv, nil
}

// decodeLogits decrypts and decodes the result ciphertext. Not safe for
// concurrent use — callers racing attempts decode only the winner.
func (c *Client) decodeLogits(out *ckks.Ciphertext) []float64 {
	logits := c.encoder.Decode(c.decryptor.Decrypt(out))
	rows := c.net.Layers[len(c.net.Layers)-1].OutElems()
	return logits[:rows]
}

// BatchClient is the client side of cross-request batched serving. It
// owns the secret key of the BATCH ring (a different instantiation from
// the per-request ring — typically hecnn.BatchedParams), packs its image
// position-major with the value in slot 0, and decrypts only its own
// slot of the shared logit ciphertexts the server returns. Other members'
// logits sit in other slots of the same ciphertexts; with a shared batch
// key every member could read them, so a deployment batches mutually
// trusting requests (one tenant), exactly as CryptoNets assumes.
type BatchClient struct {
	params    ckks.Parameters
	net       *hecnn.BatchedNetwork
	encoder   *ckks.Encoder
	encryptor *ckks.Encryptor
	decryptor *ckks.Decryptor

	// Timeout is the rolling per-read/per-write deadline, as Client's.
	Timeout time.Duration

	// FrameCheck opts into CRC-framed responses, as Client's.
	FrameCheck bool

	// Tenant/TenantGeneration route batched requests to the tenant's
	// private batch domain, as Client's fields do for the per-request
	// path. Members of one batch always share a tenant — batching mixes
	// slots within one key domain, never across tenants.
	Tenant           string
	TenantGeneration uint64

	// Flight enables client-side tracing, as Client's: the request runs
	// under a root span whose context rides the request header, so the
	// server's batch-flush span can link this request's trace.
	Flight *telemetry.FlightRecorder

	BytesSent     int64
	BytesReceived int64
}

// NewBatchClient builds the batch-ring client from its key material.
func NewBatchClient(params ckks.Parameters, bnet *hecnn.BatchedNetwork, pk *ckks.PublicKey, sk *ckks.SecretKey, seed int64) *BatchClient {
	return &BatchClient{
		params:    params,
		net:       bnet,
		encoder:   ckks.NewEncoder(params),
		encryptor: ckks.NewEncryptor(params, pk, seed),
		decryptor: ckks.NewDecryptor(params, sk),
		Timeout:   30 * time.Second,
	}
}

// Infer runs one batched encrypted inference: the image ships as one
// single-slot ciphertext per tensor position and the logits come back at
// the server-assigned slot of the shared output ciphertexts. The server
// coalesces concurrent calls into one evaluation, so latency includes up
// to one batch window of deliberate waiting.
func (c *BatchClient) Infer(ctx context.Context, conn io.ReadWriter, img *cnn.Tensor) ([]float64, error) {
	var sp *telemetry.Span
	if c.Flight != nil {
		sp = telemetry.StartTrace("batch-infer")
	}
	logits, err := c.inferSpan(ctx, conn, img, sp)
	recordClientTrace(c.Flight, sp, err)
	return logits, err
}

func (c *BatchClient) inferSpan(ctx context.Context, conn io.ReadWriter, img *cnn.Tensor, sp *telemetry.Span) ([]float64, error) {
	packed, err := c.net.PackImage(img)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var abs time.Time
	if dl, ok := ctx.Deadline(); ok {
		abs = dl
	}
	trw := newTimedRW(conn, c.Timeout, abs)

	level := c.params.MaxLevel()
	cts := make([]*ckks.Ciphertext, len(packed))
	for i, v := range packed {
		cts[i] = c.encryptor.Encrypt(c.encoder.Encode(v, level, c.params.Scale))
	}
	hdr := requestHeader{
		Trace: sp.Context(),
		Route: RouteHeader{Tenant: c.Tenant, Generation: c.TenantGeneration},
		CRC:   c.FrameCheck,
		Batch: true,
	}
	sent, err := writeInferRequest(trw, hdr, cts)
	c.BytesSent += sent
	if err != nil {
		return nil, &TransportError{Err: err}
	}

	var slot int
	var outs []*ckks.Ciphertext
	recv, err := readCheckedResponse(trw, c.FrameCheck, func(src io.Reader) (int64, error) {
		var shdr [8]byte
		if _, err := io.ReadFull(src, shdr[:]); err != nil {
			return 0, err
		}
		slot = int(binary.LittleEndian.Uint32(shdr[:4]))
		count := int(binary.LittleEndian.Uint32(shdr[4:]))
		if slot < 0 || slot >= c.params.Slots() {
			return 8, fmt.Errorf("server assigned slot %d outside the ring's %d slots", slot, c.params.Slots())
		}
		if count < 1 || count > maxRequestCiphertexts {
			return 8, fmt.Errorf("batched response ciphertext count %d outside [1,%d]", count, maxRequestCiphertexts)
		}
		if expect := c.net.OutputSize(); count != expect {
			return 8, fmt.Errorf("batched response has %d logit ciphertexts, want %d", count, expect)
		}
		n := int64(8)
		for i := 0; i < count; i++ {
			out, err := ckks.ReadCiphertext(src, c.params)
			if err != nil {
				return n, err
			}
			n += int64(out.SerializedSize())
			outs = append(outs, out)
		}
		return n, nil
	})
	c.BytesReceived += recv
	if err != nil {
		return nil, err
	}
	logits := make([]float64, len(outs))
	for i, out := range outs {
		logits[i] = c.encoder.Decode(c.decryptor.Decrypt(out))[slot]
	}
	return logits, nil
}
