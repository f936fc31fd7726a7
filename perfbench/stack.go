package main

// Workload stacks: each workload starts the serving stack in-process from
// the program's public APIs — hecnn compile, the ckks key ceremony,
// mlaas.Server shards, the tenant registry and the gateway — and drives
// it over loopback TCP. Every request goes client → gateway → shard.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/gateway"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/mlaas"
	"fxhenn/internal/registry"
	"fxhenn/internal/telemetry"
)

// Fixed model and key seeds: the workload seed drives only what the
// program receives per request — images and encryption randomness.
const (
	mnistWeightSeed = 7
	mnistKeySeed    = 11
	baseWeightSeed  = 21
	baseKeySeed     = 31
)

// inferrer is the part of mlaas.Client and mlaas.BatchClient the loop
// drives.
type inferrer interface {
	Infer(ctx context.Context, conn io.ReadWriter, img *cnn.Tensor) ([]float64, error)
}

// wireBytes reads a client's cumulative traffic counters.
func wireBytes(cl inferrer) (up, down int64) {
	switch c := cl.(type) {
	case *mlaas.Client:
		return c.BytesSent, c.BytesReceived
	case *mlaas.BatchClient:
		return c.BytesSent, c.BytesReceived
	}
	return 0, 0
}

// tenant is one model the workload sends requests for. The MNIST
// workloads have one, untenanted.
type tenant struct {
	name string
	pnet *cnn.Network
}

// passEnv is the key material and network the traced run's in-process
// evaluation pass uses.
type passEnv struct {
	pnet   *cnn.Network
	henet  *hecnn.Network
	ctx    *hecnn.Context
	keygen time.Duration
}

// stackConfig selects what a workload builds.
type stackConfig struct {
	seed   int64
	traced bool // own accept loops with spans, server and gateway metrics
}

// stack is one running workload.
type stack struct {
	tenants []tenant
	clients [][]inferrer // [connection][tenant]
	addr    string       // the gateway's address
	timeout time.Duration

	shardMet []*telemetry.Registry // traced runs only
	gwMet    *telemetry.Registry
	log      *spanLog // traced runs only
	tracing  atomic.Bool

	// firstRequest is the summed latency of the per-tenant warm-up
	// requests set-up sends (0 when set-up sends none).
	firstRequest time.Duration
	keygen       time.Duration // the set-up key ceremony, when it has one
	pass         func() (*passEnv, error)

	stops []func()
}

func (st *stack) close() {
	for i := len(st.stops) - 1; i >= 0; i-- {
		st.stops[i]()
	}
	st.stops = nil
}

// hashConn keeps the first bytes one direction of a connection carries,
// which identify the request at every hop: the gateway replays them to
// the shard unchanged, and the encryption randomness makes them unique.
type hashConn struct {
	net.Conn
	writes bool // true: hash what is written (client); false: what is read
	buf    []byte

	firstWrite, lastRead time.Time
}

const idPrefixBytes = 4096

func (h *hashConn) keep(p []byte) {
	if n := idPrefixBytes - len(h.buf); n > 0 {
		h.buf = append(h.buf, p[:min(n, len(p))]...)
	}
}

func (h *hashConn) Read(p []byte) (int, error) {
	n, err := h.Conn.Read(p)
	if n > 0 {
		h.lastRead = time.Now()
	}
	if !h.writes {
		h.keep(p[:n])
	}
	return n, err
}

func (h *hashConn) Write(p []byte) (int, error) {
	if h.firstWrite.IsZero() {
		h.firstWrite = time.Now()
	}
	n, err := h.Conn.Write(p)
	if h.writes {
		h.keep(p[:n])
	}
	return n, err
}

func (h *hashConn) id() string {
	sum := sha256.Sum256(h.buf)
	return fmt.Sprintf("%x", sum[:8])
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func portOf(a net.Addr) string {
	if t, ok := a.(*net.TCPAddr); ok {
		return fmt.Sprint(t.Port)
	}
	return a.String()
}

// startShard serves srv on a fresh listener: with the server's own Serve
// in untraced runs, with an accept loop timing Server.Handle otherwise.
func (st *stack) startShard(srv *mlaas.Server) (string, error) {
	l, err := listen()
	if err != nil {
		return "", err
	}
	if st.log == nil {
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(l) //nolint:errcheck // returns ErrServerClosed on Shutdown
		}()
		st.stops = append(st.stops, func() {
			shutdown(srv)
			<-done
		})
		return l.Addr().String(), nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				if !st.tracing.Load() {
					srv.Handle(c)
					return
				}
				hc := &hashConn{Conn: c}
				start := time.Now()
				srv.Handle(hc)
				end := time.Now()
				st.log.add(span{Trace: hc.id(), Name: "server.handle", Start: st.log.at(start), End: st.log.at(end)})
			}()
		}
	}()
	st.stops = append(st.stops, func() {
		l.Close()
		shutdown(srv)
		wg.Wait()
	})
	return l.Addr().String(), nil
}

func shutdown(srv *mlaas.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.Shutdown(ctx) //nolint:errcheck // a forced drain only drops requests the run no longer waits for
}

// startGateway fronts the shard addresses with a gateway and serves it,
// timing Gateway.Handle in traced runs.
func (st *stack) startGateway(shardAddrs []string) error {
	shards := make([]gateway.Shard, len(shardAddrs))
	for i, a := range shardAddrs {
		shards[i] = gateway.Shard{Name: fmt.Sprintf("shard-%d", i), Addr: a}
	}
	gw := gateway.New(gateway.Config{Metrics: st.gwMet}, shards...)
	l, err := listen()
	if err != nil {
		return err
	}
	st.addr = l.Addr().String()
	var wg sync.WaitGroup
	wg.Add(1)
	if st.log == nil {
		go func() {
			defer wg.Done()
			gw.Serve(l) //nolint:errcheck // returns once Shutdown closes the listener
		}()
	} else {
		go func() {
			defer wg.Done()
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					if !st.tracing.Load() {
						gw.Handle(c)
						return
					}
					port := portOf(c.RemoteAddr())
					start := time.Now()
					gw.Handle(c)
					end := time.Now()
					st.log.add(span{Name: "gateway.handle", Start: st.log.at(start), End: st.log.at(end), Key: port})
				}()
			}
		}()
	}
	st.stops = append(st.stops, func() {
		l.Close()
		gw.Shutdown(context.Background()) //nolint:errcheck // never fails
		wg.Wait()
	})
	return nil
}

func newStack(cfg stackConfig) *stack {
	st := &stack{}
	if cfg.traced {
		st.log = newSpanLog()
		st.gwMet = telemetry.NewRegistry()
	}
	return st
}

// shardMetrics returns a fresh metrics registry for a shard in traced
// runs, nil otherwise.
func (st *stack) shardMetrics() *telemetry.Registry {
	if st.log == nil {
		return nil
	}
	r := telemetry.NewRegistry()
	st.shardMet = append(st.shardMet, r)
	return r
}

// ceremony is one client-side key ceremony.
type ceremony struct {
	sk  *ckks.SecretKey
	pk  *ckks.PublicKey
	rlk *ckks.RelinearizationKey
	rtk *ckks.RotationKeys
}

func keyCeremony(params ckks.Parameters, henet *hecnn.Network, seed int64) ceremony {
	kg := ckks.NewKeyGenerator(params, seed)
	sk := kg.GenSecretKey()
	return ceremony{
		sk:  sk,
		pk:  kg.GenPublicKey(sk),
		rlk: kg.GenRelinearizationKey(sk),
		rtk: kg.GenRotationKeys(sk, henet.RotationsNeeded(params.MaxLevel()), false),
	}
}

func (c ceremony) context(params ckks.Parameters, encSeed int64) *hecnn.Context {
	return &hecnn.Context{
		Params:    params,
		Encoder:   ckks.NewEncoder(params),
		Encryptor: ckks.NewEncryptor(params, c.pk, encSeed),
		Decryptor: ckks.NewDecryptor(params, c.sk),
		Eval:      ckks.NewEvaluator(params, c.rlk, c.rtk),
	}
}

// buildMNIST starts the paper's MNIST geometry (N=8192, L=7) behind one
// shard with an auto-sized plaintext cache, and one client.
func buildMNIST(cfg stackConfig, opts hecnn.Options) (*stack, error) {
	st := newStack(cfg)
	pnet := cnn.NewMNISTNet()
	pnet.InitWeights(mnistWeightSeed)
	params := ckks.ParamsMNIST()
	henet := hecnn.CompileWith(pnet, params.Slots(), opts)

	start := time.Now()
	keys := keyCeremony(params, henet, mnistKeySeed)
	st.keygen = time.Since(start)

	srv := mlaas.NewServerWithConfig(params, henet, keys.rlk, keys.rtk, mlaas.Config{
		RequestBudget: 5 * time.Minute,
		Metrics:       st.shardMetrics(),
	})
	addr, err := st.startShard(srv)
	if err != nil {
		st.close()
		return nil, err
	}
	if err := st.startGateway([]string{addr}); err != nil {
		st.close()
		return nil, err
	}
	st.tenants = []tenant{{pnet: pnet}}
	st.clients = [][]inferrer{{mlaas.NewClient(params, henet, keys.pk, keys.sk, cfg.seed)}}
	st.timeout = 5 * time.Minute
	st.pass = func() (*passEnv, error) {
		return &passEnv{pnet: pnet, henet: henet, ctx: keys.context(params, cfg.seed+1), keygen: st.keygen}, nil
	}
	return st, nil
}

// clusterRecords are the tiny-cluster tenants: the LoLa ladder, a BSGS
// two-conv model, and a batched ladder with batch size 2.
var clusterRecords = []registry.Record{
	{Tenant: "t-ladder", Model: "tiny", WeightSeed: 100, KeySeed: 101},
	{Tenant: "t-bsgs", Model: "tinyconv", WeightSeed: 120, KeySeed: 121, BSGS: true},
	{Tenant: "t-batched", Model: "tiny", WeightSeed: 130, KeySeed: 131, Batch: registry.Batch{Size: 2, WindowMS: 5}},
}

const clusterConns = 2

// buildCluster starts two registry-backed shards behind a gateway, with
// per-connection, per-tenant clients, and sends one warm-up request per
// tenant so every tenant runtime is resident before timing starts.
func buildCluster(cfg stackConfig) (*stack, error) {
	st := newStack(cfg)
	reg := registry.New(registry.NewMemStore())
	for _, rec := range clusterRecords {
		if err := reg.Register(rec); err != nil {
			return nil, fmt.Errorf("register %s: %w", rec.Tenant, err)
		}
	}
	// The shards' own untenanted model, which no request here uses.
	params := ckks.NewParameters(8, 30, 7, 45)
	base := cnn.NewTinyNet()
	base.InitWeights(baseWeightSeed)
	baseNet := hecnn.Compile(base, params.Slots())
	baseKeys := keyCeremony(params, baseNet, baseKeySeed)

	var addrs []string
	for i := 0; i < 2; i++ {
		srv := mlaas.NewServerWithConfig(params, baseNet, baseKeys.rlk, baseKeys.rtk, mlaas.Config{
			Registry: reg,
			Models:   mlaas.StandardCatalog(),
			Metrics:  st.shardMetrics(),
		})
		a, err := st.startShard(srv)
		if err != nil {
			st.close()
			return nil, err
		}
		addrs = append(addrs, a)
	}
	if err := st.startGateway(addrs); err != nil {
		st.close()
		return nil, err
	}

	recs := make([]registry.Record, len(clusterRecords))
	for t, r := range clusterRecords {
		rec, err := reg.Lookup(r.Tenant)
		if err != nil {
			st.close()
			return nil, err
		}
		recs[t] = rec
		pnet, err := mlaas.StandardPlaintext(rec)
		if err != nil {
			st.close()
			return nil, err
		}
		st.tenants = append(st.tenants, tenant{name: rec.Tenant, pnet: pnet})
	}
	for c := 0; c < clusterConns; c++ {
		var row []inferrer
		for t, rec := range recs {
			encSeed := cfg.seed*1000 + int64(10*c+t)
			var (
				cl  inferrer
				err error
			)
			if rec.Batch.Size > 0 {
				cl, err = mlaas.StandardTenantBatchClient(rec, encSeed)
			} else {
				cl, err = mlaas.StandardTenantClient(rec, encSeed)
			}
			if err != nil {
				st.close()
				return nil, err
			}
			row = append(row, cl)
		}
		st.clients = append(st.clients, row)
	}
	st.timeout = time.Minute

	// Warm-up: one request per tenant materialises its runtime (compile,
	// keys, cache warm) on its home shard.
	for t := range st.tenants {
		img := warmImage(st.tenants[t].pnet)
		start := time.Now()
		s := st.request(0, t, img, false)
		if s.err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up request for %s: %w", st.tenants[t].name, s.err)
		}
		st.firstRequest += time.Since(start)
	}

	st.pass = func() (*passEnv, error) {
		rec := recs[0] // the ladder tenant
		pnet, err := mlaas.StandardPlaintext(rec)
		if err != nil {
			return nil, err
		}
		henet := hecnn.CompileWith(pnet, params.Slots(), hecnn.Options{Hoist: rec.Hoist, BSGS: rec.BSGS})
		start := time.Now()
		keys := keyCeremony(params, henet, rec.KeySeed)
		keygen := time.Since(start)
		return &passEnv{pnet: pnet, henet: henet, ctx: keys.context(params, cfg.seed+1), keygen: keygen}, nil
	}
	return st, nil
}

// warmImage is a fixed mid-grey image for warm-up requests.
func warmImage(pnet *cnn.Network) *cnn.Tensor {
	img := cnn.NewTensor(pnet.InC, pnet.InH, pnet.InW)
	for i := range img.Data {
		img.Data[i] = 0.5
	}
	return img
}
