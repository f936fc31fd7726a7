package gateway

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"fxhenn/internal/mlaas"
	"fxhenn/internal/telemetry"
)

// readFailure parses the protocol's failure response: status byte, then
// a uint32-length message.
func readFailure(t *testing.T, r io.Reader) (byte, string) {
	t.Helper()
	var st [1]byte
	if _, err := io.ReadFull(r, st[:]); err != nil {
		t.Fatalf("reading status: %v", err)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		t.Fatalf("reading message length: %v", err)
	}
	msg := make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(r, msg); err != nil {
		t.Fatalf("reading message: %v", err)
	}
	return st[0], string(msg)
}

// handleRaw runs one raw byte stream through Handle over a TCP pair and
// returns the gateway's response bytes.
func handleRaw(t *testing.T, g *Gateway, request []byte) []byte {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		g.Handle(conn)
	}()
	cli, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(request); err != nil {
		t.Fatal(err)
	}
	// Half-close: the gateway sees EOF after the request instead of
	// waiting out its IO deadline.
	cli.(*net.TCPConn).CloseWrite() //nolint:errcheck
	resp, _ := io.ReadAll(cli)
	<-done
	return resp
}

// TestGatewayEmptyFleetRefusesTyped: with no shards at all, a request is
// refused StatusBusy in the protocol's own framing and counted in the
// refused metric.
func TestGatewayEmptyFleetRefusesTyped(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := New(Config{Metrics: reg})
	// Four non-magic bytes: an untenanted request's ciphertext count.
	resp := handleRaw(t, g, []byte{1, 0, 0, 0})
	st, msg := readFailure(t, bytes.NewReader(resp))
	if st != 3 { // mlaas.StatusBusy
		t.Fatalf("status %d (%s), want busy", st, msg)
	}
	m := reg.Snapshot().Family(MetricRefused).Metric()
	if m == nil || m.Value != 1 {
		t.Fatalf("refused metric = %+v, want 1", m)
	}
}

// TestGatewayTruncatedPrefix: a client that dies mid-prefix gets a typed
// bad-request, not a hang.
func TestGatewayTruncatedPrefix(t *testing.T) {
	g := New(Config{}, Shard{Name: "a", Addr: "127.0.0.1:1"})
	resp := handleRaw(t, g, []byte{0x31}) // one lonely byte
	st, _ := readFailure(t, bytes.NewReader(resp))
	if st != 1 { // mlaas.StatusBadRequest
		t.Fatalf("status %d, want bad-request", st)
	}
}

// countingConn counts the bytes read from the client side of a
// connection.
type countingConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestGatewayPeekBounded: whatever a client sends, the gateway reads at
// most one request header — 182 bytes, every prefix at its largest plus
// the count — before it dials a shard. A stream of 1,000 back-to-back
// trace prefixes is cut after the first (the second reads as the count),
// and the shard receives the whole stream intact and refuses it.
func TestGatewayPeekBounded(t *testing.T) {
	const maxHeaderBytes = 182
	var req bytes.Buffer
	for i := 0; i < 1000; i++ {
		req.Write([]byte{0x31, 0x43, 0x52, 0x54}) // traceMagic "1CRT"
		req.Write(bytes.Repeat([]byte{7}, 24))    // trace ID, parent span ID
	}
	req.Write([]byte{1, 0, 0, 0})
	request := req.Bytes()

	shardCli, shardSrv := net.Pipe()
	shardGot := make(chan []byte, 1)
	go func() {
		defer shardSrv.Close()
		got, _ := io.ReadAll(io.LimitReader(shardSrv, int64(len(request))))
		shardGot <- got
		mlaas.WriteFailure(shardSrv, mlaas.StatusBadRequest, "request ciphertext count outside [1,4096]")
	}()
	cli, gw := net.Pipe()
	defer cli.Close()
	counted := &countingConn{Conn: gw}
	readAtDial := int64(-1)
	g := New(Config{}, Shard{Name: "a", Dial: func(context.Context) (net.Conn, error) {
		readAtDial = counted.n.Load()
		return shardCli, nil
	}})
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.Handle(counted)
	}()
	go cli.Write(request) //nolint:errcheck // a short write shows as a torn stream below

	st, msg := readFailure(t, cli)
	<-done
	if readAtDial < 0 || readAtDial > maxHeaderBytes {
		t.Fatalf("gateway read %d bytes before dialing a shard, want at most %d", readAtDial, maxHeaderBytes)
	}
	if got := <-shardGot; !bytes.Equal(got, request) {
		t.Fatalf("shard received %d bytes, not the client's %d-byte stream", len(got), len(request))
	}
	if st != 1 { // mlaas.StatusBadRequest
		t.Fatalf("status %d (%s), want the shard's bad-request", st, msg)
	}
}

// TestGatewayDeadShardsRefuseAfterBreaker: every dial fails, the fleet
// is exhausted, the client gets a typed busy refusal, and both breakers
// record the failures.
func TestGatewayDeadShardsRefuseAfterBreaker(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Ports 1 and 2: nothing listens there.
	g := New(Config{BreakerThreshold: 1, Metrics: reg},
		Shard{Name: "a", Addr: "127.0.0.1:1"},
		Shard{Name: "b", Addr: "127.0.0.1:2"})
	resp := handleRaw(t, g, []byte{1, 0, 0, 0})
	st, msg := readFailure(t, bytes.NewReader(resp))
	if st != 3 {
		t.Fatalf("status %d (%s), want busy", st, msg)
	}
	for _, name := range []string{"a", "b"} {
		if s := g.BreakerState(name); s != "open" {
			t.Fatalf("shard %s breaker %s after a failed dial at threshold 1", name, s)
		}
	}
	// With both breakers open, the next request is refused without
	// dialing at all.
	resp = handleRaw(t, g, []byte{1, 0, 0, 0})
	if st, _ := readFailure(t, bytes.NewReader(resp)); st != 3 {
		t.Fatalf("status %d with open breakers, want busy", st)
	}
	m := reg.Snapshot().Family(MetricRefused).Metric()
	if m == nil || m.Value != 2 {
		t.Fatalf("refused metric = %+v, want 2", m)
	}
}

// echoShard is a minimal upstream: it consumes the request bytes and
// writes a canned response, exercising the splice without any crypto.
func echoShard(t *testing.T, response []byte) (addr string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				buf := make([]byte, 64)
				conn.Read(buf) //nolint:errcheck // any prefix is enough
				conn.Write(response)
			}(conn)
		}
	}()
	return l.Addr().String()
}

// TestGatewayRerouteMetrics: a tenant whose home shard is dead lands on
// the survivor; the routed and reroutes counters attribute it to the
// serving shard.
func TestGatewayRerouteMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	live := echoShard(t, []byte("pong"))
	g := New(Config{BreakerThreshold: 1, Metrics: reg},
		Shard{Name: "dead", Addr: "127.0.0.1:1"},
		Shard{Name: "live", Addr: live})

	// Find a tenant homed on the dead shard so the request re-routes.
	tenant := ""
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("tenant-%d", i)
		if home, _ := g.ring.Pick(k); home == "dead" {
			tenant = k
			break
		}
	}
	if tenant == "" {
		t.Fatal("no tenant hashes to the dead shard")
	}
	var req bytes.Buffer
	req.Write([]byte{0x31, 0x54, 0x4E, 0x54}) // routeMagic "1TNT"
	binary.Write(&req, binary.LittleEndian, uint16(len(tenant)))
	req.WriteString(tenant)
	binary.Write(&req, binary.LittleEndian, uint64(0))
	req.Write([]byte{1, 0, 0, 0})

	resp := handleRaw(t, g, req.Bytes())
	if !bytes.Equal(resp, []byte("pong")) {
		t.Fatalf("spliced response %q, want pong", resp)
	}
	snap := reg.Snapshot()
	if m := snap.Family(MetricRouted).Metric(telemetry.L("shard", "live")); m == nil || m.Value != 1 {
		t.Fatalf("routed{live} = %+v, want 1", m)
	}
	if m := snap.Family(MetricReroutes).Metric(telemetry.L("shard", "live")); m == nil || m.Value != 1 {
		t.Fatalf("reroutes{live} = %+v, want 1", m)
	}
	if g.BreakerState("dead") != "open" {
		t.Fatalf("dead shard breaker %s, want open", g.BreakerState("dead"))
	}
}

// TestGatewayMembershipErrors pins the fleet-management edges: unnamed
// and duplicate shards, removing an absent shard, probing an absent
// breaker.
func TestGatewayMembershipErrors(t *testing.T) {
	g := New(Config{})
	if err := g.AddShard(Shard{Addr: "x"}); err == nil {
		t.Fatal("unnamed shard accepted")
	}
	if err := g.AddShard(Shard{Name: "a", Addr: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddShard(Shard{Name: "a", Addr: "y"}); err == nil {
		t.Fatal("duplicate shard accepted")
	}
	ctx := context.Background()
	if err := g.RemoveShard(ctx, "ghost"); err == nil {
		t.Fatal("removing an absent shard succeeded")
	}
	if st := g.BreakerState("ghost"); st != "absent" {
		t.Fatalf("absent shard breaker %q", st)
	}
	if err := g.RemoveShard(ctx, "a"); err != nil {
		t.Fatalf("removing an idle shard: %v", err)
	}
	if n := len(g.Shards()); n != 0 {
		t.Fatalf("fleet size %d after removal", n)
	}
}

// TestGatewayShutdown: Serve returns ErrGatewayClosed, a post-shutdown
// Serve refuses, and a post-shutdown Handle sends shutting-down.
func TestGatewayShutdown(t *testing.T) {
	g := New(Config{}, Shard{Name: "a", Addr: "127.0.0.1:1"})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- g.Serve(l) }()
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveErr:
		if !errors.Is(err, ErrGatewayClosed) {
			t.Fatalf("Serve returned %v, want ErrGatewayClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Serve(l2); !errors.Is(err, ErrGatewayClosed) {
		t.Fatalf("post-shutdown Serve returned %v", err)
	}
	resp := handleRaw(t, g, []byte{1, 0, 0, 0})
	if st, _ := readFailure(t, bytes.NewReader(resp)); st != 4 { // mlaas.StatusShuttingDown
		t.Fatalf("post-shutdown Handle status %d, want shutting-down", st)
	}
}

// TestGatewayRollingDrainWaitsForSplices: RemoveShard blocks while the
// shard still holds an active splice and returns a typed error when the
// drain deadline cuts it off.
func TestGatewayRollingDrainWaitsForSplices(t *testing.T) {
	// A shard that never responds keeps the splice open.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			io.Copy(io.Discard, conn) //nolint:errcheck
		}
	}()
	g := New(Config{}, Shard{Name: "slow", Addr: l.Addr().String()})

	gl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(gl) //nolint:errcheck
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		g.Shutdown(ctx) //nolint:errcheck
	}()

	cli, err := net.Dial("tcp", gl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write([]byte{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// Wait until the splice is active.
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		st := g.shards["slow"]
		st.mu.Lock()
		active := st.active
		st.mu.Unlock()
		g.mu.Unlock()
		if active > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("splice never became active")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = g.RemoveShard(ctx, "slow")
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with a live splice returned %v, want deadline error", err)
	}
}
