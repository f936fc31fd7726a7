package mlaas

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"fxhenn/internal/telemetry"
)

// recordRW captures the request bytes one client exchange writes; its
// read side is empty, so the exchange ends with a transport error right
// after the request is complete.
type recordRW struct{ bytes.Buffer }

func (*recordRW) Read([]byte) (int, error) { return 0, io.EOF }

// snapshotRW replays a recorded request to the server and runs snap on
// the first response Write, before any response byte is accepted — the
// earliest moment a client could hold its answer.
type snapshotRW struct {
	req  io.Reader
	resp bytes.Buffer
	snap func()
}

func (rw *snapshotRW) Read(p []byte) (int, error) { return rw.req.Read(p) }

func (rw *snapshotRW) Write(p []byte) (int, error) {
	if rw.snap != nil {
		rw.snap()
		rw.snap = nil
	}
	return rw.resp.Write(p)
}

// TestAccountedBeforeFirstResponseByte pins the accounting contract:
// Stats, Served, and requests_total{status=ok} have all moved by the time
// the first response byte is written, on the per-request and the batched
// path alike.
func TestAccountedBeforeFirstResponseByte(t *testing.T) {
	img := randomImage(41)
	for _, tc := range []struct {
		name  string
		infer func(fx *batchFixture, rw io.ReadWriter) error
	}{
		{"per-request", func(fx *batchFixture, rw io.ReadWriter) error {
			_, err := fx.client.Infer(context.Background(), rw, img)
			return err
		}},
		{"batched", func(fx *batchFixture, rw io.ReadWriter) error {
			_, err := fx.batchClient(42).Infer(context.Background(), rw, img)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			fx := newBatchFixture(t, Config{Metrics: reg}, 2, time.Millisecond)
			var req recordRW
			if err := tc.infer(fx, &req); err == nil {
				t.Fatal("recording exchange read a response from nowhere")
			}

			var st Stats
			var served int
			var ok int64
			rw := &snapshotRW{req: bytes.NewReader(req.Bytes()), snap: func() {
				st = fx.server.Stats()
				served = fx.server.Served()
				ok = counterValue(t, reg.Snapshot(), MetricRequestsTotal, telemetry.L("status", StatusOK.String()))
			}}
			fx.server.Handle(rw)

			if rw.resp.Len() == 0 || Status(rw.resp.Bytes()[0]) != StatusOK {
				_, err := readStatus(&rw.resp)
				t.Fatalf("exchange did not succeed: %v", err)
			}
			if st.Served != 1 || served != 1 || ok != 1 {
				t.Fatalf("at the first response byte: Stats().Served=%d Served()=%d requests_total{ok}=%d, want 1/1/1",
					st.Served, served, ok)
			}
		})
	}
}

// assertStatsMatchCounters checks the documented Stats mapping against
// the exported per-status counters: Served = ok, BadRequests =
// bad-request + unknown-tenant, Rejected = busy + shutting-down, Panics =
// internal.
func assertStatsMatchCounters(t testing.TB, s *Server, reg *telemetry.Registry) Stats {
	t.Helper()
	snap := reg.Snapshot()
	n := func(st Status) int {
		return int(counterValue(t, snap, MetricRequestsTotal, telemetry.L("status", st.String())))
	}
	got := s.Stats()
	want := Stats{
		Served:      n(StatusOK),
		BadRequests: n(StatusBadRequest) + n(StatusUnknownTenant),
		Rejected:    n(StatusBusy) + n(StatusShuttingDown),
		Panics:      n(StatusInternal),
		Dropped:     got.Dropped,
	}
	if got != want {
		t.Fatalf("Stats() %+v disagrees with the status counters %+v", got, want)
	}
	return got
}
