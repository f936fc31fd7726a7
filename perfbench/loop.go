package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"fxhenn/internal/cnn"
	"fxhenn/internal/mlaas"
)

// sample is one request of a closed loop.
type sample struct {
	tenant   int
	img      *cnn.Tensor
	logits   []float64
	start    time.Time
	lat      time.Duration // client-observed, dial included
	err      error
	up, down int64 // wire bytes of this request
}

// request sends one inference for tenant t on connection slot c.
func (st *stack) request(c, t int, img *cnn.Tensor, traced bool) sample {
	cl := st.clients[c][t]
	up0, down0 := wireBytes(cl)
	s := sample{tenant: t, img: img, start: time.Now()}
	ctx, cancel := context.WithTimeout(context.Background(), st.timeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", st.addr)
	if err != nil {
		s.err, s.lat = err, time.Since(s.start)
		return s
	}
	dialed := time.Now()
	var hc *hashConn
	if traced {
		hc = &hashConn{Conn: conn, writes: true}
		s.logits, s.err = cl.Infer(ctx, hc, img)
	} else {
		s.logits, s.err = cl.Infer(ctx, conn, img)
	}
	conn.Close()
	end := time.Now()
	s.lat = end.Sub(s.start)
	up1, down1 := wireBytes(cl)
	s.up, s.down = up1-up0, down1-down0
	if traced {
		// The client packs and encrypts before its first write and
		// decrypts after its last read.
		id, port := hc.id(), portOf(conn.LocalAddr())
		st.log.add(span{Trace: id, Name: "client.infer", Start: st.log.at(s.start), End: st.log.at(end), Key: port})
		if !hc.firstWrite.IsZero() {
			st.log.add(span{Trace: id, Name: "client.encrypt", Start: st.log.at(dialed), End: st.log.at(hc.firstWrite), Key: port})
		}
		if !hc.lastRead.IsZero() {
			st.log.add(span{Trace: id, Name: "client.decrypt", Start: st.log.at(hc.lastRead), End: st.log.at(end), Key: port})
		}
	}
	return s
}

// loop runs one closed-loop client per connection slot for dur: each
// sends its next request when the previous one has completed, cycling
// through the tenants, and sends at least one. Images come from rngs,
// one per slot, so a seed fixes every input.
func (st *stack) loop(dur time.Duration, rngs []*rand.Rand, traced bool) []sample {
	per := make([][]sample, len(st.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range st.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i == 0 || time.Since(start) < dur; i++ {
				t := (c + i) % len(st.tenants)
				img := randomImage(rngs[c], st.tenants[t].pnet)
				per[c] = append(per[c], st.request(c, t, img, traced))
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// randomImage draws pixels uniformly from [0, 1).
func randomImage(rng *rand.Rand, pnet *cnn.Network) *cnn.Tensor {
	img := cnn.NewTensor(pnet.InC, pnet.InH, pnet.InW)
	for i := range img.Data {
		img.Data[i] = rng.Float64()
	}
	return img
}

// failureLabel names a failed request by its typed status.
func failureLabel(err error) string {
	var se *mlaas.StatusError
	if errors.As(err, &se) {
		return se.Code.String()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "timeout"
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	var te *mlaas.TransportError
	if errors.As(err, &te) {
		return "transport"
	}
	var oe *net.OpError
	if errors.As(err, &oe) && oe.Op == "dial" {
		return "dial"
	}
	return "other"
}

// verdict is the correctness gate over a set of requests.
type verdict struct {
	attempted, completed int
	failures             map[string]int
	mismatches           int     // top-1 disagreements with plaintext inference
	maxErr               float64 // max |decrypted - plaintext| logit
	sqErr                float64 // sum of squared logit errors
	logits               int     // logits compared
}

// rmsErr is the root-mean-square logit error.
func (v verdict) rmsErr() float64 { return math.Sqrt(v.sqErr / float64(max(v.logits, 1))) }

// check compares every completed request's logits with plaintext
// inference on the same image.
func (st *stack) check(samples []sample) verdict {
	v := verdict{failures: map[string]int{}}
	for _, s := range samples {
		v.attempted++
		if s.err != nil {
			v.failures[failureLabel(s.err)]++
			continue
		}
		v.completed++
		v.observe(st.tenants[s.tenant].pnet.Infer(s.img), s.logits)
	}
	return v
}

func (v *verdict) observe(want, got []float64) {
	if len(got) < len(want) || cnn.Argmax(got[:len(want)]) != cnn.Argmax(want) {
		v.mismatches++
		if len(got) < len(want) {
			return
		}
	}
	for i := range want {
		d := got[i] - want[i]
		v.maxErr = math.Max(v.maxErr, math.Abs(d))
		v.sqErr += d * d
		v.logits++
	}
}

func (v verdict) ok() bool { return v.completed > 0 && v.mismatches == 0 }

func (v *verdict) merge(o verdict) {
	v.attempted += o.attempted
	v.completed += o.completed
	v.mismatches += o.mismatches
	v.maxErr = math.Max(v.maxErr, o.maxErr)
	v.sqErr += o.sqErr
	v.logits += o.logits
	for k, n := range o.failures {
		v.failures[k] += n
	}
}

// latencies returns the completed requests' latencies in seconds.
func latencies(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if s.err == nil {
			out = append(out, s.lat.Seconds())
		}
	}
	return out
}
