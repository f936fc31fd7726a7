package main

// The traced run's in-process evaluation pass: the benchmark encrypts a
// request image itself, evaluates it through CompiledNetwork.Backend
// wrapped in timedBackend under a hecnn.Tracer, and decrypts it. This is
// the evaluate phase of a request, split into layer and op spans.

import (
	"fmt"
	"math/rand"
	"time"

	"fxhenn/internal/accel"
	"fxhenn/internal/ckks"
	"fxhenn/internal/fpga"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/profile"
)

// passResult aggregates the passes of one traced run.
type passResult struct {
	passes      int
	warm        time.Duration
	cacheBytes  int64
	encodeCalls int64     // encoder calls after Warm; must stay 0
	evaluate    []float64 // per pass, seconds
	encrypt     []float64
	decrypt     []float64
	layerWall   map[string][]float64 // per layer, per pass
	layerHOPs   map[string]int
	layerKS     map[string]int
	keyswitches int // per pass
	ops         map[string]*opStat
	layerSum    time.Duration // all passes
	evalSum     time.Duration
	opSum       time.Duration
	verdict     verdict
}

// runPasses evaluates at least one pass, and more while budget lasts.
func runPasses(env *passEnv, log *spanLog, rng *rand.Rand, budget time.Duration) passResult {
	params := env.ctx.Params
	maxBytes := hecnn.AutoPlaintextCacheBytes(env.henet, params, params.MaxLevel())
	cn := hecnn.NewCompiledNetwork(env.henet, params, env.ctx.Encoder, maxBytes)
	r := passResult{
		layerWall: map[string][]float64{},
		layerHOPs: map[string]int{},
		layerKS:   map[string]int{},
		ops:       map[string]*opStat{},
		verdict:   verdict{failures: map[string]int{}},
	}
	start := time.Now()
	cn.Warm(params.MaxLevel())
	r.warm = time.Since(start)
	r.cacheBytes = cn.CacheStats().Bytes
	enc0 := cn.EncodeCalls()

	begin := time.Now()
	for i := 0; i == 0 || time.Since(begin) < budget; i++ {
		img := randomImage(rng, env.pnet)
		trace := fmt.Sprintf("pass-%d", i)

		t := time.Now()
		var cts []*hecnn.CT
		for _, v := range env.henet.PackInput(img) {
			cts = append(cts, env.ctx.EncryptVector(v))
		}
		r.encrypt = append(r.encrypt, time.Since(t).Seconds())

		rec := hecnn.NewRecorder()
		tb := newTimedBackend(cn.Backend(env.ctx, rec), log, trace)
		tr := hecnn.NewTracer(rec)
		tr.Sink = func(ls hecnn.LayerStat) {
			end := time.Now()
			log.add(span{Trace: trace, Name: "hecnn." + ls.Layer, Start: log.at(end.Add(-ls.Wall)), End: log.at(end)})
		}
		t = time.Now()
		out := env.henet.EvaluateTraced(tb, cts, tr)
		end := time.Now()
		log.add(span{Trace: trace, Name: "evaluate", Start: log.at(t), End: log.at(end)})
		r.evaluate = append(r.evaluate, end.Sub(t).Seconds())
		r.evalSum += end.Sub(t)

		t = time.Now()
		got := env.ctx.DecryptVector(out)
		r.decrypt = append(r.decrypt, time.Since(t).Seconds())
		r.verdict.attempted++
		r.verdict.completed++
		r.verdict.observe(env.pnet.Infer(img), got)

		for _, ls := range tr.Stats {
			r.layerWall[ls.Layer] = append(r.layerWall[ls.Layer], ls.Wall.Seconds())
			r.layerHOPs[ls.Layer] = ls.HOPs
			r.layerKS[ls.Layer] = ls.KeySwitches
			r.layerSum += ls.Wall
		}
		r.keyswitches = rec.TotalKeySwitches()
		for name, s := range tb.ops {
			acc := r.ops[name]
			if acc == nil {
				acc = &opStat{}
				r.ops[name] = acc
			}
			acc.ops += s.ops
			acc.dur += s.dur
			r.opSum += s.dur
		}
		r.passes++
	}
	r.encodeCalls = cn.EncodeCalls() - enc0
	return r
}

// modelCycles returns the modeled ACU9EG cycles per layer of the
// accelerator generated for henet's dry-run profile (the hemodel
// equations through accel's per-layer report).
func modelCycles(henet *hecnn.Network, params ckks.Parameters) (map[string]int64, error) {
	prof := profile.FromRecorder("perfbench-"+henet.Name, henet.Count(params.MaxLevel()),
		params.LogN, params.L, params.QBits, 128)
	design, err := accel.Generate(prof, fpga.ACU9EG)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, lr := range design.PerLayer() {
		out[lr.Name] = lr.Cycles
	}
	return out, nil
}

// countPins returns the exact, seed-independent op counts of one
// evaluation of henet: per-layer HOPs and keyswitches and per-op totals.
func countPins(henet *hecnn.Network, params ckks.Parameters) map[string]int64 {
	pins := map[string]int64{}
	rec := henet.Count(params.MaxLevel())
	for _, le := range rec.Layers {
		pins["hecnn."+le.Layer+".hops"] = int64(le.HOPs())
		pins["hecnn."+le.Layer+".keyswitches"] = int64(le.KeySwitches())
		for _, e := range le.Events {
			pins["ckks.op."+e.Op.String()]++
		}
	}
	return pins
}
