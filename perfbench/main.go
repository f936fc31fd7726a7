// Command perfbench is the repository benchmark. For one workload it
// starts the serving stack in-process, drives a closed loop of encrypted
// inferences over loopback TCP, checks every answer against plaintext
// inference, and prints one JSON result line. An untraced run
// (--trace 0) reports the end-to-end metrics; a traced run (--trace 1)
// reports the per-layer metrics from spans the benchmark records around
// its calls into each module. See README.md for the workloads and the
// metric map.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload mnist-bsgs --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --compare parent/runs.jsonl change/runs.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fxhenn/internal/gateway"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/mlaas"
	"fxhenn/internal/telemetry"
)

// workload is one benchmark traffic mix. A run builds its stack
// setupRounds times (cheap set-ups more often, to steady the median);
// setup_s is the median, and the last stack serves the timed phase.
type workload struct {
	name        string
	setupRounds int
	build       func(stackConfig) (*stack, error)
}

var workloads = []workload{
	{"mnist-bsgs", 3, func(c stackConfig) (*stack, error) { return buildMNIST(c, hecnn.Options{BSGS: true}) }},
	{"mnist-ladder", 3, func(c stackConfig) (*stack, error) { return buildMNIST(c, hecnn.Options{}) }},
	{"tiny-cluster", 11, buildCluster},
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: mnist-bsgs, mnist-ladder or tiny-cluster")
	seed := flag.Int64("seed", 1, "workload seed: images and encryption randomness")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/perfbench", "directory for the run history and span files")
	compare := flag.Bool("compare", false, "compare the two run-history files given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare needs two run-history files")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	wl, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rec, err := run(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	rec.Seconds = *seconds

	hist := filepath.Join(*out, "runs.jsonl")
	if err := appendRecord(hist, rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: history: %v\n", err)
	} else if recs, err := loadRecords(hist); err == nil {
		summarize(os.Stderr, recs, rec)
	}

	line, err := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// setup builds the workload's stack setupRounds times, tearing down all
// but the last, and returns it with every round's set-up time.
func setup(wl workload, cfg stackConfig) (*stack, []time.Duration, error) {
	var (
		st    *stack
		times []time.Duration
	)
	for i := 0; i < wl.setupRounds; i++ {
		if st != nil {
			st.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if st, err = wl.build(cfg); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start))
	}
	return st, times, nil
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// procSample is process-wide resource use at one instant.
type procSample struct {
	at       time.Time
	cpu      time.Duration // user + system
	alloc    uint64        // cumulative heap bytes allocated
	gcCPU    float64       // runtime/metrics estimates, seconds
	totalCPU float64
	steal    float64 // host-wide CPU seconds the hypervisor withheld
}

func sampleProc() procSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rm := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(rm)
	return procSample{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		gcCPU:    rm[0].Value.Float64(),
		totalCPU: rm[1].Value.Float64(),
		steal:    stealSeconds(),
	}
}

// stealShare is the host CPU steal since p0 as a share of all CPUs' time.
func (p procSample) stealShare(p0 procSample) float64 {
	return (p.steal - p0.steal) / (float64(runtime.NumCPU()) * p.at.Sub(p0.at).Seconds())
}

// stealSeconds reads the host's cumulative steal time from /proc/stat
// (0 where it is not reported). Steal stretches wall-clock metrics while
// CPU-second metrics stay put, so the run record keeps it.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// rssPeakMiB reads the process's peak resident set (VmHWM).
func rssPeakMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// connRNGs returns one image source per connection slot.
func connRNGs(seed int64, n int) []*rand.Rand {
	out := make([]*rand.Rand, n)
	for i := range out {
		out[i] = rand.New(rand.NewSource(seed*7919 + int64(i)))
	}
	return out
}

func run(wl workload, seed int64, dur time.Duration, traced bool, outDir string) (runRecord, error) {
	rec := runRecord{Host: hostFingerprint(), Workload: wl.name, Seed: seed}
	if traced {
		rec.Trace = 1
	}
	st, setups, err := setup(wl, stackConfig{seed: seed, traced: traced})
	if err != nil {
		return rec, err
	}
	rec.Setups = durSeconds(setups)
	defer st.close()
	env, err := st.pass()
	if err != nil {
		return rec, err
	}
	rec.Pins = countPins(env.henet, env.ctx.Params)

	var v verdict
	var samples []sample
	if !traced {
		p0 := sampleProc()
		samples = st.loop(dur, connRNGs(seed, len(st.clients)), false)
		p1 := sampleProc()
		rec.StealShare = p1.stealShare(p0)
		v = st.check(samples)
		lat := latencies(samples)
		n := float64(max(v.completed, 1))
		rec.Metrics = map[string]metricValue{
			"setup_s":              {median(rec.Setups), "s"},
			"latency_p50_s":        {median(lat), "s"},
			"latency_p99_s":        {nearestRank(lat, 0.99), "s"},
			"throughput_rps":       {float64(v.completed) / p1.at.Sub(p0.at).Seconds(), "1/s"},
			"logit_precision_bits": {-math.Log2(v.rmsErr()), "bits"},
			"cpu_s_per_req":        {(p1.cpu - p0.cpu).Seconds() / n, "s"},
			"alloc_mb_per_req":     {float64(p1.alloc-p0.alloc) / n / (1 << 20), "MB"},
			"rss_peak_mb":          {rssPeakMiB(), "MB"},
		}
	} else {
		v, samples, err = tracedRun(st, env, seed, dur, &rec, outDir)
		if err != nil {
			return rec, err
		}
	}
	for _, s := range samples {
		if s.err == nil {
			rec.Pins[fmt.Sprintf("mlaas.wire.up_bytes.%d", s.tenant)] = s.up
			rec.Pins[fmt.Sprintf("mlaas.wire.down_bytes.%d", s.tenant)] = s.down
		}
	}

	rec.Attempted = v.attempted
	rec.Failed = v.attempted - v.completed
	rec.ErrorRate = float64(rec.Failed) / float64(max(v.attempted, 1))
	rec.Failures = v.failures
	rec.MaxErr = v.maxErr
	rec.Correct = v.ok()
	if lat := latencies(samples); len(lat) > 0 {
		q1, q3 := quartiles(lat)
		s := sorted(lat)
		fmt.Fprintf(os.Stderr, "perfbench: latency s: min %.4g q1 %.4g median %.4g q3 %.4g max %.4g over %d requests\n",
			s[0], q1, median(lat), q3, s[len(s)-1], len(s))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d: %d attempted, %d completed, failures %v, top-1 mismatches %d, max logit error %.3g, host CPU steal %.1f%%\n",
		wl.name, seed, v.attempted, v.completed, v.failures, v.mismatches, v.maxErr, 100*rec.StealShare)
	if err := checkNames(rec.Metrics, traced); err != nil {
		return rec, err
	}
	return rec, nil
}

// checkNames fails a run whose metrics are not exactly the declared list.
func checkNames(m map[string]metricValue, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(m) != len(defs) {
		return fmt.Errorf("reported %d metrics, declared %d", len(m), len(defs))
	}
	for _, d := range defs {
		got, ok := m[d.name]
		if !ok || got.Unit != d.unit {
			return fmt.Errorf("metric %s (%s) missing or with another unit", d.name, d.unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, got.Value)
		}
	}
	return nil
}

// famDelta is one metric family's change between two snapshots,
// summed over shards: counters and gauges by Value, histograms by Count
// and Sum. Labels filter by key=value pairs.
type famDelta struct{ value, count, sum float64 }

func familyTotal(snaps []telemetry.Snapshot, family string, labels ...telemetry.Label) famDelta {
	var d famDelta
	for _, s := range snaps {
		f := s.Family(family)
		if f == nil {
			continue
		}
		for _, m := range f.Metrics {
			match := true
			for _, l := range labels {
				if m.Get(l.Key) != l.Value {
					match = false
				}
			}
			if match {
				d.value += m.Value
				d.count += float64(m.Count)
				d.sum += m.Sum
			}
		}
	}
	return d
}

func (a famDelta) minus(b famDelta) famDelta {
	return famDelta{a.value - b.value, a.count - b.count, a.sum - b.sum}
}

func (d famDelta) mean() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / d.count
}

func snapshots(regs []*telemetry.Registry) []telemetry.Snapshot {
	out := make([]telemetry.Snapshot, len(regs))
	for i, r := range regs {
		out[i] = r.Snapshot()
	}
	return out
}

// segment is one traced stretch of the closed loop: the shard metrics
// and process resource use at its ends.
type segment struct {
	before, after []telemetry.Snapshot
	p0, p1        procSample
}

// segmentDelta sums a metric family's change over the traced segments.
func segmentDelta(segs []segment, family string, labels ...telemetry.Label) famDelta {
	var d famDelta
	for _, s := range segs {
		x := familyTotal(s.after, family, labels...).minus(familyTotal(s.before, family, labels...))
		d = famDelta{d.value + x.value, d.count + x.count, d.sum + x.sum}
	}
	return d
}

// tracedRun measures the per-layer metrics. The timed phase is split:
// the closed loop without and with spans, alternating in four stretches
// of 20% so that drift over the run does not bias trace.overhead_ratio,
// then in-process evaluation passes (the rest, at least one).
func tracedRun(st *stack, env *passEnv, seed int64, dur time.Duration, rec *runRecord, outDir string) (verdict, []sample, error) {
	stretch := dur / 5
	rngs := connRNGs(seed, len(st.clients))
	var (
		plain, traced []sample
		segs          []segment
	)
	for i := 0; i < 2; i++ {
		plain = append(plain, st.loop(stretch, rngs, false)...)
		seg := segment{before: snapshots(st.shardMet), p0: sampleProc()}
		st.tracing.Store(true)
		traced = append(traced, st.loop(stretch, rngs, true)...)
		st.tracing.Store(false)
		seg.p1, seg.after = sampleProc(), snapshots(st.shardMet)
		segs = append(segs, seg)
	}
	var cpu, wall, gcCPU, totalCPU, steal float64
	for _, s := range segs {
		cpu += (s.p1.cpu - s.p0.cpu).Seconds()
		wall += s.p1.at.Sub(s.p0.at).Seconds()
		gcCPU += s.p1.gcCPU - s.p0.gcCPU
		totalCPU += s.p1.totalCPU - s.p0.totalCPU
		steal += s.p1.steal - s.p0.steal
	}
	rec.StealShare = steal / (float64(runtime.NumCPU()) * wall)

	pr := runPasses(env, st.log, rand.New(rand.NewSource(seed*7919+977)), dur-4*stretch)
	cycles, err := modelCycles(env.henet, env.ctx.Params)
	if err != nil {
		return verdict{}, nil, err
	}

	spans := st.log.snapshot()
	spans = linkRequests(spans)
	linkPasses(spans)
	linkOps(spans)
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", rec.Workload, seed))
	if err := writeSpans(path, spans); err != nil {
		return verdict{}, nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(spans), path)

	v := st.check(plain)
	v.merge(st.check(traced))
	v.merge(pr.verdict)

	m := map[string]metricValue{}
	set := func(name, unit string, x float64) { m[name] = metricValue{x, unit} }

	// hecnn layers and the hemodel reference column.
	for _, l := range hecnnLayers {
		set("hecnn."+l+".wall_s", "s", median(pr.layerWall[l]))
		set("hecnn."+l+".hops", "count", float64(pr.layerHOPs[l]))
		set("hecnn."+l+".keyswitches", "count", float64(pr.layerKS[l]))
		set("hemodel."+l+".model_cycles", "cycles", float64(cycles[l]))
	}
	set("hecnn.evaluate_s", "s", median(pr.evaluate))
	set("hecnn.cache.warm_s", "s", pr.warm.Seconds())
	set("hecnn.cache.bytes", "bytes", float64(pr.cacheBytes))
	set("hecnn.cache.encode_calls", "count", float64(pr.encodeCalls))

	// ckks ops, per pass.
	passes := float64(pr.passes)
	op := func(names ...string) (ops int, d time.Duration) {
		for _, n := range names {
			if s := pr.ops[n]; s != nil {
				ops += s.ops
				d += s.dur
			}
		}
		return
	}
	pcN, pcD := op("pcmult")
	_, rotD := op("rotate")
	_, sqD := op("square")
	_, rsD := op("rescale")
	_, addD := op("pcadd", "ccadd")
	set("ckks.pcmult_s", "s", pcD.Seconds()/passes)
	set("ckks.pcmult_count", "count", float64(pcN)/passes)
	set("ckks.pcmult_us_per_op", "us", ratio(pcD.Seconds()*1e6, float64(pcN)))
	set("ckks.rotate_s", "s", rotD.Seconds()/passes)
	set("ckks.keyswitch_count", "count", float64(pr.keyswitches))
	set("ckks.keyswitch_ms_per_op", "ms", ratio((rotD+sqD).Seconds()*1e3/passes, float64(pr.keyswitches)))
	set("ckks.square_s", "s", sqD.Seconds()/passes)
	set("ckks.rescale_s", "s", rsD.Seconds()/passes)
	set("ckks.add_s", "s", addD.Seconds()/passes)
	set("ckks.client_encrypt_s", "s", median(pr.encrypt))
	set("ckks.client_decrypt_s", "s", median(pr.decrypt))
	set("ckks.keygen_s", "s", env.keygen.Seconds())

	// mlaas server phases over the traced loop, from the existing
	// histograms; handle and gateway times from the spans.
	phase := func(p string) float64 {
		return segmentDelta(segs, mlaas.MetricPhaseSeconds, telemetry.L("phase", p)).mean()
	}
	self := selfByName(spans)
	var handle, gw []float64
	for _, s := range spans {
		switch s.Name {
		case "server.handle":
			handle = append(handle, s.dur().Seconds())
		case "gateway.handle":
			gw = append(gw, s.dur().Seconds())
		}
	}
	set("mlaas.server.handle_s", "s", mean(handle))
	for _, p := range []string{"queue", "decode", "validate", "evaluate", "encode"} {
		set("mlaas.server."+p+"_s", "s", phase(p))
	}
	set("mlaas.server.self_s", "s", mean(handle)-phase("evaluate"))
	set("mlaas.server.busy_total", "count", familyTotal(snapshots(st.shardMet), mlaas.MetricRequestsTotal,
		telemetry.L("status", mlaas.StatusBusy.String())).value)
	var up, down []float64
	for _, s := range traced {
		if s.err == nil {
			up = append(up, float64(s.up))
			down = append(down, float64(s.down))
		}
	}
	set("mlaas.wire.up_bytes", "bytes", mean(up))
	set("mlaas.wire.down_bytes", "bytes", mean(down))
	set("mlaas.batch.occupancy_mean", "count", segmentDelta(segs, mlaas.MetricBatchOccupancy).mean())
	set("mlaas.batch.window_flush_share", "ratio", ratio(
		segmentDelta(segs, mlaas.MetricBatchFlushes, telemetry.L("reason", "window")).value,
		segmentDelta(segs, mlaas.MetricBatchFlushes).value))
	first := st.firstRequest
	if first == 0 && len(plain) > 0 {
		first = plain[0].lat // no warm-up request: the run's first request
	}
	set("mlaas.tenant.first_request_s", "s", first.Seconds())

	gwAfter := st.gwMet.Snapshot()
	set("gateway.handle_s", "s", mean(gw))
	set("gateway.self_s", "s", self["gateway.handle"].Seconds()/float64(max(len(gw), 1)))
	set("gateway.reroutes_total", "count", familyTotal([]telemetry.Snapshot{gwAfter}, gateway.MetricReroutes).value)
	set("gateway.refused_total", "count", familyTotal([]telemetry.Snapshot{gwAfter}, gateway.MetricRefused).value)

	set("parallel.cpu_util", "ratio", cpu/wall)
	set("proc.gc_cpu_share", "ratio", ratio(gcCPU, totalCPU))
	set("trace.overhead_ratio", "ratio", ratio(median(latencies(traced)), median(latencies(plain))))
	set("trace.ops_over_layers", "ratio", ratio(pr.opSum.Seconds(), pr.layerSum.Seconds()))
	set("trace.layers_over_evaluate", "ratio", ratio(pr.layerSum.Seconds(), pr.evalSum.Seconds()))
	for _, name := range []string{"trace.ops_over_layers", "trace.layers_over_evaluate"} {
		if r := m[name].Value; r < 0.9 || r > 1.1 {
			fmt.Fprintf(os.Stderr, "perfbench: warning: %s = %.3f: the spans do not account for the time within 10%%\n", name, r)
		}
	}

	rec.Metrics = m
	rec.Pins["hecnn.cache.encode_calls"] = pr.encodeCalls
	for name, s := range pr.ops {
		rec.Pins["ckks.backend."+name] = int64(s.ops) / int64(pr.passes)
	}
	return v, append(plain, traced...), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// linkPasses hangs each pass's layer spans under its evaluate span.
func linkPasses(spans []span) {
	root := map[string]int{}
	for _, s := range spans {
		if s.Name == "evaluate" {
			root[s.Trace] = s.ID
		}
	}
	for i := range spans {
		if strings.HasPrefix(spans[i].Name, "hecnn.") {
			spans[i].Parent = root[spans[i].Trace]
		}
	}
}
