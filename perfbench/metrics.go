package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json: an untraced run
// prints exactly endToEnd, a traced run exactly perLayer
// (TestMetricNamesMatchBenchmarkJSON pins the match).
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_s", "s"},
	{"latency_p99_s", "s"},
	{"throughput_rps", "1/s"},
	{"logit_precision_bits", "bits"},
	{"cpu_s_per_req", "s"},
	{"alloc_mb_per_req", "MB"},
	{"rss_peak_mb", "MB"},
}

// hecnnLayers are the compiled layers every workload's traced pass
// evaluates: the MNIST network and the tiny network share the names.
var hecnnLayers = []string{"Cnv1", "Act1", "Fc1", "Act2", "Fc2"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	for _, l := range hecnnLayers {
		out = append(out,
			metricDef{"hecnn." + l + ".wall_s", "s"},
			metricDef{"hecnn." + l + ".hops", "count"},
			metricDef{"hecnn." + l + ".keyswitches", "count"},
			metricDef{"hemodel." + l + ".model_cycles", "cycles"})
	}
	return append(out,
		metricDef{"hecnn.evaluate_s", "s"},
		metricDef{"hecnn.cache.warm_s", "s"},
		metricDef{"hecnn.cache.bytes", "bytes"},
		metricDef{"hecnn.cache.encode_calls", "count"},
		metricDef{"ckks.pcmult_s", "s"},
		metricDef{"ckks.pcmult_count", "count"},
		metricDef{"ckks.pcmult_us_per_op", "us"},
		metricDef{"ckks.rotate_s", "s"},
		metricDef{"ckks.keyswitch_count", "count"},
		metricDef{"ckks.keyswitch_ms_per_op", "ms"},
		metricDef{"ckks.square_s", "s"},
		metricDef{"ckks.rescale_s", "s"},
		metricDef{"ckks.add_s", "s"},
		metricDef{"ckks.client_encrypt_s", "s"},
		metricDef{"ckks.client_decrypt_s", "s"},
		metricDef{"ckks.keygen_s", "s"},
		metricDef{"mlaas.server.handle_s", "s"},
		metricDef{"mlaas.server.queue_s", "s"},
		metricDef{"mlaas.server.decode_s", "s"},
		metricDef{"mlaas.server.validate_s", "s"},
		metricDef{"mlaas.server.evaluate_s", "s"},
		metricDef{"mlaas.server.encode_s", "s"},
		metricDef{"mlaas.server.self_s", "s"},
		metricDef{"mlaas.server.busy_total", "count"},
		metricDef{"mlaas.wire.up_bytes", "bytes"},
		metricDef{"mlaas.wire.down_bytes", "bytes"},
		metricDef{"mlaas.batch.occupancy_mean", "count"},
		metricDef{"mlaas.batch.window_flush_share", "ratio"},
		metricDef{"mlaas.tenant.first_request_s", "s"},
		metricDef{"gateway.handle_s", "s"},
		metricDef{"gateway.self_s", "s"},
		metricDef{"gateway.reroutes_total", "count"},
		metricDef{"gateway.refused_total", "count"},
		metricDef{"parallel.cpu_util", "ratio"},
		metricDef{"proc.gc_cpu_share", "ratio"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"trace.ops_over_layers", "ratio"},
		metricDef{"trace.layers_over_evaluate", "ratio"},
	)
}

// median returns the middle value (mean of the middle two for an even
// count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile by the nearest-rank rule: the
// smallest sample with at least q of the samples at or below it.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles returns the first and third quartile with the "exclusive"
// method of Python's statistics.quantiles(n=4), the rule the benchmark's
// spread check is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// CPython's exclusive method, integer arithmetic included.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
