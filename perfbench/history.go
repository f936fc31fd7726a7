package main

// Run history: every run appends one record — host fingerprint, seed,
// metrics and exact-count pins — to runs.jsonl in the output directory.
// A run then reports each metric's median and quartiles over the
// history's runs of the same workload, mode and host, and flags pins
// that moved. --compare does the same across two history files.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

type fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runRecord struct {
	Host      fingerprint    `json:"host"`
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   int            `json:"seconds"`
	Trace     int            `json:"trace"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	ErrorRate float64        `json:"error_rate"`
	Failures  map[string]int `json:"failures,omitempty"`
	MaxErr    float64        `json:"logit_max_abs_err"`
	Setups    []float64      `json:"setup_rounds_s"`
	// StealShare is the host CPU steal over the timed phase, as a share
	// of all CPUs' time.
	StealShare float64                `json:"steal_share"`
	Metrics    map[string]metricValue `json:"metrics"`
	Pins       map[string]int64       `json:"pins"`
}

func (r runRecord) group() string { return fmt.Sprintf("%s trace=%d", r.Workload, r.Trace) }

func appendRecord(path string, r runRecord) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// spread summarises one metric over runs.
type spread struct {
	n              int
	median, q1, q3 float64
}

func spreadOf(xs []float64) spread {
	q1, q3 := quartiles(xs)
	return spread{n: len(xs), median: median(xs), q1: q1, q3: q3}
}

// summarize writes each metric's median and quartiles over the records
// of cur's workload, mode and host, notes runs on other hosts, and
// reports pins that differ from the previous run of the same group.
func summarize(w io.Writer, recs []runRecord, cur runRecord) {
	var same []runRecord
	others := map[fingerprint]int{}
	for _, r := range recs {
		if r.group() != cur.group() {
			continue
		}
		if r.Host == cur.Host {
			same = append(same, r)
		} else {
			others[r.Host]++
		}
	}
	fmt.Fprintf(w, "perfbench: %s on %s (GOMAXPROCS=%d NumCPU=%d %s), %d run(s) in history\n",
		cur.group(), cur.Host.CPUModel, cur.Host.GOMAXPROCS, cur.Host.NumCPU, cur.Host.GoVersion, len(same))
	for h, n := range others {
		fmt.Fprintf(w, "perfbench: %d run(s) of %s on a different host (%s, GOMAXPROCS=%d, %s) are left out\n",
			n, cur.group(), h.CPUModel, h.GOMAXPROCS, h.GoVersion)
	}
	writeSpreads(w, same)
	if len(same) >= 2 {
		writePinDiff(w, same[len(same)-2].Pins, cur.Pins)
	}
}

func metricNames(recs []runRecord) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range recs {
		for k := range r.Metrics {
			if !seen[k] {
				seen[k] = true
				names = append(names, k)
			}
		}
	}
	sort.Strings(names)
	return names
}

func spreadsOf(recs []runRecord) map[string]spread {
	out := map[string]spread{}
	for _, name := range metricNames(recs) {
		var xs []float64
		for _, r := range recs {
			if m, ok := r.Metrics[name]; ok {
				xs = append(xs, m.Value)
			}
		}
		out[name] = spreadOf(xs)
	}
	return out
}

func writeSpreads(w io.Writer, recs []runRecord) {
	sp := spreadsOf(recs)
	for _, name := range metricNames(recs) {
		s := sp[name]
		fmt.Fprintf(w, "  %-36s n=%-3d median=%-12.6g q1=%-12.6g q3=%-12.6g\n", name, s.n, s.median, s.q1, s.q3)
	}
}

// writePinDiff reports exact counts that differ: a different count means
// the program changed, whatever the timings say.
func writePinDiff(w io.Writer, prev, cur map[string]int64) {
	keys := map[string]bool{}
	for k := range prev {
		keys[k] = true
	}
	for k := range cur {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		a, okA := prev[k]
		b, okB := cur[k]
		if okA && okB && a != b {
			diffs = append(diffs, fmt.Sprintf("%s %d -> %d", k, a, b))
		}
	}
	sort.Strings(diffs)
	if len(diffs) == 0 {
		fmt.Fprintln(w, "perfbench: exact counts unchanged")
		return
	}
	fmt.Fprintf(w, "perfbench: PROGRAM CHANGED — %d exact count(s) differ: %s\n", len(diffs), strings.Join(diffs, "; "))
}

// compareFiles compares two history files group by group: fingerprints,
// each metric's median and quartiles on both sides, and exact counts.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadRecords(pathA)
	if err != nil {
		return err
	}
	b, err := loadRecords(pathB)
	if err != nil {
		return err
	}
	groups := func(rs []runRecord) map[string][]runRecord {
		m := map[string][]runRecord{}
		for _, r := range rs {
			m[r.group()] = append(m[r.group()], r)
		}
		return m
	}
	ga, gb := groups(a), groups(b)
	var names []string
	for g := range ga {
		if _, ok := gb[g]; ok {
			names = append(names, g)
		}
	}
	sort.Strings(names)
	for _, g := range names {
		ra, rb := ga[g], gb[g]
		fmt.Fprintf(w, "== %s (A: %d runs, B: %d runs)\n", g, len(ra), len(rb))
		ha, hb := hosts(ra), hosts(rb)
		if ha != hb {
			fmt.Fprintf(w, "   host fingerprints differ: A %s; B %s — timings are not comparable\n", ha, hb)
		}
		sa, sb := spreadsOf(ra), spreadsOf(rb)
		for _, name := range metricNames(append(append([]runRecord(nil), ra...), rb...)) {
			x, y := sa[name], sb[name]
			change := "n/a"
			if x.median != 0 && x.n > 0 && y.n > 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(y.median-x.median)/x.median)
			}
			fmt.Fprintf(w, "   %-36s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  %s\n",
				name, x.median, x.q1, x.q3, y.median, y.q1, y.q3, change)
		}
		writePinDiff(w, ra[len(ra)-1].Pins, rb[len(rb)-1].Pins)
	}
	return nil
}

func hosts(rs []runRecord) string {
	set := map[string]bool{}
	for _, r := range rs {
		set[fmt.Sprintf("%s/GOMAXPROCS=%d/%s", r.Host.CPUModel, r.Host.GOMAXPROCS, r.Host.GoVersion)] = true
	}
	var out []string
	for h := range set {
		out = append(out, h)
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}
