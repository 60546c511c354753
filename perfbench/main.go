// Command perfbench is the repository benchmark. It measures the
// simulator's own host time and memory (not simulated time) on three
// workloads, each a binary trace generated from --seed and replayed through
// sim.Run, the entry point ftlsim uses:
//
//	fin1-serial       Financial1 on TPFTL, 1 channel x 1 die, QD1, serial
//	randread-sharded  uniform 4 KB reads on TPFTL, 4x2 dies, 2 shards at QD8, live plane
//	fstrim-dftl       Financial1 plus 15% 256 KB trims on DFTL, serial QD1
//
// With --trace 0 it repeats sim.Run for --seconds and reports the medians
// of the end-to-end metrics over the repetitions:
//
//	cpu_us_per_req  process CPU per trace request from the first trace pull
//	                to sim.Run's return (warm-up, replay and consistency check)
//	setup_s         process CPU from trace open to first pull: Format and
//	                preconditioning
//	peak_rss_mb     Go runtime Sys - HeapReleased high-water over the run
//
// Both times are CPU time, which other load on a shared host barely moves
// (see measureEndToEnd); the wall-clock throughput is printed beside them
// and reported per layer as untraced.req_per_s. With --trace 1 it
// alternates sim.Run with a traced replay that builds the same stack from
// public functions, with timing shims around the translator, its Env and
// Device.Serve, and reports per-layer self time and counts. Every
// repetition's simulated fingerprint must match the others and the traced
// replay's; a repetition that errors or differs counts its requests as
// failed.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}}}
//
// Run it through run.sh, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload fin1-serial --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seconds 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: fin1-serial, randread-sharded, fstrim-dftl, or all")
		seed    = flag.Int64("seed", 1, "seed the workload's trace is generated from")
		seconds = flag.Int("seconds", 10, "how long to measure")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced replays")
		cache   = flag.String("cache", filepath.Join(".bench_build", "perfbench"), "directory for generated traces and span files")
	)
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, cache: *cache}
	if *name == "all" {
		if err := runAll(cfg); err != nil {
			fatal(err)
		}
		return
	}
	s, err := specByName(*name)
	if err != nil {
		fatal(err)
	}
	var out *outcome
	if *traced == 1 {
		out, err = measureLayers(s, cfg)
	} else {
		out, err = measureEndToEnd(s, cfg)
	}
	if err != nil {
		fatal(err)
	}
	out.print(s.name)
	if err := out.printJSON(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runAll runs every workload, end to end and then traced, printing each
// table. The last line aggregates them, with metric names prefixed by
// workload.
func runAll(cfg runConfig) error {
	all := &outcome{correct: true}
	for _, s := range specs {
		for _, measure := range []func(spec, runConfig) (*outcome, error){measureEndToEnd, measureLayers} {
			out, err := measure(s, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			out.print(s.name)
			all.correct = all.correct && out.correct
			all.attempted += out.attempted
			all.failed += out.failed
			for _, m := range out.metrics {
				m.name = s.name + "/" + m.name
				all.metrics = append(all.metrics, m)
			}
		}
	}
	return all.printJSON()
}

// metric is one reported figure: the median over a run's repetitions and
// its quartiles.
type metric struct {
	name, unit  string
	med, q1, q3 float64
	n           int
}

// outcome is one run's result.
type outcome struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
	notes             []string
}

func (o *outcome) print(workload string) {
	fmt.Printf("%s: correct=%v attempted=%d failed=%d fail_frac=%.4g\n",
		workload, o.correct, o.attempted, o.failed, float64(o.failed)/float64(max64(o.attempted, 1)))
	fmt.Printf("  %-28s %14s %14s %14s %-8s %s\n", "metric", "median", "q1", "q3", "unit", "n")
	for _, m := range o.metrics {
		fmt.Printf("  %-28s %14.6g %14.6g %14.6g %-8s %d\n", m.name, m.med, m.q1, m.q3, m.unit, m.n)
	}
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
}

func (o *outcome) printJSON() error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(o.metrics))
	for _, m := range o.metrics {
		ms[m.name] = value{m.med, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// summarize returns the median and quartiles of xs, computed as Python's
// statistics.quantiles(xs, n=4) (exclusive method) computes them.
func summarize(name, unit string, xs []float64) metric {
	m := metric{name: name, unit: unit, n: len(xs)}
	if len(xs) == 0 {
		return m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m.q1, m.med, m.q3 = quantile(s, 1), quantile(s, 2), quantile(s, 3)
	return m
}

// quantile returns the k-th quartile of sorted s by the exclusive method.
func quantile(s []float64, k int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := float64(k) * float64(n+1) / 4 // 1-based
	j := int(pos)
	if j < 1 {
		return s[0]
	}
	if j >= n {
		return s[n-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
