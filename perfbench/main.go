// Command perfbench is the repository benchmark. It drives seeded
// workloads through the public xehe API on a one-shard Device1
// cluster, checks every output bit-for-bit against the serial
// GPUEvaluator path, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the end-to-end metrics with tracing off;
// with --trace 1 it runs the same workload traced (plus an untraced
// pass, a host-only pass and per-layer probes) and reports per-layer
// metrics. README.md in this directory documents every workload and
// metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order with their sample counts.
type report struct {
	names   []string
	metrics map[string]metric
	samples map[string]int
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

// add records a metric measured over n samples.
func (r *report) add(name string, v float64, unit string, n int) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// print writes one human-readable line per metric.
func (r *report) print() {
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Printf("%-44s %14.6g %-8s n=%d\n", name, m.Value, m.Unit, r.samples[name])
	}
}

// verdict accumulates wrong outputs and broken invariants. A run with
// any entry exits non-zero.
type verdict struct {
	attempted, failed int64
	problems          []string
}

// wrong records a failed check.
func (v *verdict) wrong(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// expect records a failed check unless ok holds.
func (v *verdict) expect(ok bool, format string, args ...any) {
	if !ok {
		v.wrong(format, args...)
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "measured host seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}

	rep := newReport()
	v := &verdict{}
	var err error
	if *trace == 0 {
		err = endToEnd(w, *seed, *seconds, rep, v)
	} else {
		err = perLayer(w, *seed, *seconds, rep, v)
	}
	for _, p := range v.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, p)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print()
	res := result{
		Correct:   len(v.problems) == 0,
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics:   rep.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// errNoJobs reports a measured window that completed nothing.
var errNoJobs = errors.New("no job completed in the measured window")
