// Command plantbench is the decode plant's benchmark. It drives the
// plant only through its public functions — syndrome sources
// (spacetime, extract), the streaming decoder (stream.Decoder over
// decoder.Service) and the multi-tenant server (server.Session) — on
// one named workload, checks that the committed frames are correct, and
// prints its metrics by name and unit. The last line of standard output
// is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates traced and untraced units and reports the per-layer
// metrics, measured from this package by timing and counting the calls
// into each layer, plus the tracing overhead. Build and run it from the
// repository root with
//
//	bash plantbench/run.sh --workload stream-circuit-L16 --seed 1 --seconds 30 --trace 0
//
// Workloads, metrics and the layer-to-end-to-end predictions are listed
// in plantbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"ftqc/internal/noise"
)

var workloads = map[string]func(*run){
	"stream-circuit-L16": func(r *run) {
		runStream(r, streamSpec{l: 16, lanes: 64, rounds: 256, P: noise.Uniform(0.003)})
	},
	"serve-fleet-L8": func(r *run) {
		runFleet(r, fleetSpec{l: 8, lanes: 16, rounds: 256, sessions: 32, P: noise.Uniform(0.003)})
	},
}

// Metric names and units: the contract recorded in BENCHMARK.json.
var (
	endToEnd = []metricDef{
		{"shot_rounds_per_s", "1/s"},
		{"rounds_per_s", "1/s"},
		{"reaction_p50_ms", "ms"},
		{"setup_s", "s"},
		{"peak_heap_mb", "MB"},
	}
	perLayer = []metricDef{
		{"source.ns_per_shot_round", "ns"},
		{"source.share", "ratio"},
		{"stream.share", "ratio"},
		{"stream.push_ns", "ns"},
		{"stream.finish_ms", "ms"},
		{"stream.defects_per_shot_round", "count"},
		{"stream.allocs_per_round", "count"},
		{"stream.footprint_bytes", "bytes"},
		{"decoder.submissions_per_slide", "count"},
		{"decoder.shots_per_submission", "count"},
		{"decoder.defects_per_shot", "count"},
		{"decoder.dispatch_us", "us"},
		{"decoder.guarded_share", "ratio"},
		{"decoder.fallback_share", "ratio"},
		{"decoder.skip_share", "ratio"},
		{"decoder.replay_ns_per_shot", "ns"},
		{"server.open_ms", "ms"},
		{"server.submit_us", "us"},
		{"server.submit_share", "ratio"},
		{"server.drain_ms", "ms"},
		{"server.commit_p50_ms", "ms"},
		{"server.commit_p99_ms", "ms"},
		{"server.slides_per_session", "count"},
		{"server.defect_density", "ratio"},
		{"reaction_p90_ms", "ms"},
		{"logical_fail_rate", "ratio"},
		{"trace.overhead_share", "ratio"},
	}
)

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark invocation: its settings, its operation and
// check tallies, and the metrics it measured.
type run struct {
	seed    uint64
	seconds float64
	trace   bool

	attempted, failed int
	values            map[string]float64
}

// op counts one attempted operation and reports whether it succeeded.
func (r *run) op(err error, what string) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "plantbench: %s: %v\n", what, err)
		return false
	}
	return true
}

// check counts one output check.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.op(fmt.Errorf(format, args...), "check failed")
		return
	}
	r.op(nil, "")
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// note prints an informational line (never the last line of output).
func (r *run) note(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	body, ok := workloads[*workload]
	if !ok || flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: plantbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	r := &run{seed: *seed, seconds: *seconds, trace: *trace == 1, values: map[string]float64{}}
	fmt.Printf("# provenance: workload=%s seed=%d trace=%d cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s\n",
		*workload, r.seed, *trace, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitRev())
	body(r)

	defs, others := endToEnd, perLayer
	if r.trace {
		defs, others = perLayer, endToEnd
	}
	for _, d := range others {
		if v, ok := r.values[d.name]; ok {
			r.note("%s %g %s (reported with --trace %d)", d.name, v, d.unit, 1-*trace)
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			r.op(fmt.Errorf("metric %s was not measured", d.name), "report")
			continue
		}
		fmt.Printf("%-32s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	out.Correct = r.failed == 0 && r.attempted > 0
	out.Attempted, out.Failed = r.attempted, r.failed
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plantbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// gitRev reads the checked-out commit from .git in the working
// directory, without running git; "unknown" outside a git checkout.
func gitRev() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}
