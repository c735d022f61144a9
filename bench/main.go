// Command bench is the repository's benchmark: one workload per
// process, GOMAXPROCS=2, wall clock.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace 0   end-to-end metrics, tracing off
//	bench -workload <name> -seed <n> -seconds <s> -trace 1   per-layer metrics and a Chrome trace
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it carries
// the environment, the output checks and params_fnv64. BENCHMARK.json
// at the repository root and README.md in this directory say what the
// workloads and metrics are and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef names one metric and its unit. The two tables below are
// the benchmark's whole vocabulary; BENCHMARK.json must list exactly
// these (pinned by TestManifestMatchesCommand).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"samples_per_s", "samples/s"},
	{"time_to_target_s", "s"},
	{"final_test_acc", "fraction"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"data.batch_us", "us"},
	{"nn.forward_ms", "ms"},
	{"nn.backward_ms", "ms"},
	{"tensor.gemm_gflops", "GFLOP/s"},
	{"tensor.gemv_gbps", "GB/s"},
	{"tensor.axpy_gbps", "GB/s"},
	{"core.local_step_us", "us"},
	{"core.agg_apply_us", "us"},
	{"core.step_ms", "ms"},
	{"core.boundary_ms_p50", "ms"},
	{"core.boundary_ms_tail", "ms"},
	{"core.boundary_tail_pct", "%"},
	{"core.trace_cover_frac", "fraction"},
	{"core.trace_overhead_frac", "fraction"},
	{"core.eval_share", "fraction"},
	{"core.allocs_per_step", "count"},
	{"core.gc_pause_ms", "ms"},
	{"core.sgd_p1_samples_per_s", "samples/s"},
	{"core.downpour_samples_per_s", "samples/s"},
	{"core.eamsgd_samples_per_s", "samples/s"},
	{"comm.allreduce_ms", "ms"},
	{"comm.allreduce_busy_ms", "ms"},
	{"comm.allreduce_wait_ms", "ms"},
	{"comm.allreduce_share", "fraction"},
	{"comm.words_per_boundary", "words"},
	{"comm.msgs_per_boundary", "count"},
	{"comm.codec_ms", "ms"},
	{"comm.codec_ratio", "ratio"},
	{"comm.bcast_ms", "ms"},
	{"comm.tcp_mesh_ms", "ms"},
	{"comm.tcp_words_per_s", "words/s"},
	{"comm.chan_words_per_s", "words/s"},
	{"comm.tcp_rtt_us_p50", "us"},
	{"comm.tcp_rtt_us_tail", "us"},
	{"comm.tcp_rtt_tail_pct", "%"},
	{"comm.tcp_bytes_per_boundary", "bytes"},
	{"comm.tcp_frames_per_boundary", "count"},
	{"wire.encode_gbps", "GB/s"},
	{"wire.decode_gbps", "GB/s"},
	{"wire.overhead_frac", "fraction"},
	{"netsim.epoch_residual_frac", "fraction"},
}

// traceDir is where the traced pass writes <workload>.trace.json,
// relative to the checkout's root, from which run.sh starts the binary.
const traceDir = "bench/out"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// guardEnvironment refuses conditions under which the numbers would
// describe a different workload: any SASGD_* variable (core's
// withDefaults turns SASGD_COMPRESS, SASGD_OVERLAP, SASGD_TSCHED… into
// a different configuration without saying so) and fewer than two
// processors for the two learners.
func guardEnvironment() error {
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "SASGD_") {
			return fmt.Errorf("environment variable %s is set; the library reads SASGD_* as configuration defaults, unset it", strings.SplitN(kv, "=", 2)[0])
		}
	}
	if n := runtime.GOMAXPROCS(0); n < 2 {
		return fmt.Errorf("GOMAXPROCS is %d; the workloads run two learners on two processors", n)
	}
	return nil
}

func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func run() error {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed of the data generator, the model factory and the run")
	seconds := flag.Float64("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a Chrome trace")
	flag.Parse()

	w := findWorkload(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q, want one of %s", *name, workloadNames())
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		return fmt.Errorf("want -seconds > 0, -trace 0 or 1, and no further arguments")
	}
	if err := guardEnvironment(); err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(2)
	setKernelWorkers(2) // core.Train splits this across its two learners

	var out outcome
	var err error
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		out, err = runTraced(w, *seed, *seconds, traceDir)
	} else {
		out, err = runEndToEnd(w, *seed, *seconds, budget{setups: 5, maxReps: 8})
	}
	if err != nil {
		return err
	}

	info := out.info
	info["workload"], info["seed"], info["trace"] = w.name, *seed, *trace
	info["env"] = map[string]any{"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit()}
	info["checks"] = out.checks
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		return err
	}
	return enc.Encode(render(out, defs))
}

// render builds the contract's result line: every metric of the pass,
// by name, with its unit.
func render(out outcome, defs []metricDef) result {
	res := result{Correct: out.correct(), Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{out.metrics[d.name], d.unit}
	}
	return res
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
