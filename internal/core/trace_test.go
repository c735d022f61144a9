package core

import (
	"bytes"
	"strings"
	"testing"

	"sasgd/internal/obs"
)

// End-to-end tracing: an overlapped SASGD run with a tracer attached
// must export a schema-valid Chrome trace whose comm-worker allreduce
// spans visibly overlap the learners' backward spans, with every
// instrumented phase present in the profile and the unified comm stats
// populated on the result.
func TestTraceExportFromRun(t *testing.T) {
	prob := cifarProblem(24, 12)
	tr := obs.NewTracer(1 << 12)
	cfg := Config{
		Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 2, Seed: 5, Allreduce: AllreducePTree,
		CommChunk: 64, OverlapComm: true, Tracer: tr,
	}
	res := Train(cfg, prob)

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("run trace failed schema validation: %v", err)
	}
	if spans == 0 {
		t.Fatal("run trace has no spans")
	}

	// Every instrumented phase fires in this configuration: forward/
	// backward/local step on serial batches, bucket begins + agg wait/
	// apply on aggregation batches, queue dwell + allreduce on the comm
	// workers, and the initial broadcast. The fault-injection phases
	// (retry, drop, heartbeat, evict, reform, crash) only fire under a
	// FaultPlan — the chaos tests cover their presence — and compress
	// only fires in compressed runs (TestTraceSparsePathPhases).
	elsewhere := map[obs.Phase]bool{
		obs.PhaseRetry: true, obs.PhaseDrop: true, obs.PhaseHeartbeat: true,
		obs.PhaseEvict: true, obs.PhaseReform: true, obs.PhaseCrash: true,
		obs.PhaseCompress: true,
	}
	table := tr.ProfileTable("phases")
	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		if elsewhere[ph] {
			continue
		}
		if !strings.Contains(table, ph.String()) {
			t.Errorf("profile missing phase %q:\n%s", ph, table)
		}
	}

	// The overlap must be visible in the timeline: comm-worker allreduce
	// time intersecting the same rank's backward spans.
	overlapped, total := tr.OverlapFraction()
	if total <= 0 {
		t.Fatal("no allreduce time recorded on the comm tracks")
	}
	if overlapped <= 0 {
		t.Errorf("no allreduce time overlapped backward (total %v)", total)
	}

	// Result carries the unified comm stats.
	if res.Comm.Words != res.WordsMoved || res.Comm.Words == 0 {
		t.Errorf("Result.Comm.Words = %d, WordsMoved = %d; want equal and nonzero", res.Comm.Words, res.WordsMoved)
	}
	for _, algo := range []string{"bcast", "ptree"} {
		if res.Comm.PerAlgo[algo].Words == 0 {
			t.Errorf("Result.Comm.PerAlgo[%q] empty: %+v", algo, res.Comm.PerAlgo)
		}
	}
	if res.Comm.BucketOps == 0 {
		t.Error("Result.Comm.BucketOps = 0, want bucketed ops recorded")
	}
	if o := res.Comm.PipelineOccupancy; o <= 0 || o > 1 {
		t.Errorf("Result.Comm.PipelineOccupancy = %v, want in (0, 1]", o)
	}

	// The tracer's live stats source was registered by the run.
	if tr.Stats() == nil {
		t.Error("tracer has no live stats source after the run")
	}
}

// TestTraceDoesNotChangeResults pins that attaching a tracer is purely
// observational: the trained parameters are bitwise identical with and
// without it, on both the serial and the overlapped path.
func TestTraceDoesNotChangeResults(t *testing.T) {
	prob := cifarProblem(24, 12)
	for _, overlap := range []bool{false, true} {
		base := Config{
			Algo: AlgoSASGD, Learners: 3, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 2, Seed: 7, OverlapComm: overlap,
		}
		plain := Train(base, prob)
		traced := base
		traced.Tracer = obs.NewTracer(256)
		got := Train(traced, prob)
		for i := range plain.FinalParams {
			if plain.FinalParams[i] != got.FinalParams[i] {
				t.Fatalf("overlap=%v: tracing changed parameter %d: %g vs %g",
					overlap, i, plain.FinalParams[i], got.FinalParams[i])
			}
		}
	}
}

// TestTraceSparsePathPhases covers the top-k sparse aggregation path:
// agg_wait/agg_apply spans fire around the sparse collective and the
// traffic lands under the "sparse" label.
func TestTraceSparsePathPhases(t *testing.T) {
	prob := cifarProblem(24, 12)
	tr := obs.NewTracer(256)
	res := Train(Config{
		Algo: AlgoSASGD, Learners: 2, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 1, Seed: 9, Compress: CodecTopK, CompressK: 0.1, Tracer: tr,
	}, prob)
	table := tr.ProfileTable("phases")
	for _, ph := range []obs.Phase{obs.PhaseAggWait, obs.PhaseAggApply, obs.PhaseCompress} {
		if !strings.Contains(table, ph.String()) {
			t.Errorf("sparse path missing %q spans:\n%s", ph, table)
		}
	}
	if res.Comm.PerAlgo["sparse"].Words == 0 {
		t.Errorf("sparse traffic not attributed: %+v", res.Comm.PerAlgo)
	}
}

// TestTraceExportScheduledPaths covers Chrome-trace export under the
// communication-scheduling paths: adaptive-T boundaries, hierarchical
// two-level collectives, and delayed application (flat and hierarchical)
// must each produce a schema-valid trace with the aggregation spans
// present, and the hierarchical runs must attribute traffic to the
// hintra/hinter labels. The scripts/check.sh race leg runs this test
// under -race, which exercises the comm-worker/learner span handoff on
// the delayed paths.
func TestTraceExportScheduledPaths(t *testing.T) {
	prob := cifarProblem(24, 12)
	for _, tc := range []struct {
		name  string
		mut   func(*Config)
		algos []string
	}{
		{"adaptive-t", func(c *Config) { c.TSched = TSchedAdaptive }, []string{"tree"}},
		{"hier", func(c *Config) { c.HierGroups = 2; c.TOuter = 2 }, []string{"hintra", "hinter"}},
		// Delayed launches run through the bucketed comm worker's chunked
		// tree, so the traffic lands under "ptree".
		{"delayed", func(c *Config) { c.DelayedApply = true }, []string{"ptree"}},
		{"hier-delayed", func(c *Config) {
			c.HierGroups = 2
			c.TOuter = 2
			c.DelayedApply = true
		}, []string{"hintra", "hinter"}},
	} {
		tr := obs.NewTracer(1 << 12)
		cfg := Config{
			Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 2, Seed: 5, Tracer: tr,
		}
		tc.mut(&cfg)
		res := Train(cfg, prob)

		var buf bytes.Buffer
		if err := tr.WriteTrace(&buf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		spans, err := obs.ValidateTrace(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: trace failed schema validation: %v", tc.name, err)
		}
		if spans == 0 {
			t.Fatalf("%s: trace has no spans", tc.name)
		}
		table := tr.ProfileTable("phases")
		for _, ph := range []obs.Phase{obs.PhaseAggWait, obs.PhaseAggApply, obs.PhaseLocalStep} {
			if !strings.Contains(table, ph.String()) {
				t.Errorf("%s: profile missing %q spans:\n%s", tc.name, ph, table)
			}
		}
		for _, algo := range tc.algos {
			if res.Comm.PerAlgo[algo].Words == 0 {
				t.Errorf("%s: no traffic under %q: %+v", tc.name, algo, res.Comm.PerAlgo)
			}
		}
	}
}

// BenchmarkTraceOverhead measures a full overlapped training run with
// tracing off (the nil-check-only disabled path) vs on; the two must be
// within noise of each other, which scripts/bench_obs.sh records.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			prob := cifarProblem(32, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := Config{
					Algo: AlgoSASGD, Learners: 4, Interval: 1, Gamma: 0.05,
					Batch: 4, Epochs: 1, Seed: 1, OverlapComm: true, EvalEvery: 2,
				}
				if mode == "on" {
					cfg.Tracer = obs.NewTracer(0)
				}
				Train(cfg, prob)
			}
		})
	}
}
