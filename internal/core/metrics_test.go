package core

import (
	"bytes"
	"strings"
	"testing"

	"sasgd/internal/comm"
	"sasgd/internal/netsim"
	obsmetrics "sasgd/internal/obs/metrics"
)

// TestMetricsBitwiseIdentical pins the observability contract: attaching
// a metrics registry must not change a single bit of the training
// result. The fleet frame rides its own buffer and its allreduce touches
// no gradient state, so FinalParams is bitwise equal with metrics on or
// off across every boundary policy — plain, overlapped, compressed,
// scheduled (adaptive T, hierarchical, delayed), and fault-handling.
func TestMetricsBitwiseIdentical(t *testing.T) {
	prob := tinyProblem(48, 24, 5)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"legacy-dense", func(c *Config) {}},
		{"legacy-overlap-topk", func(c *Config) {
			c.OverlapComm = true
			c.Compress = CodecTopK
			c.CompressK = 0.1
		}},
		{"sched-adaptive", func(c *Config) { c.TSched = TSchedAdaptive }},
		{"hier-delayed", func(c *Config) {
			c.Learners = 4
			c.HierGroups = 2
			c.TOuter = 2
			c.DelayedApply = true
		}},
		{"faults", func(c *Config) {
			c.Faults = mustPlan(t, "seed=3,crash=3@2")
		}},
	} {
		base := Config{
			Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 2, Seed: 9,
		}
		tc.mut(&base)
		plain := Train(base, prob)

		cfg := base
		if cfg.Faults != nil {
			cfg.Faults = mustPlan(t, "seed=3,crash=3@2")
		}
		cfg.Metrics = obsmetrics.New()
		metered := Train(cfg, prob)

		if len(plain.FinalParams) == 0 || len(plain.FinalParams) != len(metered.FinalParams) {
			t.Fatalf("%s: param count mismatch (%d vs %d)", tc.name,
				len(plain.FinalParams), len(metered.FinalParams))
		}
		for i := range plain.FinalParams {
			if plain.FinalParams[i] != metered.FinalParams[i] {
				t.Fatalf("%s: metrics changed training at param %d: %g vs %g",
					tc.name, i, plain.FinalParams[i], metered.FinalParams[i])
			}
		}
		// The run must actually have produced a fleet view, not silently
		// skipped collection.
		snap := cfg.Metrics.Fleet().Snapshot()
		if snap == nil || snap.Boundaries == 0 {
			t.Fatalf("%s: no fleet boundaries ingested", tc.name)
		}
		if snap.DriftRMS < 0 {
			t.Fatalf("%s: negative drift RMS", tc.name)
		}
	}
}

// TestMetricsFrameTrafficPinned pins the frame's wire cost exactly: the
// only traffic metrics adds is one p·FrameWords tree allreduce per
// boundary, FrameTrafficWords(p) words each.
func TestMetricsFrameTrafficPinned(t *testing.T) {
	prob := tinyProblem(48, 24, 5)
	const p = 4
	base := Config{
		Algo: AlgoSASGD, Learners: p, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 2, Seed: 9,
	}
	plain := Train(base, prob)

	cfg := base
	cfg.Metrics = obsmetrics.New()
	metered := Train(cfg, prob)

	snap := cfg.Metrics.Fleet().Snapshot()
	if snap.Boundaries == 0 {
		t.Fatal("no boundaries ingested")
	}
	wantExtra := int64(snap.Boundaries) * obsmetrics.FrameTrafficWords(p)
	if got := metered.WordsMoved - plain.WordsMoved; got != wantExtra {
		t.Fatalf("metrics added %d words over %d boundaries, want exactly %d",
			got, snap.Boundaries, wantExtra)
	}
}

// TestMetricsFlagsSeededStraggler seeds a deterministic 4× straggler
// (fault-plan slow=2:4 on a simulated fabric) and requires the anomaly
// detector to flag exactly that rank: its simulated compute per boundary
// sits far outside the peers' z-score band for every boundary, so the
// streak trips after DefaultStreak boundaries.
func TestMetricsFlagsSeededStraggler(t *testing.T) {
	prob := tinyProblem(64, 24, 6)
	const p, slow = 8, 2
	reg := obsmetrics.New()
	var events bytes.Buffer
	reg.SetEvents(obsmetrics.NewEventLog(&events))
	cfg := Config{
		Algo: AlgoSASGD, Learners: p, Interval: 1, Gamma: 0.05,
		Batch: 4, Epochs: 3, Seed: 11,
		Sim: netsim.New(p, netsim.DefaultConfig()), FlopsPerSample: 1e7,
		Faults:  mustPlan(t, "seed=1,slow=2:4"),
		Metrics: reg,
	}
	res := Train(cfg, prob)
	if res.LiveP != p {
		t.Fatalf("straggler was evicted (live %d of %d); the test wants it slow but alive", res.LiveP, p)
	}
	fleet := reg.Fleet()
	snap := fleet.Snapshot()
	if snap.Boundaries < obsmetrics.DefaultStreak+1 {
		t.Fatalf("only %d boundaries — not enough to trip the streak", snap.Boundaries)
	}
	got := fleet.Anomalies()
	if len(got) != 1 || got[0] != slow {
		t.Fatalf("anomalies = %v, want [%d] (per-rank z: %v)", got, slow, rankZs(snap))
	}
	if !snap.Ranks[slow].Flagged || snap.Ranks[slow].Z < obsmetrics.DefaultZ {
		t.Fatalf("straggler health = %+v", snap.Ranks[slow])
	}
	if !strings.Contains(events.String(), `"type":"anomaly"`) {
		t.Fatal("no anomaly event in the NDJSON log")
	}
}

func rankZs(s *obsmetrics.FleetSnap) []float64 {
	zs := make([]float64, len(s.Ranks))
	for i, r := range s.Ranks {
		zs[i] = r.Z
	}
	return zs
}

func mustPlan(t *testing.T, spec string) *comm.FaultPlan {
	t.Helper()
	plan, err := comm.ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}
