package core

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sasgd/internal/comm"
)

// TestCheckpointRoundTrip: the meta header and the parameter frame
// survive a write/read cycle exactly, and corruption is detected.
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.ckpt")
	meta := checkpointMeta{
		OrigP: 4, Interval: 3, Batch: 8, Seed: 99, GammaP: 0.0125,
		Step: 42, Boundary: 14, Live: []int{0, 1, 3},
	}
	params := []float64{1.5, -2.25, 0, 3.125e-9}
	if err := writeCheckpoint(path, meta, params); err != nil {
		t.Fatal(err)
	}
	got, gp, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.OrigP != meta.OrigP || got.Interval != meta.Interval || got.Batch != meta.Batch ||
		got.Seed != meta.Seed || got.GammaP != meta.GammaP || got.Step != meta.Step ||
		got.Boundary != meta.Boundary || len(got.Live) != 3 || got.Live[2] != 3 {
		t.Fatalf("meta round-trip mismatch: %+v vs %+v", got, meta)
	}
	if len(gp) != len(params) {
		t.Fatalf("got %d params, want %d", len(gp), len(params))
	}
	for i := range params {
		if gp[i] != params[i] {
			t.Fatalf("param %d: %g != %g", i, gp[i], params[i])
		}
	}
	// No stray temp file left behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	// Flip a payload byte: the CRC must catch it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readCheckpoint(path); err == nil {
		t.Fatal("corrupted checkpoint read back without error")
	}
}

// TestEmptyFaultPlanMatchesPlain: a fault plan that injects nothing
// changes nothing — final parameters and accuracy curves must be
// bitwise identical to the run without one.
func TestEmptyFaultPlanMatchesPlain(t *testing.T) {
	prob := tinyProblem(48, 24, 11)
	base := Config{
		Algo: AlgoSASGD, Learners: 3, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 3, Seed: 7,
	}
	plain := Train(base, prob)
	empty := base
	empty.Faults = &comm.FaultPlan{}
	got := Train(empty, prob)
	if len(got.FinalParams) != len(plain.FinalParams) {
		t.Fatalf("param lengths differ: %d vs %d", len(got.FinalParams), len(plain.FinalParams))
	}
	for i := range plain.FinalParams {
		if !sameBits(got.FinalParams[i], plain.FinalParams[i]) {
			t.Fatalf("empty fault plan diverged at parameter %d: %g vs %g",
				i, got.FinalParams[i], plain.FinalParams[i])
		}
	}
	if len(got.Curve) != len(plain.Curve) {
		t.Fatalf("curve lengths differ: %d vs %d", len(got.Curve), len(plain.Curve))
	}
	for i := range plain.Curve {
		if got.Curve[i].Train != plain.Curve[i].Train || got.Curve[i].Test != plain.Curve[i].Test {
			t.Fatalf("curve point %d differs: %+v vs %+v", i, got.Curve[i], plain.Curve[i])
		}
	}
}

// TestCheckpointResumeBitwise: interrupt-and-resume is exact replay. A
// run that checkpoints every boundary, truncated by resuming a second
// run from a mid-run checkpoint, must land on bitwise the same final
// parameters as the original uninterrupted run.
func TestCheckpointResumeBitwise(t *testing.T) {
	prob := tinyProblem(48, 24, 13)
	dir := t.TempDir()
	base := Config{
		Algo: AlgoSASGD, Learners: 3, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 4, Seed: 21,
	}
	full := base
	full.CheckpointPath = filepath.Join(dir, "ck-%d.ckpt")
	ref := Train(full, prob)

	// Pick a mid-run, mid-epoch boundary checkpoint and resume from it
	// (8 boundaries total: 4 epochs × 4 batches / T=2).
	mid := filepath.Join(dir, "ck-5.ckpt")
	if _, err := os.Stat(mid); err != nil {
		t.Fatalf("expected per-boundary checkpoint %s: %v", mid, err)
	}
	resume := base
	resume.ResumeFrom = mid
	got := Train(resume, prob)

	for i := range ref.FinalParams {
		if !sameBits(got.FinalParams[i], ref.FinalParams[i]) {
			t.Fatalf("resumed run diverged at parameter %d: %g vs %g",
				i, got.FinalParams[i], ref.FinalParams[i])
		}
	}
	// The resumed run replays only the remaining epochs' evaluations.
	if len(got.Curve) == 0 || len(got.Curve) >= len(ref.Curve) {
		t.Fatalf("resumed curve has %d points, reference %d; want a non-empty strict subset",
			len(got.Curve), len(ref.Curve))
	}
	last := got.Curve[len(got.Curve)-1]
	refLast := ref.Curve[len(ref.Curve)-1]
	if last.Epoch != refLast.Epoch || last.Test != refLast.Test {
		t.Fatalf("final curve point differs: %+v vs %+v", last, refLast)
	}
}

// TestResumeSurvivorsOnly: resuming a subset of the original ranks
// trains on the survivors' own shards with γp rescaled by OrigP/p′, and
// the mechanics (partitioning, seeds, boundary counters) hold together.
func TestResumeSurvivorsOnly(t *testing.T) {
	prob := tinyProblem(48, 24, 17)
	dir := t.TempDir()
	base := Config{
		Algo: AlgoSASGD, Learners: 3, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 4, Seed: 33,
	}
	full := base
	full.CheckpointPath = filepath.Join(dir, "ck-%d.ckpt")
	Train(full, prob)

	resume := base
	resume.Learners = 2
	resume.ResumeFrom = filepath.Join(dir, "ck-6.ckpt")
	resume.ResumeRanks = []int{0, 2}
	got := Train(resume, prob)
	if len(got.FinalParams) == 0 {
		t.Fatal("survivors-only resume produced no final parameters")
	}
	if got.P != 2 {
		t.Fatalf("P=%d, want 2", got.P)
	}
	if got.FinalTest == 0 {
		t.Fatal("survivors-only resume recorded no accuracy")
	}
}

// TestLoadResumeValidation: mismatched schedules and malformed rank
// lists are rejected up front.
func TestLoadResumeValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.ckpt")
	meta := checkpointMeta{OrigP: 4, Interval: 2, Batch: 4, Seed: 5, GammaP: 0.01, Step: 8, Boundary: 4}
	if err := writeCheckpoint(path, meta, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	ok := Config{Algo: AlgoSASGD, Learners: 4, Interval: 2, Batch: 4, Seed: 5, Gamma: 0.1, ResumeFrom: path}
	if _, err := loadResume(resolved(t, ok)); err != nil {
		t.Fatalf("valid resume rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"interval", func(c *Config) { c.Interval = 3 }},
		{"batch", func(c *Config) { c.Batch = 8 }},
		{"seed", func(c *Config) { c.Seed = 6 }},
		{"rank count", func(c *Config) { c.Learners = 2; c.ResumeRanks = []int{0, 1, 2} }},
		{"rank range", func(c *Config) { c.Learners = 2; c.ResumeRanks = []int{0, 4} }},
		{"rank order", func(c *Config) { c.Learners = 2; c.ResumeRanks = []int{2, 1} }},
		{"learners without ranks", func(c *Config) { c.Learners = 2 }},
	}
	for _, tc := range cases {
		cfg := ok
		tc.mut(&cfg)
		if _, err := loadResume(resolved(t, cfg)); err == nil {
			t.Errorf("%s mismatch accepted", tc.name)
		}
	}

	// The header is not under the parameter frame's CRC: a resume from a
	// header with an out-of-range counter or γp must end with a core
	// error, through the whole Run (an unchecked Step fast-forwards the
	// sampler Step draws, so each row runs within runWithin's bound).
	prob := tinyProblem(20, 10, 14) // 2 learners × batch 4: 3 batches an epoch
	params := make([]float64, 67)
	for _, tc := range []struct {
		name string
		mut  func(*checkpointMeta)
		want string
	}{
		{"valid header", func(*checkpointMeta) {}, ""},
		{"negative step", func(m *checkpointMeta) { m.Step = -5 }, "core: checkpoint step -5"},
		{"negative boundary", func(m *checkpointMeta) { m.Boundary = -3 }, "core: checkpoint boundary -3"},
		{"negative T", func(m *checkpointMeta) { m.CurT = -1 }, "core: checkpoint boundary 2, T -1"},
		{"NaN γp", func(m *checkpointMeta) { m.GammaP = math.NaN() }, "core: checkpoint γp NaN"},
		{"infinite γp", func(m *checkpointMeta) { m.GammaP = math.Inf(1) }, "core: checkpoint γp +Inf"},
		{"step past the run", func(m *checkpointMeta) { m.Step = 1 << 40 }, "core: checkpoint step 1099511627776"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meta := checkpointMeta{OrigP: 2, Interval: 1, Batch: 4, Seed: 1, GammaP: 0.05, Step: 2, Boundary: 2}
			tc.mut(&meta)
			run := Config{Algo: AlgoSASGD, Learners: 2, Interval: 1, Gamma: 0.1, Batch: 4, Epochs: 1, Seed: 1,
				ResumeFrom: filepath.Join(t.TempDir(), "ck.ckpt")}
			if err := writeCheckpoint(run.ResumeFrom, meta, params); err != nil {
				t.Fatal(err)
			}
			err := runWithin(t, run, prob)
			if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("Run returned %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestCheckpointFileTemplating pins the %d-per-boundary vs fixed-path
// behaviors of checkpointFile.
func TestCheckpointFileTemplating(t *testing.T) {
	if got := checkpointFile("ck-%d.ckpt", 7); got != "ck-7.ckpt" {
		t.Fatalf("templated path: got %q", got)
	}
	if got := checkpointFile("ck.ckpt", 7); got != "ck.ckpt" {
		t.Fatalf("fixed path: got %q", got)
	}
}

// TestCheckpointRunKeepsFixedGroup: a checkpoint is the boundary's last
// stage, a write and nothing else. A checkpointing run fuses its apply
// into the tree walk like any flat eager run (its engine's apply path)
// and lands on the uncheckpointed run's final parameters bit for bit.
func TestCheckpointRunKeepsFixedGroup(t *testing.T) {
	prob := cifarProblem(24, 12)
	base := Config{Algo: AlgoSASGD, Learners: 2, Interval: 2, Gamma: 0.05, Batch: 4, Epochs: 2, Seed: 5}
	serial := Train(base, prob)

	cfg := base
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck-%d.ckpt")
	got := Train(cfg, prob)

	if e := buildEngine(t, cfg, prob); !e.fused || e.comp != nil {
		t.Fatalf("the checkpointing run's engine applies in the tree walk: %v (codec %v)", e.fused, e.comp)
	}
	if _, err := os.Stat(checkpointFile(cfg.CheckpointPath, 1)); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	for i := range serial.FinalParams {
		if !sameBits(got.FinalParams[i], serial.FinalParams[i]) {
			t.Fatalf("checkpointing run diverged at parameter %d: %g vs %g",
				i, got.FinalParams[i], serial.FinalParams[i])
		}
	}
}
