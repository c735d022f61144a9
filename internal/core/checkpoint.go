package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"strings"

	"sasgd/internal/nn"
)

// Checkpoint-restart. SASGD's aggregation boundaries are the natural
// checkpoint points: immediately after an aggregation every replica
// equals the reference parameters x′ and the accumulated gradient gs is
// spent, so the entire distributed optimizer state collapses to one
// parameter vector plus a handful of counters. A checkpoint is a gob
// header (the counters and run shape) followed by one nn parameter
// frame (magic, version, count, float64s, CRC — the same format model
// checkpoints use), written atomically via a temp file and rename by
// rank 0.
//
// Restart semantics are exact replay: the sampler streams are seeded
// per data rank and fast-forwarded Step batches, the epoch and
// batch offsets are derived from Step, and γp is restored from the
// header, so a resumed run consumes the identical sample sequence — and
// therefore produces bitwise-identical aggregated gradients — that a
// never-interrupted run over the same ranks would have. (Models whose
// forward pass draws randomness per step, i.e. dropout, would
// additionally need their per-replica RNG state captured; the
// checkpoint format does not carry it, so exact replay holds for
// deterministic-forward models.) Exact replay also needs x′ to be the
// whole optimizer state, which it is only on a flat, eager, dense
// boundary: a codec's per-rank error-feedback residual and adapt-k's
// working fraction, a pending delayed aggregate and an island reference
// are not in the file, so Validate refuses checkpointing and resuming
// together with a codec, DelayedApply or HierGroups. After a crash the
// survivors resume by Config.ResumeFrom plus Config.ResumeRanks naming
// which original ranks the new run's learners play.

// checkpointMeta is the gob header of a core checkpoint.
type checkpointMeta struct {
	OrigP    int   // learner count of the original run (γ rescale base, shard partition)
	Interval int   // T
	Batch    int   // minibatch size
	Seed     int64 // run seed (sampler/replica seeds derive from it)
	GammaP   float64
	Step     int   // local steps (= sampler draws) completed per learner
	Boundary int   // aggregation boundaries completed
	CurT     int   // T-scheduler period in effect (0 in pre-scheduler checkpoints)
	Live     []int // data ranks of the run that wrote the checkpoint
}

// checkpoint is the boundary's last stage: every CheckpointEvery-th
// boundary rank 0 writes the reference parameters and
// the run's counters, and returns the write's error. Validation keeps it
// to flat, eager, dense boundaries, where replica == reference holds and
// neither gs nor a codec residual carries anything over.
func (e *engine) checkpoint(step int) error {
	if e.cfg.CheckpointPath == "" || e.rank != 0 || e.bidx%e.cfg.CheckpointEvery != 0 {
		return nil
	}
	meta := checkpointMeta{
		OrigP:    e.origP,
		Interval: e.cfg.Interval,
		Batch:    e.cfg.Batch,
		Seed:     e.cfg.Seed,
		GammaP:   e.cfg.GammaP,
		Step:     step,
		Boundary: e.bidx,
		CurT:     e.sched.T(),
		Live:     e.dataRanks,
	}
	return writeCheckpoint(checkpointFile(e.cfg.CheckpointPath, e.bidx), meta, e.xref)
}

// checkpointFile resolves the configured checkpoint path for a
// boundary: a "%d" verb keeps one file per boundary (the chaos harness
// resumes from the boundary before a crash), a plain path is
// overwritten in place (normal operation keeps only the latest).
func checkpointFile(path string, boundary int) string {
	if strings.Contains(path, "%d") {
		return fmt.Sprintf(path, boundary)
	}
	return path
}

// writeCheckpoint atomically writes meta + params to path. A write that
// fails leaves no temp file behind.
func writeCheckpoint(path string, meta checkpointMeta, params []float64) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: creating checkpoint: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(f)
	if err := gob.NewEncoder(bw).Encode(meta); err != nil {
		return fmt.Errorf("core: writing checkpoint header: %w", err)
	}
	if err := nn.WriteParams(bw, params); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: flushing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("core: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("core: committing checkpoint: %w", err)
	}
	return nil
}

// readCheckpoint loads a checkpoint written by writeCheckpoint. The
// reader is buffered once and shared between the gob header and the
// parameter frame so no bytes are lost between the two decoders.
func readCheckpoint(path string) (checkpointMeta, []float64, error) {
	var meta checkpointMeta
	f, err := os.Open(path)
	if err != nil {
		return meta, nil, fmt.Errorf("core: opening checkpoint: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if err := gob.NewDecoder(br).Decode(&meta); err != nil {
		return meta, nil, fmt.Errorf("core: reading checkpoint header: %w", err)
	}
	params, err := nn.ReadParams(br)
	if err != nil {
		return meta, nil, err
	}
	return meta, params, nil
}

// resumeState is the validated resume plan for one run: the checkpoint
// contents plus the data rank each of the new run's learners
// plays.
type resumeState struct {
	meta   checkpointMeta
	params []float64
	ranks  []int // learner index → data rank (sorted ascending)
}

// loadResume validates cfg against a checkpoint and builds the resume
// plan. cfg.ResumeRanks names which original data ranks this
// run's learners play (sorted; nil means all OrigP ranks, requiring
// cfg.Learners == OrigP). The run must match the checkpoint's
// aggregation interval, batch size and seed — resuming under a
// different schedule would silently break exact replay — and the
// header's counters and γp must be in range.
func loadResume(cfg Config) (*resumeState, error) {
	meta, params, err := readCheckpoint(cfg.ResumeFrom)
	if err != nil {
		return nil, err
	}
	if meta.Interval != cfg.Interval {
		return nil, fmt.Errorf("core: resume interval T=%d, checkpoint has T=%d", cfg.Interval, meta.Interval)
	}
	if meta.Batch != cfg.Batch {
		return nil, fmt.Errorf("core: resume batch %d, checkpoint has %d", cfg.Batch, meta.Batch)
	}
	if meta.Seed != cfg.Seed {
		return nil, fmt.Errorf("core: resume seed %d, checkpoint has %d", cfg.Seed, meta.Seed)
	}
	// The header is not under the parameter frame's CRC. Step is checked
	// against the run's length by trainSASGD, which knows it.
	if meta.Boundary < 0 || meta.CurT < 0 {
		return nil, fmt.Errorf("core: checkpoint boundary %d, T %d: want both non-negative", meta.Boundary, meta.CurT)
	}
	if !(meta.GammaP > 0) || math.IsInf(meta.GammaP, 1) {
		return nil, fmt.Errorf("core: checkpoint γp %g, want finite and positive", meta.GammaP)
	}
	rs := &resumeState{meta: meta, params: params}
	if cfg.ResumeRanks != nil {
		if len(cfg.ResumeRanks) != cfg.Learners {
			return nil, fmt.Errorf("core: %d resume ranks for %d learners", len(cfg.ResumeRanks), cfg.Learners)
		}
		rs.ranks = append([]int(nil), cfg.ResumeRanks...)
		for i, r := range rs.ranks {
			if r < 0 || r >= meta.OrigP {
				return nil, fmt.Errorf("core: resume rank %d outside the original run's [0,%d)", r, meta.OrigP)
			}
			if i > 0 && rs.ranks[i] <= rs.ranks[i-1] {
				return nil, fmt.Errorf("core: resume ranks must be strictly ascending, got %v", cfg.ResumeRanks)
			}
		}
	} else {
		if cfg.Learners != meta.OrigP {
			return nil, fmt.Errorf("core: resuming %d learners from a %d-learner checkpoint needs ResumeRanks",
				cfg.Learners, meta.OrigP)
		}
		rs.ranks = make([]int, meta.OrigP)
		for i := range rs.ranks {
			rs.ranks[i] = i
		}
	}
	return rs, nil
}
