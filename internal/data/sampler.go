package data

import (
	"fmt"
	"math/rand"
)

// EpochSampler yields minibatch index sets that sweep a dataset once per
// epoch in a freshly shuffled order — the "one pass of the input is
// called an epoch" accounting the paper uses throughout its figures.
type EpochSampler struct {
	rng   *rand.Rand
	perm  []int
	pos   int
	batch int
	// Epoch counts completed passes; it increments when the sweep wraps.
	Epoch int
}

// NewEpochSampler returns a sampler over n samples with the given
// minibatch size, shuffled by a dedicated RNG seeded with seed.
func NewEpochSampler(n, batch int, seed int64) *EpochSampler {
	if n <= 0 || batch <= 0 {
		panic(fmt.Sprintf("data: NewEpochSampler(%d, %d): sizes must be positive", n, batch))
	}
	if batch > n {
		batch = n
	}
	s := &EpochSampler{rng: rand.New(rand.NewSource(seed)), perm: rand.New(rand.NewSource(seed)).Perm(n), batch: batch}
	return s
}

// Next returns the next minibatch's sample indices. The final batch of an
// epoch may be short; the next call starts a new shuffled epoch.
func (s *EpochSampler) Next() []int {
	if s.pos >= len(s.perm) {
		s.rng.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
		s.pos = 0
		s.Epoch++
	}
	end := s.pos + s.batch
	if end > len(s.perm) {
		end = len(s.perm)
	}
	out := s.perm[s.pos:end]
	s.pos = end
	return out
}

// Skip advances the sampler past n minibatches without returning them,
// replaying reshuffles exactly as Next would. Checkpoint resume uses it
// to fast-forward a learner's sample stream to the recorded step so a
// restarted run consumes the identical batch sequence a never-
// interrupted run would have.
func (s *EpochSampler) Skip(n int) {
	for i := 0; i < n; i++ {
		s.Next()
	}
}

// UniformSampler yields minibatches drawn uniformly with replacement —
// the i.i.d. sampling the convergence analyses assume. Provided for the
// theory-validation experiments; the figure reproductions use
// EpochSampler to match the paper's epoch accounting.
type UniformSampler struct {
	rng   *rand.Rand
	n     int
	batch int
	buf   []int
}

// NewUniformSampler returns a with-replacement sampler over n samples.
func NewUniformSampler(n, batch int, seed int64) *UniformSampler {
	if n <= 0 || batch <= 0 {
		panic(fmt.Sprintf("data: NewUniformSampler(%d, %d): sizes must be positive", n, batch))
	}
	return &UniformSampler{rng: rand.New(rand.NewSource(seed)), n: n, batch: batch, buf: make([]int, batch)}
}

// Next returns a fresh uniformly sampled index set of the batch size. The
// returned slice is reused by subsequent calls.
func (s *UniformSampler) Next() []int {
	for i := range s.buf {
		s.buf[i] = s.rng.Intn(s.n)
	}
	return s.buf
}
