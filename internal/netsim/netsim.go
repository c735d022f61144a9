// Package netsim models the paper's hardware platform — an IBM Power8
// host with 8 NVIDIA K80 GPUs attached through a PCIe binary tree — as an
// analytic cost model attached to the real communication schedule
// produced by internal/comm. Learner goroutines carry simulated clocks;
// compute is charged from FLOP counts, point-to-point transfers from link
// bandwidth and latency, and parameter-server requests from an analytic
// host-link/shard contention model. Epoch-time figures (Figs. 1, 4, 5, 6) are
// computed in simulated seconds, so they reflect the paper's platform
// rather than the host this repository happens to run on.
//
// Because the accuracy experiments run reduced-scale models, the cost
// model supports a WordFactor that rescales the observed message sizes
// to the paper-scale model so timing stays faithful to the published
// system (DESIGN.md §2).
package netsim

import (
	"fmt"
	"math/rand"
	"sync"

	"sasgd/internal/comm"
)

// Config holds the fabric and device parameters. The defaults are
// calibrated to the paper's observations, not to vendor datasheets: the
// published figures constrain the *ratios* (communication share, T=1 vs
// T=50 speedups), and DefaultConfig reproduces those ratios.
type Config struct {
	// PeerBandwidth is the learner-to-learner (GPU-direct over the PCIe
	// tree) bandwidth in bytes/second, used by the collectives.
	PeerBandwidth float64
	// PeerLatency is the fixed per-message latency between learners in
	// seconds.
	PeerLatency float64
	// HostBandwidth is the learner-to-host bandwidth in bytes/second used
	// for parameter-server traffic, which must cross to the CPUs ("a
	// narrower channel to the host").
	HostBandwidth float64
	// HostLatency is the fixed per-request latency to the host in seconds.
	HostLatency float64
	// ServerBandwidth is the rate in bytes/second at which the server
	// shards collectively apply or serve one learner's request (the work
	// parallelizes across shards; queueing behind other learners is
	// modeled by ServerContention).
	ServerBandwidth float64
	// ServerContention is the fraction of each additional learner's
	// traffic that effectively serializes with this learner's on the
	// shared host link and the server shards: the per-operation cost is
	// multiplied by 1 + ServerContention·(p−1). Zero models perfectly
	// independent paths; 1 models one fully shared pipe (the O(m·p)
	// aggregate traffic the paper assigns to parameter servers).
	ServerContention float64
	// WordBytes is the wire size of one parameter (4: fp32 on the wire,
	// as in the Torch substrate).
	WordBytes float64
	// Flops is the effective device throughput in FLOP/s for training
	// kernels.
	Flops float64
	// BatchOverhead is the fixed per-minibatch host/kernel-launch
	// overhead in seconds; it dominates at minibatch size 1 (NLC-F).
	BatchOverhead float64
	// ComputeJitter is the half-width of the uniform relative jitter on
	// per-minibatch compute time (stragglers under bulk-synchronous
	// barriers).
	ComputeJitter float64
	// WordFactor rescales observed message word counts to paper-scale
	// words (paper model size / executed model size); 1 when the executed
	// model is paper-scale.
	WordFactor float64
	// Topology selects the peer-link latency model: TopologyTree (the
	// paper's PCIe binary tree of switches — latency grows with the tree
	// distance between leaves) or TopologyFlat (one shared switch, two
	// hops between any pair). Bandwidth is per-link in both cases.
	Topology Topology
	// IslandSize is the number of adjacent leaves sharing a first-level
	// switch (an NVLink island / PCIe switch pair): rank r belongs to
	// island r/IslandSize. Defaults to 2, matching TopologyTree's leaf
	// pairs (treeHops(2k, 2k+1) == 2). The hierarchical aggregation layer
	// partitions its groups to match these islands.
	IslandSize int
	// UplinkBandwidth is the bandwidth in bytes/second of transfers that
	// cross an island boundary (the shared uplink toward the root
	// switches). Zero prices cross-island traffic at PeerBandwidth,
	// which keeps the cost model — and every previously published epoch
	// time — unchanged unless a run opts into a constrained uplink.
	UplinkBandwidth float64
}

// Topology identifies a peer-interconnect latency model.
type Topology string

// The implemented topologies.
const (
	TopologyTree Topology = "tree" // PCIe binary tree (paper's platform)
	TopologyFlat Topology = "flat" // single crossbar switch
)

// DefaultConfig returns the calibrated platform model.
func DefaultConfig() Config {
	return Config{
		PeerBandwidth:    1.2e9,
		PeerLatency:      30e-6,
		HostBandwidth:    0.8e9,
		HostLatency:      50e-6,
		ServerBandwidth:  1.3e9,
		ServerContention: 0.2,
		WordBytes:        4,
		Flops:            0.24e12,
		BatchOverhead:    4e-3,
		ComputeJitter:    0.10,
		WordFactor:       1,
		Topology:         TopologyTree,
		IslandSize:       2,
	}
}

// Sim owns the simulated clocks for a group of learners plus the cost
// model they are charged against.
type Sim struct {
	cfg      Config
	clocks   []*Clock
	rng      []*rand.Rand
	slowdown []float64 // per-rank compute multiplier; 0 or 1 = nominal
}

// New returns a simulation for p learners.
func New(p int, cfg Config) *Sim {
	if p <= 0 {
		panic(fmt.Sprintf("netsim: New(%d): learner count must be positive", p))
	}
	if cfg.WordFactor <= 0 {
		cfg.WordFactor = 1
	}
	if cfg.IslandSize <= 0 {
		cfg.IslandSize = 2
	}
	// slowdown is sized here, not on first use: learners set and read it
	// concurrently, each only its own element.
	s := &Sim{cfg: cfg, slowdown: make([]float64, p)}
	for i := 0; i < p; i++ {
		s.clocks = append(s.clocks, &Clock{})
		s.rng = append(s.rng, rand.New(rand.NewSource(int64(7919*i+13))))
	}
	return s
}

// Clocks returns the per-learner clocks as comm.Clock values for
// comm.NewSimGroup.
func (s *Sim) Clocks() []comm.Clock {
	out := make([]comm.Clock, len(s.clocks))
	for i, c := range s.clocks {
		out[i] = c
	}
	return out
}

// Clock returns learner rank's clock.
func (s *Sim) Clock(rank int) *Clock { return s.clocks[rank] }

// ChargeBatch advances learner rank's clock by the compute time of one
// minibatch costing flops floating-point operations (paper-scale), with
// straggler jitter: one draw from the rank's own stream per batch.
func (s *Sim) ChargeBatch(rank int, flops float64) {
	dt := flops/s.cfg.Flops + s.cfg.BatchOverhead
	if j := s.cfg.ComputeJitter; j > 0 {
		dt *= 1 + (s.rng[rank].Float64()*2-1)*j
	}
	if k := s.slowdown[rank]; k > 1 {
		dt *= k
	}
	s.clocks[rank].Advance(dt)
}

// SetSlowdown marks learner rank as a straggler: every subsequent
// minibatch's simulated compute time is multiplied by factor (values
// ≤ 1 restore nominal speed). The fault-injection layer uses this to
// make a FaultPlan's slow=R:K clause show up in simulated epoch times
// as well as in real scheduling.
func (s *Sim) SetSlowdown(rank int, factor float64) {
	s.slowdown[rank] = factor
}

// SkipBatches replays n minibatches' worth of straggler-jitter draws for
// learner rank without charging its clock. Checkpoint resume uses it so
// a restarted run's remaining batches see the same jitter stream a
// never-interrupted run would have — simulated times stay comparable.
func (s *Sim) SkipBatches(rank, n int) {
	if s.cfg.ComputeJitter <= 0 {
		return
	}
	for i := 0; i < n; i++ {
		s.rng[rank].Float64()
	}
}

// MaxTime returns the latest simulated time across all learners.
func (s *Sim) MaxTime() float64 {
	m := 0.0
	for _, c := range s.clocks {
		if t := c.Now(); t > m {
			m = t
		}
	}
	return m
}

// IslandOf returns the interconnect island (first-level switch group)
// that learner rank's leaf hangs off: rank/IslandSize. The hierarchical
// aggregation layer aligns its intra-group collectives with these
// islands so the cheap links carry the frequent traffic.
func (s *Sim) IslandOf(rank int) int { return rank / s.cfg.IslandSize }

// CostModel returns the comm.CostModel view of the fabric.
func (s *Sim) CostModel() comm.CostModel { return (*costModel)(s) }

type costModel Sim

func (c *costModel) bytes(words int) float64 {
	return float64(words) * c.cfg.WordFactor * c.cfg.WordBytes
}

// XferTime implements comm.CostModel: peer transfers over the selected
// interconnect. Latency is per switch hop (tree distance for the PCIe
// tree, a constant two hops for the flat crossbar); bandwidth is the
// link rate, except that transfers crossing an island boundary are
// priced at UplinkBandwidth when one is configured (the shared uplink
// toward the root switches is narrower than the intra-island links).
func (c *costModel) XferTime(from, to int, words int) float64 {
	hops := 0
	switch c.cfg.Topology {
	case TopologyFlat:
		if from != to {
			hops = 2
		}
	default:
		hops = treeHops(from, to)
	}
	bw := c.cfg.PeerBandwidth
	if c.cfg.UplinkBandwidth > 0 && from/c.cfg.IslandSize != to/c.cfg.IslandSize {
		bw = c.cfg.UplinkBandwidth
	}
	return float64(hops)*c.cfg.PeerLatency + c.bytes(words)/bw
}

// ServerOpTime implements comm.CostModel: one full push or pull of
// `words` parameters against a server with the given shard count, with
// `learners` peers contending. The cost has three parts — host-link
// latency, the payload transfer over the host link, and the server-side
// apply/serve work — and the whole thing is scaled by the expected
// steady-state contention 1 + ServerContention·(learners−1), capturing
// that aggregate parameter-server traffic grows as O(m·p) through a
// shared channel while shards only parallelize the server-side work.
func (c *costModel) ServerOpTime(words, shards, learners int) float64 {
	if shards <= 0 {
		shards = 1
	}
	base := c.cfg.HostLatency +
		c.bytes(words)/c.cfg.HostBandwidth +
		c.bytes(words)/c.cfg.ServerBandwidth
	contention := 1 + c.cfg.ServerContention*float64(learners-1)
	return base * contention
}

// treeHops returns the number of switch hops between leaves from and to
// of a binary tree (the OSS accelerator's PCIe switch fabric): twice the
// distance to their lowest common ancestor level.
func treeHops(from, to int) int {
	if from == to {
		return 0
	}
	a, b := from, to
	h := 0
	for a != b {
		a >>= 1
		b >>= 1
		h++
	}
	return 2 * h
}

// Clock is a simulated per-learner clock implementing comm.Clock. It
// splits elapsed time into compute (Advance) and communication (Sync
// waits), which is exactly the breakdown Fig. 1 reports. It is protected
// by a mutex so observer goroutines may read totals while a learner runs.
type Clock struct {
	mu      sync.Mutex
	now     float64
	compute float64
	comm    float64
}

// Now implements comm.Clock.
func (c *Clock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance implements comm.Clock; dt is accounted as compute.
func (c *Clock) Advance(dt float64) {
	if dt < 0 {
		panic("netsim: Clock.Advance with negative duration")
	}
	c.mu.Lock()
	c.now += dt
	c.compute += dt
	c.mu.Unlock()
}

// Sync implements comm.Clock; any forward jump is accounted as
// communication (transfer plus waiting).
func (c *Clock) Sync(t float64) {
	c.mu.Lock()
	if t > c.now {
		c.comm += t - c.now
		c.now = t
	}
	c.mu.Unlock()
}

// Split returns the accumulated (compute, communication) seconds.
func (c *Clock) Split() (compute, communication float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.compute, c.comm
}
