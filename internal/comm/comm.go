// Package comm implements the communication substrate the paper's
// algorithms run on: point-to-point messaging between learners, the
// collective operations SASGD uses (the binomial-tree allreduce and
// broadcast, their hierarchical and compressed forms, the in-flight
// Runner, and the barrier), and the sharded parameter server that
// Downpour and EAMSGD use. A Group runs the collectives over a Transport: Go channels
// between the learner goroutines of one process, or a TCP mesh between
// processes (tcp.go, with the frame codec in comm/wire).
//
// Simulated time is a Transport decorator over an all-local transport
// (sim.go): with the Clock and CostModel interfaces (implemented by
// internal/netsim) it stamps every transfer and syncs every receiver, so
// the same code paths produce both real training dynamics — including
// genuine asynchronous gradient staleness — and the simulated epoch-time
// measurements behind the paper's timing figures, without the
// collectives or the wire carrying a clock.
package comm

// Clock is a per-learner simulated clock. Implementations must be safe
// for use from the single goroutine that owns the learner; Sync is called
// with timestamps originating from other learners' clocks.
type Clock interface {
	// Now returns the learner's current simulated time in seconds.
	Now() float64
	// Advance moves the clock forward by dt seconds of local work.
	Advance(dt float64)
	// Sync moves the clock forward to t if t is later than Now (message
	// arrival semantics); earlier timestamps are ignored.
	Sync(t float64)
}

// CostModel prices communication on the simulated fabric.
type CostModel interface {
	// XferTime returns the seconds needed to move n float64 words from
	// learner `from` to learner `to` (point-to-point, used by the
	// collectives; the topology decides whether the route is a fast peer
	// link or crosses the host).
	XferTime(from, to int, words int) float64
	// ServerOpTime returns the seconds one complete parameter-server
	// operation (a push or a pull of n float64 words) takes for one
	// learner, given the server's shard count and the number of learners
	// contending for the host link and the shards. The model is analytic
	// (expected steady-state contention) rather than queue-emergent so
	// simulated time stays independent of goroutine scheduling.
	ServerOpTime(words, shards, learners int) float64
}

// FreeCost is a CostModel under which all communication is instantaneous.
type FreeCost struct{}

// XferTime implements CostModel.
func (FreeCost) XferTime(int, int, int) float64 { return 0 }

// ServerOpTime implements CostModel.
func (FreeCost) ServerOpTime(int, int, int) float64 { return 0 }
