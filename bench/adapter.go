// adapter.go is the only file of the benchmark that names symbols of
// sasgd/internal/*. Everything else in this package speaks through the
// aliases and functions below, so a refactor of the library (errors
// instead of panics, one config surface — ROADMAP items 2 and 3) sees
// in one place exactly which surface the ledger pins:
//
//	core.Train / Config / Problem / Result
//	nn.Network (Forward, Loss, Backward, Predict, ParamData, GradData,
//	            ParamSegments, Layers) and the three GEMM layer types
//	tensor.Axpy / Copy / MatMul / MatMulTransA / MatMulTransB
//	data.GenImages / GenText / Dataset / EpochSampler
//	model.NewCIFARNet / NewNLCFNet / NetworkCost
//	comm.NewGroup / NewTransportGroup / NewSimGroup / NewTCPLoopback /
//	     AllreduceTree / BroadcastTree / Barrier / Send / Recv /
//	     NewCompressor / SparsityK / Stats / WireStats
//	wire.AppendFrame / DecodeBody
//	netsim.New / Config
//	parallel.SetWorkers
//	obs.NewTracer / Tracer.Profile / WriteTraceFile / ValidateTrace
package main

import (
	"fmt"
	"math/rand"
	"time"

	"sasgd/internal/comm"
	"sasgd/internal/comm/wire"
	"sasgd/internal/core"
	"sasgd/internal/data"
	"sasgd/internal/model"
	"sasgd/internal/netsim"
	"sasgd/internal/nn"
	"sasgd/internal/obs"
	"sasgd/internal/parallel"
	"sasgd/internal/tensor"
)

type (
	network    = nn.Network
	dataset    = data.Dataset
	sampler    = data.EpochSampler
	matrix     = tensor.Tensor
	group      = comm.Group
	tcpMesh    = comm.TCPTransport
	compressor = comm.Compressor
	tracer     = obs.Tracer
)

// problem is one workload's generated inputs: the datasets and the
// model factory core.Train receives, plus the model's analytic cost.
type problem struct {
	prob       *core.Problem
	params     int
	trainFlops float64 // per sample, forward + backward
}

// buildProblem generates w's datasets from seed and wires its model
// factory. The seed reaches the library only through the generated
// data and trainOpts.seed.
func buildProblem(w *workload, seed int64) *problem {
	p := &core.Problem{Name: w.name}
	if w.cifar {
		cfg := model.CIFARConfig{ImageSize: w.imageSize, InC: 3, Channels: w.channels,
			Kernels: w.kernels, Dropout: w.dropout, Classes: w.netClasses}
		p.Train, p.Test = data.GenImages(data.ImageConfig{TrainN: w.trainN, TestN: w.testN,
			Size: w.imageSize, Channels: 3, Classes: w.dataClasses, Noise: w.noise, Seed: seed})
		p.Model = func(s int64) *nn.Network { return model.NewCIFARNet(rand.New(rand.NewSource(s)), cfg) }
	} else {
		cfg := model.NLCFConfig{SeqLen: w.seqLen, EmbedDim: w.embedDim, Hidden1: w.hidden1,
			Kernels: w.nKernels, Window: w.window, Hidden2: w.hidden2, Classes: w.netClasses}
		p.Train, p.Test = data.GenText(data.TextConfig{TrainN: w.trainN, TestN: w.testN,
			SeqLen: w.seqLen, EmbedDim: w.embedDim, Classes: w.dataClasses, Noise: w.noise, Seed: seed})
		p.Model = func(s int64) *nn.Network { return model.NewNLCFNet(rand.New(rand.NewSource(s)), cfg) }
	}
	cost := model.NetworkCost(p.Model(seed))
	return &problem{prob: p, params: cost.Params, trainFlops: cost.TrainFlopsPerSample}
}

func (p *problem) train() *dataset            { return p.prob.Train }
func (p *problem) test() *dataset             { return p.prob.Test }
func (p *problem) newNet(seed int64) *network { return p.prob.Model(seed) }
func (p *problem) head(trainN, testN int) *problem {
	q := *p.prob
	q.Train, q.Test = p.prob.Train.Slice(0, trainN), p.prob.Test.Slice(0, testN)
	return &problem{prob: &q, params: p.params, trainFlops: p.trainFlops}
}

// trainOpts is the slice of core.Config the benchmark sets; every other
// field keeps the library default (tree collective, auto workers).
type trainOpts struct {
	algo                      string // sasgd | sgd | downpour | eamsgd
	learners, interval, batch int
	epochs, evalEvery         int
	workers                   int // kernel workers per learner; 0 = automatic split
	gamma                     float64
	seed                      int64
	mesh                      *tcpMesh // nil = in-process channel fabric
	tracer                    *tracer  // nil = tracing off
	compress                  string
	compressK                 float64
}

type curvePoint struct {
	epoch            int
	test, loss, wall float64
}

type trainResult struct {
	samples   int64
	wall      time.Duration
	curve     []curvePoint
	finalTest float64
	params    []float64
	traffic   map[string][2]int64 // collective name → {words, messages}
}

// train runs core.Train. The library reports misuse by panicking; the
// harness turns a panic into a failed repetition.
func train(p *problem, o trainOpts) (res trainResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core.Train panicked: %v", r)
		}
	}()
	cfg := core.Config{Algo: core.Algorithm(o.algo), Learners: o.learners, Interval: o.interval,
		Batch: o.batch, Gamma: o.gamma, Epochs: o.epochs, EvalEvery: o.evalEvery, Seed: o.seed,
		Workers: o.workers, Compress: o.compress, CompressK: o.compressK, Tracer: o.tracer}
	if o.mesh != nil {
		cfg.Transport = o.mesh
	}
	r := core.Train(cfg, p.prob)
	res = trainResult{samples: r.Samples, wall: r.Wall, finalTest: r.FinalTest,
		params: r.FinalParams, traffic: map[string][2]int64{}}
	for _, pt := range r.Curve {
		res.curve = append(res.curve, curvePoint{pt.Epoch, pt.Test, pt.Loss, pt.WallSecs})
	}
	for name, a := range r.Comm.PerAlgo {
		res.traffic[name] = [2]int64{a.Words, a.Messages}
	}
	return res, nil
}

// newTracer returns a span recorder for one core.Train run whose
// per-goroutine rings hold spansPerTrack spans.
func newTracer(spansPerTrack int) *tracer { return obs.NewTracer(spansPerTrack) }

// phaseStat is one of the library's span phases (forward, backward,
// local_step, agg_wait, agg_apply, bcast on the learner tracks;
// allreduce, compress, queue_dwell on the comm-worker tracks) summed
// over the tracks that recorded it.
type phaseStat struct {
	count        int
	totalMs      float64
	p50Ms        float64 // mean of the tracks' medians
	p95Ms, p99Ms float64 // the worst track's
}

// phaseStats reads a finished run's spans; dropped is the largest
// number of spans any ring overwrote.
func phaseStats(tr *tracer) (stats map[string]phaseStat, dropped int) {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	stats = map[string]phaseStat{}
	tracks := map[string]float64{}
	for _, p := range tr.Profile() {
		name := p.Phase.String()
		s := stats[name]
		s.count, s.totalMs, s.p50Ms = s.count+p.Count, s.totalMs+ms(p.Total), s.p50Ms+ms(p.P50)
		s.p95Ms, s.p99Ms = max(s.p95Ms, ms(p.P95)), max(s.p99Ms, ms(p.P99))
		stats[name] = s
		tracks[name]++
		dropped = max(dropped, p.Dropped)
	}
	for name, s := range stats {
		s.p50Ms /= tracks[name]
		stats[name] = s
	}
	return stats, dropped
}

// writeTraceFile writes the run's spans as Chrome trace-event JSON.
func writeTraceFile(tr *tracer, path string) error { return tr.WriteTraceFile(path) }

// validateTrace checks that a trace file's events form matched, properly
// nested begin/end pairs on every thread and returns the span count.
func validateTrace(raw []byte) (int, error) { return obs.ValidateTrace(raw) }

func newSampler(n, batch int, seed int64) *sampler { return data.NewEpochSampler(n, batch, seed) }

func axpy(a float64, x, y []float64) { tensor.Axpy(a, x, y) }
func copyWords(dst, src []float64)   { tensor.Copy(dst, src) }

// setKernelWorkers sets the process-wide kernel worker budget
// (core.Train splits it across its learners) and returns the old one.
func setKernelWorkers(n int) int { return parallel.SetWorkers(n) }

func newChanGroup(p int) *group              { return comm.NewGroup(p) }
func newMeshGroup(m *tcpMesh) *group         { return comm.NewTransportGroup(m, nil, nil, nil) }
func newTCPLoopback(p int) (*tcpMesh, error) { return comm.NewTCPLoopback(p) }
func newCompressor(name string) compressor   { return comm.NewCompressor(name) }
func sparsityK(ratio float64, n int) int     { return comm.SparsityK(ratio, n) }

// compressedAllreduce runs one segment's codec collective untraced.
func compressedAllreduce(c compressor, g *group, rank int, seg, res []float64, ratio float64) {
	c.Allreduce(g, rank, seg, res, ratio, 0, nil, 0)
}

// groupTraffic returns the words and messages the group has moved.
func groupTraffic(g *group) (words, msgs int64) {
	s := g.Stats()
	return s.Words, s.Messages
}

// meshTraffic returns the bytes and frames that crossed the sockets. On
// a loopback mesh in equals out; the read side is counted before a
// frame is handed to its receiver, so it is exact at a barrier, where
// the write side may still owe its last increment.
func meshTraffic(m *tcpMesh) (bytes, frames int64) {
	s := m.WireStats()
	return s.BytesIn, s.FramesIn
}

// gemmShape is one layer's forward GEMM, C(m×n) = A(m×k)·B(k×n), run
// `calls` times per minibatch; weightWords is the size of the operand
// that holds the layer's parameters.
type gemmShape struct {
	m, k, n, calls, weightWords int
}

// gemmShapes lists the GEMMs behind net's parameterised layers at the
// given minibatch size, as the layers lower them: a convolution is one
// (outC × inC·kh·kw)·(inC·kh·kw × oh·ow) product per sample, a temporal
// convolution and a linear layer one product per minibatch.
func gemmShapes(net *network, batch int) []gemmShape {
	var out []gemmShape
	shape := append([]int(nil), net.InShape()...)
	for _, l := range net.Layers() {
		next := l.OutShape(shape)
		switch v := l.(type) {
		case *nn.Conv2D:
			k := v.InC * v.Geom.KH * v.Geom.KW
			out = append(out, gemmShape{v.OutC, k, next[1] * next[2], batch, v.OutC * k})
		case *nn.TemporalConv:
			k := v.Window * v.InD
			out = append(out, gemmShape{batch * next[0], k, v.OutK, 1, k * v.OutK})
		case *nn.Linear:
			out = append(out, gemmShape{batch, v.In, v.Out, 1, v.In * v.Out})
		}
		shape = next
	}
	return out
}

func newMatrix(rows, cols int) *matrix { return tensor.New(rows, cols) }
func matMul(dst, a, b *matrix)         { tensor.MatMul(dst, a, b) }
func matMulTransA(dst, a, b *matrix)   { tensor.MatMulTransA(dst, a, b) }
func matMulTransB(dst, a, b *matrix)   { tensor.MatMulTransB(dst, a, b) }
func appendFrame(dst []byte, payload []float64) []byte {
	return wire.AppendFrame(dst, wire.Header{From: 0, To: 1}, payload)
}

// decodeFrame decodes a frame produced by appendFrame into dst.
func decodeFrame(frame []byte, dst []float64) error {
	_, err := wire.DecodeBody(frame[wire.PrefixLen:], dst)
	return err
}

// simInterval asks netsim how long one aggregation interval takes on a
// p-learner fabric with the given compute rate, link rate and one-way
// latency: each learner is charged `steps` minibatches of flopsPerStep,
// then all run the boundary collective that bind attaches to the
// simulated group (a real collective, priced by the simulator's cost
// model).
func simInterval(p, steps int, flopsPerStep, flopsPerSec, bytesPerSec, latency float64, bind func(g *group) func(rank int)) float64 {
	cfg := netsim.DefaultConfig()
	cfg.Flops, cfg.PeerBandwidth, cfg.WordBytes = flopsPerSec, bytesPerSec, 8
	cfg.Topology, cfg.PeerLatency = netsim.TopologyFlat, latency/2 // flat = two hops per transfer
	cfg.BatchOverhead, cfg.ComputeJitter = 0, 0
	sim := netsim.New(p, cfg)
	g := comm.NewSimGroup(p, sim.Clocks(), sim.CostModel())
	defer g.Close()
	boundary := bind(g)
	onRanks(p, func(rank int) {
		for s := 0; s < steps; s++ {
			sim.ChargeBatch(rank, flopsPerStep)
		}
		boundary(rank)
	})
	return sim.MaxTime()
}
