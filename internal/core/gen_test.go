package core

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"sasgd/internal/comm"
	"sasgd/internal/netsim"
	"sasgd/internal/obs"
)

// The generated-configuration harness. Every invariant the SASGD loop
// promises — run-to-run determinism, collapse of the degenerate policy
// settings onto plain Algorithm 1, transport/tracer/metrics
// transparency, the dense tree's closed-form traffic — is a property of
// the whole accepted configuration space, not of the hand-picked rows
// the per-feature tests sweep. This file draws configurations from that
// space with a seeded generator and checks every property on every
// draw. A draw Config.Validate refuses is recorded with its reason and
// the reasons are checked against the validation table; a panic from
// inside the training loop fails the test, so every hole in the accepted
// space has to be a named rule of that table.

// genDraw is one generated configuration, kept as plain data so each
// run gets fresh stateful parts (simulator, fault plan, transport,
// tracer, registry) from config().
type genDraw struct {
	p, interval int
	codec       string
	k           float64
	adapt       bool
	tsched      string
	hierGroups  int
	tOuter      int
	delayed     bool
	faults      string // "" = no fault plane, "empty" = zero plan, else a ParseFaultPlan spec
	ckpt        bool
	sim         bool
	tracer      bool
	metrics     bool
	junk        string // one deliberately invalid mutation ("" = none)
}

const (
	genBatch  = 4
	genEpochs = 2
	genGamma  = 0.05
	genSeed   = 17
)

// drawConfig draws one configuration. Fields are independent, so some
// draws land on compositions the config layer rejects (checkpoint ×
// hierarchy, checkpoint × delay, …) — those are the rejections the harness
// wants named — and a few carry a junk mutation no run could accept.
func drawConfig(rng *rand.Rand) genDraw {
	d := genDraw{p: 1 + rng.Intn(5), interval: 1 + rng.Intn(4)}
	switch rng.Intn(8) {
	case 0, 1:
		d.codec, d.k, d.adapt = CodecTopK, []float64{0.1, 0.3}[rng.Intn(2)], rng.Intn(2) == 0
	case 2:
		d.codec = CodecQInt8
	case 3:
		d.codec, d.k = CodecTopK, 1
	}
	d.tsched = []string{"", TSchedStatic, TSchedAdaptive}[rng.Intn(3)]
	if rng.Intn(5) < 2 {
		d.hierGroups, d.tOuter = 1+rng.Intn(d.p+1), 1+rng.Intn(3)
	}
	d.delayed = rng.Intn(10) < 3
	switch rng.Intn(20) {
	case 0, 1, 2:
		d.faults = "empty"
	case 3, 4:
		d.faults = fmt.Sprintf("slow=%d:3", rng.Intn(d.p))
	case 5, 6:
		if d.p > 1 {
			d.faults = fmt.Sprintf("crash=%d@%d", rng.Intn(d.p), rng.Intn(2))
		}
	}
	d.ckpt = rng.Intn(5) == 0
	d.sim = rng.Intn(4) == 0
	d.tracer = rng.Intn(4) == 0
	d.metrics = rng.Intn(4) == 0
	if rng.Intn(12) == 0 {
		d.junk = []string{"gamma", "codec", "tsched", "negk", "algo"}[rng.Intn(5)]
	}
	return d
}

// genVariant is the one aspect of a draw a property run flips.
type genVariant int

const (
	genBase genVariant = iota
	genTCP
	genFlipTracer
	genFlipMetrics
)

// config builds a fresh Config for the draw. The returned cleanup
// closes whatever the config opened.
func (d genDraw) config(t *testing.T, v genVariant) (Config, func()) {
	t.Helper()
	cfg := Config{
		Algo: AlgoSASGD, Learners: d.p, Interval: d.interval, Gamma: genGamma,
		Batch: genBatch, Epochs: genEpochs, Seed: genSeed,
		Compress: d.codec, CompressK: d.k, CompressAdapt: d.adapt,
		TSched: d.tsched, HierGroups: d.hierGroups, TOuter: d.tOuter,
		DelayedApply: d.delayed,
	}
	switch d.faults {
	case "":
	case "empty":
		cfg.Faults = &comm.FaultPlan{}
	default:
		plan, err := comm.ParseFaultPlan(d.faults)
		if err != nil {
			t.Fatalf("generator produced a bad fault spec %q: %v", d.faults, err)
		}
		cfg.Faults = plan
	}
	if d.ckpt {
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "gen.ckpt")
	}
	if d.sim {
		cfg.Sim, cfg.FlopsPerSample = netsim.New(d.p, netsim.DefaultConfig()), 1e7
	}
	if d.tracer != (v == genFlipTracer) {
		cfg.Tracer = obs.NewTracer(1 << 10)
	}
	if d.metrics != (v == genFlipMetrics) {
		cfg.Metrics = true
	}
	switch d.junk {
	case "gamma":
		cfg.Gamma = 0
	case "codec":
		cfg.Compress = "zstd"
	case "tsched":
		cfg.TSched = "sometimes"
	case "negk":
		cfg.Compress, cfg.CompressK = CodecTopK, -0.5
	case "algo":
		cfg.Algo, cfg.Faults = AlgoDownpour, &comm.FaultPlan{}
	}
	cleanup := func() {}
	if v == genTCP {
		tr, err := comm.NewTCPLoopback(d.p)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Transport = tr
		cleanup = func() { tr.Close() } // idempotent: a failed run closes it first
	}
	return cfg, cleanup
}

// genTrain runs one accepted configuration; an error from the run is a
// test failure carrying the draw.
func genTrain(t *testing.T, what string, cfg Config, cleanup func(), prob *Problem) *Result {
	t.Helper()
	defer cleanup()
	res, err := Run(cfg, prob)
	if err != nil {
		t.Fatalf("%s: accepted config failed inside Run: %v", what, err)
	}
	if len(res.FinalParams) == 0 {
		t.Fatalf("%s: no final parameters", what)
	}
	return res
}

func (d genDraw) run(t *testing.T, v genVariant, prob *Problem) *Result {
	t.Helper()
	cfg, cleanup := d.config(t, v)
	return genTrain(t, fmt.Sprintf("variant %d of %+v", v, d), cfg, cleanup, prob)
}

// mustBitwise fails unless two runs ended on the same parameters (tol 0
// = bitwise).
func mustBitwise(t *testing.T, what string, a, b *Result, tol float64) {
	t.Helper()
	if len(a.FinalParams) != len(b.FinalParams) {
		t.Fatalf("%s: parameter counts %d vs %d", what, len(a.FinalParams), len(b.FinalParams))
	}
	for i, x := range a.FinalParams {
		if y := b.FinalParams[i]; x != y && !(math.Abs(x-y) <= tol) {
			t.Fatalf("%s: parameters differ at %d: %g vs %g", what, i, x, y)
		}
	}
}

func mustSameTraffic(t *testing.T, what string, a, b *Result) {
	t.Helper()
	if a.Comm.Words != b.Comm.Words || a.Comm.Messages != b.Comm.Messages {
		t.Fatalf("%s: traffic %d words / %d messages vs %d / %d", what,
			a.Comm.Words, a.Comm.Messages, b.Comm.Words, b.Comm.Messages)
	}
}

// checkCrash runs a crash draw over channels and over TCP. A run long
// enough to reach the crash's boundary must end, on both, with the
// crashing rank's error; it reports whether it did. A shorter run never
// crashes and is checked like any other draw.
func checkCrash(t *testing.T, d genDraw, prob *Problem) bool {
	t.Helper()
	var rank, boundary int
	if _, err := fmt.Sscanf(d.faults, "crash=%d@%d", &rank, &boundary); err != nil {
		t.Fatalf("generator produced a bad crash spec %q: %v", d.faults, err)
	}
	want := fmt.Sprintf("learner %d: core: rank %d crashed at boundary %d (fault plan)", rank, rank, boundary)
	cfg, cleanup := d.config(t, genBase)
	_, err := Run(cfg, prob)
	cleanup()
	if err == nil {
		return false
	}
	if err.Error() != want {
		t.Fatalf("crash draw %+v: Run returned %v, want %q", d, err, want)
	}
	cfg, cleanup = d.config(t, genTCP)
	_, err = Run(cfg, prob)
	cleanup()
	if fmt.Sprint(err) != want {
		t.Fatalf("crash draw %+v over TCP: Run returned %v, want %q", d, err, want)
	}
	return true
}

// checkDraw asserts every per-draw property of an accepted draw and
// returns the number of codec collectives its conservation check saw.
func checkDraw(t *testing.T, d genDraw, prob *Problem) (collectives int) {
	t.Helper()
	var ledger *massLedger
	if d.codec != "" && d.k < 1 { // CompressK ≥ 1 is the dense path
		ledger = watchCodecs()
	}
	a := d.run(t, genBase, prob)
	// A flat, eager codec boundary applies from the codec's own aggregate
	// (Compressor.AllreduceApply); delay and hierarchy apply later.
	sparse := min(d.hierGroups, d.p) < 2 && !d.delayed
	collectives = ledger.check(t, fmt.Sprintf("%+v", d), sparse)
	b := d.run(t, genBase, prob)
	mustBitwise(t, fmt.Sprintf("run twice %+v", d), a, b, 0)
	mustSameTraffic(t, fmt.Sprintf("run twice %+v", d), a, b)
	if a.FinalT != b.FinalT || a.CompressK != b.CompressK {
		t.Fatalf("run twice %v: FinalT %d/%d CompressK %g/%g", d,
			a.FinalT, b.FinalT, a.CompressK, b.CompressK)
	}

	tcp := d.run(t, genTCP, prob)
	mustBitwise(t, fmt.Sprintf("chan vs tcp %+v", d), a, tcp, 0)
	mustSameTraffic(t, fmt.Sprintf("chan vs tcp %+v", d), a, tcp)

	mustBitwise(t, fmt.Sprintf("tracer on vs off %+v", d), a, d.run(t, genFlipTracer, prob), 0)
	mustBitwise(t, fmt.Sprintf("metrics on vs off %+v", d), a, d.run(t, genFlipMetrics, prob), 0)

	// Closed form (TestSASGDWordsMovedMatchesCollectiveCount): a dense
	// binomial-tree run moves (p−1)·m words for the initial broadcast and
	// 2(p−1)·m per aggregation. Frames, drift statistics and a hierarchy
	// add or remove traffic, so the form applies without them.
	dense := d.codec == "" || d.k >= 1
	if dense && d.tsched != TSchedAdaptive && d.hierGroups < 2 && !d.metrics {
		m := len(a.FinalParams)
		steps := genEpochs * batchesPerEpoch(prob.Train.Partition(d.p), genBatch)
		want := int64((d.p - 1) * m * (2*(steps/d.interval) + 1))
		if a.Comm.Words != want {
			t.Fatalf("closed form %v: moved %d words, want %d", d, a.Comm.Words, want)
		}
	}
	return collectives
}

// massLedger is the run-level error-feedback conservation check. While it
// is installed every learner's codec is wrapped, and each codec
// collective — one bucket at one boundary — records what went in and
// what stayed behind; check then requires of every collective
//
//	Σ_r (seg_r + res_r before)  =  aggregate + Σ_r (res_r after)
//
// coordinate by coordinate up to the rounding of the sums: whatever the
// learners put into a boundary either reached the model or is still in
// somebody's residual — the root's included, which absorbs what its
// re-selection drops. The codec tests pin this for one isolated codec
// (TestCodecConservationBitwise); here it holds for what the engine
// actually feeds the codecs on every accepted composition — zero
// contributions of non-leaders under a hierarchy, delayed launches in
// flight across an interval. For top-k it also checks the
// ledger the adaptive controller and the fleet frame read: a rank's
// Δsent² + Δresid² is the squared norm of what it folded. On the sparse
// apply the aggregate is read back off the apply target, (x after −
// x before)/alpha, and check fails unless every collective of a draw
// took the path its shape calls for.
type massLedger struct {
	mu             sync.Mutex
	calls          map[int]*massCall // by the rank's own collective count: every rank makes the same sequence
	plain, applied int               // rank-collectives by path: Allreduce, AllreduceApply
	errs           []string
}

type massCall struct {
	in, out, agg []float64 // Σ_r folded, Σ_r residual after, the aggregate (identical on every rank)
	scale        float64   // Σ_r Σ_i |folded|: what the rounding of the sums is relative to
}

// watchCodecs installs a ledger until its check runs.
func watchCodecs() *massLedger {
	l := &massLedger{calls: map[int]*massCall{}}
	newCompressor = func(name string) comm.Compressor {
		return &ledgerCodec{Compressor: comm.NewCompressor(name), l: l}
	}
	return l
}

// check uninstalls the ledger, fails on what it found and returns how
// many collectives it covered; sparse says every collective must have
// been an AllreduceApply, and none otherwise. Nil-safe: a dense draw has
// no ledger.
func (l *massLedger) check(t *testing.T, what string, sparse bool) int {
	t.Helper()
	if l == nil {
		return 0
	}
	newCompressor = comm.NewCompressor
	if sparse && (l.plain > 0 || l.applied == 0) || !sparse && l.applied > 0 {
		t.Fatalf("%s: %d collectives left the aggregate in the bucket and %d applied it (want every one applied: %v)",
			what, l.plain, l.applied, sparse)
	}
	for seq, c := range l.calls {
		tol := 1e-9 * (c.scale + 1)
		for i := range c.in {
			if diff := c.in[i] - (c.agg[i] + c.out[i]); !(math.Abs(diff) <= tol) {
				l.errs = append(l.errs, fmt.Sprintf("collective %d coordinate %d: %g went in, %g was applied and %g kept",
					seq, i, c.in[i], c.agg[i], c.out[i]))
				break
			}
		}
	}
	if len(l.errs) > 0 {
		sort.Strings(l.errs)
		t.Fatalf("conservation %s: %d violations, first: %s", what, len(l.errs), l.errs[0])
	}
	return len(l.calls)
}

type ledgerCodec struct {
	comm.Compressor
	l           *massLedger
	seq         int
	folded, agg []float64
	x0          []float64 // the apply target before an AllreduceApply
}

// NeedResid2 keeps resid² on: the ledger reads it whoever else does.
func (c *ledgerCodec) NeedResid2(bool) { c.Compressor.NeedResid2(true) }

func (c *ledgerCodec) Allreduce(g *comm.Group, rank int, seg, res []float64, ratio, ready float64, tk *obs.Track, arg int32) {
	mass, scale := c.fold(seg, res)
	s0, r0 := c.Totals()
	c.Compressor.Allreduce(g, rank, seg, res, ratio, ready, tk, arg)
	c.record(rank, seg, res, mass, scale, s0, r0, false)
}

func (c *ledgerCodec) AllreduceApply(g *comm.Group, rank int, seg, res, x []float64, alpha, ratio, ready float64, tk *obs.Track, arg int32) {
	mass, scale := c.fold(seg, res)
	c.x0 = append(c.x0[:0], x...)
	s0, r0 := c.Totals()
	c.Compressor.AllreduceApply(g, rank, seg, res, x, alpha, ratio, ready, tk, arg)
	c.agg = c.agg[:0]
	for i, v := range x {
		c.agg = append(c.agg, (v-c.x0[i])/alpha)
	}
	c.record(rank, c.agg, res, mass, scale, s0, r0, true)
}

// fold keeps what the codec is about to fold, seg + res, and returns
// its squared norm and its mass Σ|v|.
func (c *ledgerCodec) fold(seg, res []float64) (mass, scale float64) {
	c.folded = c.folded[:0]
	for i, v := range seg {
		v += res[i]
		c.folded = append(c.folded, v)
		mass += v * v
		scale += math.Abs(v)
	}
	return mass, scale
}

// record enters one rank's collective: agg the aggregate it applied or
// holds, res its residual after, s0 and r0 its norm totals before.
func (c *ledgerCodec) record(rank int, agg, res []float64, mass, scale, s0, r0 float64, applied bool) {
	s1, r1 := c.Totals()
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	if applied {
		c.l.applied++
	} else {
		c.l.plain++
	}
	if got := (s1 - s0) + (r1 - r0); c.Name() == CodecTopK && !(math.Abs(got-mass) <= 1e-9*mass) {
		c.l.errs = append(c.l.errs, fmt.Sprintf("collective %d rank %d: sent² + resid² = %g for a folded mass of %g", c.seq, rank, got, mass))
	}
	call := c.l.calls[c.seq]
	if call == nil {
		call = &massCall{in: make([]float64, len(agg)), out: make([]float64, len(agg)), agg: append([]float64(nil), agg...)}
		c.l.calls[c.seq] = call
	}
	for i := range agg {
		call.in[i] += c.folded[i]
		call.out[i] += res[i]
		if math.Float64bits(agg[i]) != math.Float64bits(call.agg[i]) {
			c.l.errs = append(c.l.errs, fmt.Sprintf("collective %d: rank %d holds aggregate %g at %d, another rank %g", c.seq, rank, agg[i], i, call.agg[i]))
			break
		}
	}
	call.scale += scale
	c.seq++
}

// checkCollapse asserts that each degenerate policy setting reduces to
// plain SASGD at the draw's shape (p, T, codec): an explicit
// static schedule, one island per rank exchanged every boundary, a
// delayed run with a single boundary, an empty fault plan, and a top-k
// fraction that ships everything.
func checkCollapse(t *testing.T, d genDraw, prob *Problem) {
	t.Helper()
	shape := genDraw{p: d.p, interval: d.interval,
		codec: d.codec, k: d.k, adapt: d.adapt}
	plain := shape.run(t, genBase, prob)
	dense := d.codec == "" || d.k >= 1

	static := shape
	static.tsched = TSchedStatic
	sr := static.run(t, genBase, prob)
	mustBitwise(t, fmt.Sprintf("static vs plain %+v", shape), plain, sr, 0)
	mustSameTraffic(t, fmt.Sprintf("static vs plain %+v", shape), plain, sr)

	// The singleton-island pin is stated for dense runs.
	if dense {
		hier := shape
		hier.hierGroups, hier.tOuter = d.p, 1
		hr := hier.run(t, genBase, prob)
		mustBitwise(t, fmt.Sprintf("singleton islands vs plain %+v", shape), plain, hr, 0)
		mustSameTraffic(t, fmt.Sprintf("singleton islands vs plain %+v", shape), plain, hr)
	}

	one := shape
	one.interval = genEpochs * batchesPerEpoch(prob.Train.Partition(d.p), genBatch)
	one.tsched = TSchedStatic
	eager := one.run(t, genBase, prob)
	one.delayed = true
	mustBitwise(t, fmt.Sprintf("single-boundary delayed vs eager %+v", one), eager, one.run(t, genBase, prob), 0)

	empty := shape
	empty.faults = "empty"
	mustBitwise(t, fmt.Sprintf("empty fault plan vs plain %+v", shape), plain, empty.run(t, genBase, prob), 0)

	if d.codec == CodecTopK {
		full, none := shape, shape
		full.k = 1
		none.codec, none.k, none.adapt = "", 0, false
		fr, nr := full.run(t, genBase, prob), none.run(t, genBase, prob)
		mustBitwise(t, fmt.Sprintf("CompressK=1 vs dense %+v", shape), nr, fr, 0)
		mustSameTraffic(t, fmt.Sprintf("CompressK=1 vs dense %+v", shape), nr, fr)
	}
}

// TestGeneratedConfigs draws configurations and checks every property on
// each accepted one. -short caps the draw count.
func TestGeneratedConfigs(t *testing.T) {
	draws := 120
	if testing.Short() {
		draws = 20
	}
	prob := tinyProblem(48, 24, 5)
	rng := rand.New(rand.NewSource(2017))
	rejected := map[string]int{}
	accepted, collectives, crashes := 0, 0, 0
	for i := 0; i < draws; i++ {
		d := drawConfig(rng)
		cfg, cleanup := d.config(t, genBase)
		cleanup()
		if err := cfg.Validate(); err != nil {
			rejected[err.Error()]++
			continue
		}
		accepted++
		if strings.HasPrefix(d.faults, "crash") && checkCrash(t, d, prob) {
			crashes++
		} else {
			collectives += checkDraw(t, d, prob)
		}
		checkCollapse(t, d, prob)
	}
	table := map[string]bool{}
	for _, r := range configRules {
		table["core: invalid config: "+r.reason] = true
	}
	reasons := make([]string, 0, len(rejected))
	for r, n := range rejected {
		reasons = append(reasons, fmt.Sprintf("%d× %s", n, r))
		if !table[r] {
			t.Errorf("rejection is not a rule of the validation table: %s", r)
		}
	}
	sort.Strings(reasons)
	t.Logf("%d draws: %d accepted (%d ended with their crash's error, %d codec collectives checked for conservation), %d rejected:\n  %s",
		draws, accepted, crashes, collectives, draws-accepted, strings.Join(reasons, "\n  "))
	if collectives == 0 {
		t.Error("no codec collective was checked for conservation")
	}
	if accepted < draws/2 {
		t.Errorf("only %d of %d draws accepted — the generator no longer covers the accepted space", accepted, draws)
	}
}

// partialMesh is a Transport that hosts only rank 0 of its mesh.
type partialMesh struct{ comm.Transport }

func (partialMesh) Local(r int) bool { return r == 0 }

// TestValidateRules hits every rule of the validation table once: the
// broken config gets exactly that rule's reason from Validate, Run
// returns the same error without reaching a training loop, and Train
// panics with it.
func TestValidateRules(t *testing.T) {
	tr, err := comm.NewTCPLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	broken := []func(*Config){
		func(c *Config) { c.Gamma = 0 },
		func(c *Config) { c.Algo = "adam" },
		func(c *Config) { c.Compress = "zstd" },
		func(c *Config) { c.Compress, c.CompressK = CodecTopK, -1 },
		func(c *Config) { c.TSched = "decay" },
		func(c *Config) { c.Algo, c.CheckpointPath = AlgoEAMSGD, "x.ckpt" },
		func(c *Config) { c.Algo, c.Transport = AlgoEAMSGD, tr },
		func(c *Config) { c.Learners, c.Transport = 3, tr },
		func(c *Config) { c.Transport, c.Sim = partialMesh{tr}, netsim.New(2, netsim.DefaultConfig()) },
		func(c *Config) { c.Algo, c.DelayedApply = AlgoDownpour, true },
		func(c *Config) { c.ResumeFrom, c.HierGroups = "x.ckpt", 2 },
	}
	if len(broken) != len(configRules) {
		t.Fatalf("%d broken configs for %d rules", len(broken), len(configRules))
	}
	for i, mut := range broken {
		cfg := Config{Algo: AlgoSASGD, Learners: 2, Interval: 2, Gamma: 0.05, Batch: 4}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("base config rejected: %v", err)
		}
		mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.HasSuffix(err.Error(), configRules[i].reason) {
			t.Errorf("rule %d (%s): Validate returned %v", i, configRules[i].reason, err)
			continue
		}
		if res, rerr := Run(cfg, tinyProblem(8, 8, 1)); res != nil || fmt.Sprint(rerr) != err.Error() {
			t.Errorf("rule %d: Run returned (%v, %v), want (nil, %v)", i, res, rerr, err)
		}
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != err.Error() {
					t.Errorf("rule %d: Train panicked with %v, want %v", i, r, err)
				}
			}()
			Train(cfg, tinyProblem(8, 8, 1))
		}()
	}
}
