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
	obsmetrics "sasgd/internal/obs/metrics"
)

// The generated-configuration harness. Every invariant the SASGD loop
// promises — run-to-run determinism, collapse of the degenerate policy
// settings onto plain Algorithm 1, transport/tracer/metrics/overlap
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
	allreduce   AllreduceAlgo
	codec       string
	k           float64
	adapt       bool
	tsched      string
	hierGroups  int
	tOuter      int
	delayed     bool
	overlap     bool
	buckets     int
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
// hierarchy, faults × codec × delay, …) — those are the rejections the harness
// wants named — and a few carry a junk mutation no run could accept.
func drawConfig(rng *rand.Rand) genDraw {
	d := genDraw{p: 1 + rng.Intn(5), interval: 1 + rng.Intn(4)}
	d.allreduce = []AllreduceAlgo{"", AllreduceTree, AllreducePTree}[rng.Intn(3)]
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
	d.overlap = rng.Intn(10) < 3
	d.buckets = rng.Intn(3)
	switch rng.Intn(20) {
	case 0, 1, 2:
		d.faults = "empty"
	case 3, 4:
		d.faults = fmt.Sprintf("seed=%d,slow=%d:3,evict=2s", rng.Intn(99), rng.Intn(d.p))
	case 5:
		d.faults = fmt.Sprintf("seed=%d,drop=0.05,timeout=80ms,evict=2s", rng.Intn(99))
	case 6:
		if d.p > 1 {
			d.faults = fmt.Sprintf("seed=%d,crash=%d@%d,timeout=80ms,evict=400ms", rng.Intn(99), rng.Intn(d.p), rng.Intn(2))
		}
	}
	d.ckpt = rng.Intn(5) == 0
	d.sim = rng.Intn(4) == 0
	d.tracer = rng.Intn(4) == 0
	d.metrics = rng.Intn(4) == 0
	if rng.Intn(12) == 0 {
		d.junk = []string{"gamma", "collective", "codec", "tsched", "negk", "localranks", "algo"}[rng.Intn(7)]
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
	genFlipOverlap
)

// config builds a fresh Config for the draw. The returned cleanup
// closes whatever the config opened.
func (d genDraw) config(t *testing.T, v genVariant) (Config, func()) {
	t.Helper()
	cfg := Config{
		Algo: AlgoSASGD, Learners: d.p, Interval: d.interval, Gamma: genGamma,
		Batch: genBatch, Epochs: genEpochs, Seed: genSeed,
		Allreduce: d.allreduce, CommBuckets: d.buckets,
		Compress: d.codec, CompressK: d.k, CompressAdapt: d.adapt,
		TSched: d.tsched, HierGroups: d.hierGroups, TOuter: d.tOuter,
		DelayedApply: d.delayed, OverlapComm: d.overlap != (v == genFlipOverlap),
	}
	if d.allreduce == AllreducePTree {
		cfg.CommChunk = 16
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
		cfg.Metrics = obsmetrics.New()
	}
	switch d.junk {
	case "gamma":
		cfg.Gamma = 0
	case "collective":
		cfg.Allreduce = "ring"
	case "codec":
		cfg.Compress = "zstd"
	case "tsched":
		cfg.TSched = "sometimes"
	case "negk":
		cfg.Compress, cfg.CompressK = CodecTopK, -0.5
	case "localranks":
		cfg.LocalRanks = []int{0}
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
		cleanup = func() { tr.Close() } // idempotent: a membership run closes it first
	}
	return cfg, cleanup
}

// genTrain runs one accepted configuration; a panic from inside the run
// is a test failure carrying the draw.
func genTrain(t *testing.T, what string, cfg Config, cleanup func(), prob *Problem) *Result {
	t.Helper()
	defer cleanup()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: accepted config panicked inside Train: %v", what, r)
		}
	}()
	res := Train(cfg, prob)
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

// checkDraw asserts every per-draw property of an accepted draw and
// returns the number of codec collectives its conservation check saw.
func checkDraw(t *testing.T, d genDraw, prob *Problem) (collectives int) {
	t.Helper()
	// Dropped deliveries are charged per attempt and a late ack fires a
	// deduplicated retransmission, so only the values of a drop plan are
	// schedule-free; every other plan pins its traffic too.
	exactTraffic := !strings.Contains(d.faults, "drop")

	var ledger *massLedger
	if d.codec != "" && d.k < 1 { // CompressK ≥ 1 is the dense path
		ledger = watchCodecs()
	}
	a := d.run(t, genBase, prob)
	collectives = ledger.check(t, fmt.Sprintf("%+v", d))
	b := d.run(t, genBase, prob)
	mustBitwise(t, fmt.Sprintf("run twice %+v", d), a, b, 0)
	if exactTraffic {
		mustSameTraffic(t, fmt.Sprintf("run twice %+v", d), a, b)
	}
	if a.FinalT != b.FinalT || a.CompressK != b.CompressK || a.LiveP != b.LiveP {
		t.Fatalf("run twice %v: FinalT %d/%d CompressK %g/%g LiveP %d/%d", d,
			a.FinalT, b.FinalT, a.CompressK, b.CompressK, a.LiveP, b.LiveP)
	}

	tcp := d.run(t, genTCP, prob)
	mustBitwise(t, fmt.Sprintf("chan vs tcp %+v", d), a, tcp, 0)
	if exactTraffic {
		mustSameTraffic(t, fmt.Sprintf("chan vs tcp %+v", d), a, tcp)
	}

	mustBitwise(t, fmt.Sprintf("tracer on vs off %+v", d), a, d.run(t, genFlipTracer, prob), 0)
	mustBitwise(t, fmt.Sprintf("metrics on vs off %+v", d), a, d.run(t, genFlipMetrics, prob), 0)

	mustBitwise(t, fmt.Sprintf("overlap on vs off %+v", d), a, d.run(t, genFlipOverlap, prob), 0)

	// Closed form (TestSASGDWordsMovedMatchesCollectiveCount): a dense
	// binomial-tree run moves (p−1)·m words for the initial broadcast and
	// 2(p−1)·m per aggregation; the chunked tree moves the same words in
	// more messages. Frames, drift statistics, hierarchy and membership
	// changes add or remove traffic, so the form applies without them.
	dense := d.codec == "" || d.k >= 1
	crashes := strings.Contains(d.faults, "crash")
	if dense && d.tsched != TSchedAdaptive && d.hierGroups < 2 && !d.metrics && !crashes && exactTraffic {
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
// contributions of non-leaders under a hierarchy, buckets launched from
// inside backward, survivors after a crash. For top-k it also checks the
// ledger the adaptive controller and the fleet frame read: a rank's
// Δsent² + Δresid² is the squared norm of what it folded.
type massLedger struct {
	mu    sync.Mutex
	calls map[int]*massCall // by the rank's own collective count: every live rank makes the same sequence
	errs  []string
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
// many collectives it covered. Nil-safe: a dense draw has no ledger.
func (l *massLedger) check(t *testing.T, what string) int {
	t.Helper()
	if l == nil {
		return 0
	}
	newCompressor = comm.NewCompressor
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
	l      *massLedger
	seq    int
	folded []float64
}

func (c *ledgerCodec) Allreduce(g *comm.Group, rank int, seg, res []float64, ratio, ready float64, tk *obs.Track, arg int32) {
	c.folded = c.folded[:0]
	var mass, scale float64
	for i, v := range seg {
		v += res[i]
		c.folded = append(c.folded, v)
		mass += v * v
		scale += math.Abs(v)
	}
	s0, r0 := c.Totals()
	c.Compressor.Allreduce(g, rank, seg, res, ratio, ready, tk, arg)
	s1, r1 := c.Totals()

	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	if got := (s1 - s0) + (r1 - r0); c.Name() == CodecTopK && !(math.Abs(got-mass) <= 1e-9*mass) {
		c.l.errs = append(c.l.errs, fmt.Sprintf("collective %d rank %d: sent² + resid² = %g for a folded mass of %g", c.seq, rank, got, mass))
	}
	call := c.l.calls[c.seq]
	if call == nil {
		call = &massCall{in: make([]float64, len(seg)), out: make([]float64, len(seg)), agg: append([]float64(nil), seg...)}
		c.l.calls[c.seq] = call
	}
	for i := range seg {
		call.in[i] += c.folded[i]
		call.out[i] += res[i]
		if math.Float64bits(seg[i]) != math.Float64bits(call.agg[i]) {
			c.l.errs = append(c.l.errs, fmt.Sprintf("collective %d: rank %d holds aggregate %g at %d, another rank %g", c.seq, rank, seg[i], i, call.agg[i]))
			break
		}
	}
	call.scale += scale
	c.seq++
}

// checkCollapse asserts that each degenerate policy setting reduces to
// plain SASGD at the draw's shape (p, T, collective, codec): an explicit
// static schedule, one island per rank exchanged every boundary, a
// delayed run with a single boundary, an empty fault plan, and a top-k
// fraction that ships everything.
func checkCollapse(t *testing.T, d genDraw, prob *Problem) {
	t.Helper()
	shape := genDraw{p: d.p, interval: d.interval, allreduce: d.allreduce,
		codec: d.codec, k: d.k, adapt: d.adapt, buckets: d.buckets}
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
		if d.allreduce != AllreducePTree {
			mustSameTraffic(t, fmt.Sprintf("singleton islands vs plain %+v", shape), plain, hr)
		}
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
	accepted, collectives := 0, 0
	for i := 0; i < draws; i++ {
		d := drawConfig(rng)
		cfg, cleanup := d.config(t, genBase)
		cleanup()
		if err := cfg.Validate(); err != nil {
			rejected[err.Error()]++
			continue
		}
		accepted++
		collectives += checkDraw(t, d, prob)
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
	t.Logf("%d draws: %d accepted (%d codec collectives checked for conservation), %d rejected:\n  %s",
		draws, accepted, collectives, draws-accepted, strings.Join(reasons, "\n  "))
	if collectives == 0 {
		t.Error("no codec collective was checked for conservation")
	}
	if accepted < draws/2 {
		t.Errorf("only %d of %d draws accepted — the generator no longer covers the accepted space", accepted, draws)
	}
}

// TestValidateRules hits every rule of the validation table once: the
// broken config gets exactly that rule's reason from Validate, and Train
// panics with the same error instead of reaching a training loop.
func TestValidateRules(t *testing.T) {
	tr, err := comm.NewTCPLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	broken := []func(*Config){
		func(c *Config) { c.Gamma = 0 },
		func(c *Config) { c.Algo = "adam" },
		func(c *Config) { c.Allreduce = "ring" },
		func(c *Config) { c.Compress = "zstd" },
		func(c *Config) { c.Compress, c.CompressK = CodecTopK, -1 },
		func(c *Config) { c.TSched = "decay" },
		func(c *Config) { c.Algo, c.CheckpointPath = AlgoEAMSGD, "x.ckpt" },
		func(c *Config) { c.Algo, c.Transport = AlgoHogwild, tr },
		func(c *Config) { c.Learners, c.Transport = 3, tr },
		func(c *Config) { c.LocalRanks = []int{0} },
		func(c *Config) { c.Transport, c.LocalRanks, c.Faults = tr, []int{0}, &comm.FaultPlan{} },
		func(c *Config) { c.Transport, c.LocalRanks = tr, []int{1, 0} },
		func(c *Config) { c.Algo, c.DelayedApply = AlgoDownpour, true },
		func(c *Config) { c.ResumeFrom, c.HierGroups = "x.ckpt", 2 },
		func(c *Config) { c.Faults, c.Compress, c.DelayedApply = &comm.FaultPlan{}, CodecQInt8, true },
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
