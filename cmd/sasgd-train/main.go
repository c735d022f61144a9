// Command sasgd-train trains one of the two paper workloads with any of
// the implemented distributed algorithms and prints the accuracy curve,
// the paper's Table-III hyperparameters exposed as flags.
//
//	go run ./cmd/sasgd-train -algo sasgd -workload cifar -p 8 -T 50
//	go run ./cmd/sasgd-train -algo downpour -workload nlcf -p 16 -epochs 40
//	go run ./cmd/sasgd-train -algo sasgd -p 8 -T 1 -sim   # simulated fabric timing
//	go run ./cmd/sasgd-train -p 8 -T 1 -overlap -trace out.json  # Perfetto timeline + phase profile
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"sasgd/internal/comm"
	"sasgd/internal/core"
	"sasgd/internal/experiments"
	"sasgd/internal/metrics"
	"sasgd/internal/obs"
	obsmetrics "sasgd/internal/obs/metrics"
)

func main() {
	algo := flag.String("algo", "sasgd", "training algorithm: sgd, sasgd, downpour, eamsgd, hogwild")
	workload := flag.String("workload", "cifar", "workload: cifar (Table I) or nlcf (Table II)")
	scale := flag.String("scale", "small", "small (reduced, default) or paper (exact published sizes; very slow in pure Go)")
	p := flag.Int("p", 4, "number of learners")
	t := flag.Int("T", 50, "gradient-aggregation interval (local updates between syncs)")
	gamma := flag.Float64("gamma", 0, "local learning rate γ (0 = workload default)")
	gammaP := flag.Float64("gammap", 0, "SASGD global rate γp (0 = γ/p, i.e. model averaging)")
	batch := flag.Int("batch", 0, "minibatch size M (0 = workload default)")
	epochs := flag.Int("epochs", 0, "epochs (0 = workload default)")
	seed := flag.Int64("seed", 1, "random seed")
	allreduce := flag.String("allreduce", "tree", "SASGD collective: tree or ptree (the same tree, chunked and pipelined)")
	commChunk := flag.Int("comm-chunk", 0, "ptree chunk size in float64 words (0 = 8192)")
	overlap := flag.Bool("overlap", false, "overlap SASGD aggregation with backprop (bucketed allreduce; default also via SASGD_OVERLAP=1)")
	buckets := flag.Int("buckets", 0, "gradient bucket count for -overlap (0 = one per parameterized layer)")
	momentum := flag.Float64("momentum", 0, "EAMSGD local momentum (0 = default, negative = none)")
	tSched := flag.String("t-sched", "", "SASGD aggregation-period scheduler: static or adaptive (drift-controlled; default also via SASGD_TSCHED)")
	hierGroups := flag.Int("hier-groups", 0, "two-level SASGD aggregation: partition the learners into this many islands, aggregate intra-island every boundary and cross-island every -t-outer boundaries (<2 = flat; default also via SASGD_HIER_GROUPS)")
	tOuter := flag.Int("t-outer", 0, "inner boundaries per cross-island exchange with -hier-groups (0 = 4)")
	delayed := flag.Bool("delayed", false, "delay the global application of each boundary's aggregate by one round so the transfer hides behind the next interval's compute (default also via SASGD_DELAYED=1)")
	compress := flag.String("compress", "", "SASGD gradient compression codec: topk (error-feedback top-k), qint8 (int8 quantization) or none (default also via SASGD_COMPRESS, e.g. SASGD_COMPRESS=topk:0.05)")
	compressK := flag.Float64("compress-k", 0, "top-k fraction in (0,1] for -compress topk (0 = 0.05; 1 = dense)")
	compressAdapt := flag.Bool("compress-adapt", false, "adapt the top-k fraction to the captured gradient-mass fraction (topk only)")
	workers := flag.Int("workers", 0, "per-learner kernel workers (0 = split SASGD_WORKERS/GOMAXPROCS across learners)")
	fastKernels := flag.Bool("fast-kernels", false, "use reordered-summation tensor kernels: faster dot products, value-equal to the default kernels within 1e-12 but not bit-identical (default also via SASGD_FAST_KERNELS=1)")
	sim := flag.Bool("sim", false, "attach the fabric simulator and report simulated epoch time")
	vtime := flag.Bool("vtime", false, "deterministic virtual-time scheduling for the asynchronous algorithms")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON timeline of the run to this file (default also via SASGD_TRACE=1 or SASGD_TRACE=path; load in ui.perfetto.dev)")
	transport := flag.String("transport", "", "wire transport: chan (in-process fabric, the default) or tcp (length-prefixed framed sockets; default also via SASGD_TRANSPORT)")
	rank := flag.Int("rank", -1, "with -transport tcp: the single learner rank this process hosts, meeting its peers over -peers (-1 = host every rank over TCP loopback; default also via SASGD_RANK)")
	peers := flag.String("peers", "", "with -transport tcp -rank N: comma-separated host:port for every rank in order, e.g. 127.0.0.1:7000,127.0.0.1:7001 (default also via SASGD_PEERS)")
	paramsOut := flag.String("params-out", "", "write the final parameters to this file as little-endian float64 words (rank-0 process only)")
	faults := flag.String("faults", "", "SASGD fault-injection plan, e.g. seed=1,drop=0.05,slow=2:4,crash=3@10,evict=500ms (default also via SASGD_FAULTS)")
	ckpt := flag.String("ckpt", "", "SASGD checkpoint path written at aggregation boundaries; a %d in the path keeps one file per boundary")
	ckptEvery := flag.Int("ckpt-every", 1, "checkpoint every Nth aggregation boundary (with -ckpt)")
	resume := flag.String("resume", "", "resume SASGD training from this checkpoint file")
	resumeRanks := flag.String("resume-ranks", "", "comma-separated original ranks the resumed learners play, e.g. 0,1,3 after rank 2 died (default: all of them)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars and /debug/obs live snapshots and /debug/pprof/ profiles on this address during the run (e.g. localhost:6060)")
	metricsOn := flag.Bool("metrics", false, "attach the fleet metrics registry: per-boundary drift/T/compression telemetry, straggler detection, and an end-of-run fleet health summary (SASGD only; default also via SASGD_METRICS=1)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text on /debug/metrics and the JSON snapshot on /debug/obs at this address during the run (implies -metrics; same mux as -debug-addr)")
	metricsEvents := flag.String("metrics-events", "", "append boundary/T-change/membership/fault/anomaly events to this NDJSON file during the run (implies -metrics)")
	flag.Parse()

	sc := experiments.ScaleSmall
	switch *scale {
	case "small":
	case "paper":
		sc = experiments.ScalePaper
		fmt.Fprintln(os.Stderr, "sasgd-train: paper scale selected; a full run takes CPU-days in pure Go")
	default:
		fmt.Fprintf(os.Stderr, "sasgd-train: unknown scale %q (want small or paper)\n", *scale)
		os.Exit(2)
	}
	var w *experiments.Workload
	switch *workload {
	case "cifar":
		w = experiments.ImageWorkloadAt(sc)
	case "nlcf":
		w = experiments.TextWorkloadAt(sc)
	default:
		fmt.Fprintf(os.Stderr, "sasgd-train: unknown workload %q (want cifar or nlcf)\n", *workload)
		os.Exit(2)
	}

	cfg := core.Config{
		Algo:          core.Algorithm(*algo),
		Learners:      *p,
		Interval:      *t,
		Gamma:         w.Gamma,
		GammaP:        *gammaP,
		Batch:         w.Batch,
		Epochs:        w.Epochs,
		Seed:          *seed,
		Momentum:      *momentum,
		Allreduce:     core.AllreduceAlgo(*allreduce),
		CommChunk:     *commChunk,
		OverlapComm:   *overlap,
		CommBuckets:   *buckets,
		TSched:        *tSched,
		HierGroups:    *hierGroups,
		TOuter:        *tOuter,
		DelayedApply:  *delayed,
		Compress:      *compress,
		CompressK:     *compressK,
		CompressAdapt: *compressAdapt,
		VirtualTime:   *vtime,
		Workers:       *workers,
		FastKernels:   *fastKernels,
	}
	if *compressK < 0 || *compressK > 1 {
		fmt.Fprintf(os.Stderr, "sasgd-train: -compress-k %g out of range (0,1]\n", *compressK)
		os.Exit(2)
	}
	if *gamma > 0 {
		cfg.Gamma = *gamma
	}
	if *batch > 0 {
		cfg.Batch = *batch
	}
	if *epochs > 0 {
		cfg.Epochs = *epochs
	}
	if *sim {
		simCfg := w.SimConfig(cfg.Learners)
		cfg.Sim = simCfg
		cfg.FlopsPerSample = w.PaperCost.TrainFlopsPerSample
	}

	// Fault injection and checkpoint-restart: the flag wins, the
	// SASGD_FAULTS env supplies the default (same precedence as -trace).
	faultSpec := *faults
	if faultSpec == "" {
		faultSpec = core.DefaultFaultSpec()
	}
	if faultSpec != "" {
		plan, err := comm.ParseFaultPlan(faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sasgd-train: -faults: %v\n", err)
			os.Exit(2)
		}
		cfg.Faults = plan
	}
	cfg.CheckpointPath = *ckpt
	cfg.CheckpointEvery = *ckptEvery
	cfg.ResumeFrom = *resume
	if *resumeRanks != "" {
		for _, s := range strings.Split(*resumeRanks, ",") {
			r, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "sasgd-train: -resume-ranks: %v\n", err)
				os.Exit(2)
			}
			cfg.ResumeRanks = append(cfg.ResumeRanks, r)
		}
	}
	// Everything the flags can spell wrong about the run itself is in
	// core's validation table; check it before any file, socket or
	// endpoint is opened.
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "sasgd-train: %v\n", err)
		os.Exit(2)
	}

	// Wire transport: the flags win, the SASGD_TRANSPORT / SASGD_RANK /
	// SASGD_PEERS envs supply defaults (same precedence as -trace).
	trMode, trRank, trPeers := *transport, *rank, *peers
	envT, envR, envP := core.DefaultTransport()
	if trMode == "" {
		trMode = envT
	}
	if trRank < 0 {
		trRank = envR
	}
	if trPeers == "" {
		trPeers = envP
	}
	switch trMode {
	case "", "chan":
	case "tcp":
		if cfg.Algo != core.AlgoSASGD {
			fmt.Fprintf(os.Stderr, "sasgd-train: -transport tcp requires -algo sasgd\n")
			os.Exit(2)
		}
		var tr *comm.TCPTransport
		var err error
		if trRank < 0 {
			tr, err = comm.NewTCPLoopback(cfg.Learners)
		} else {
			if *sim || cfg.Faults != nil || cfg.CheckpointPath != "" || cfg.ResumeFrom != "" {
				fmt.Fprintf(os.Stderr, "sasgd-train: -rank (multi-process) composes with neither -sim nor -faults/-ckpt/-resume\n")
				os.Exit(2)
			}
			addrs := strings.Split(trPeers, ",")
			for i := range addrs {
				addrs[i] = strings.TrimSpace(addrs[i])
			}
			if len(addrs) != cfg.Learners || addrs[0] == "" {
				fmt.Fprintf(os.Stderr, "sasgd-train: -peers needs exactly %d comma-separated host:port entries, got %q\n", cfg.Learners, trPeers)
				os.Exit(2)
			}
			fmt.Printf("tcp mesh: rank %d of %d, waiting for peers %v\n", trRank, cfg.Learners, addrs)
			tr, err = comm.NewTCPTransport(comm.TCPConfig{Addrs: addrs, Local: []int{trRank}})
			cfg.LocalRanks = []int{trRank}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sasgd-train: tcp transport: %v\n", err)
			os.Exit(1)
		}
		defer tr.Close()
		cfg.Transport = tr
	default:
		fmt.Fprintf(os.Stderr, "sasgd-train: unknown transport %q (want chan or tcp)\n", trMode)
		os.Exit(2)
	}

	// Tracing: the flag wins, the SASGD_TRACE env supplies the default
	// (same precedence as -overlap/SASGD_OVERLAP). The debug endpoint
	// needs a tracer too, so it implies one even without a trace file.
	tracePath := *trace
	if tracePath == "" {
		tracePath = core.DefaultTracePath()
	}
	var tracer *obs.Tracer
	if tracePath != "" || *debugAddr != "" || *metricsAddr != "" {
		tracer = obs.NewTracer(0)
		cfg.Tracer = tracer
	}

	// Metrics: the flag wins, the SASGD_METRICS env supplies the default,
	// and either export flag implies collection. The registry only feeds
	// from SASGD's aggregation boundaries; attaching it to another
	// algorithm is harmless but yields no fleet view.
	var reg *obsmetrics.Registry
	if *metricsOn || *metricsAddr != "" || *metricsEvents != "" || core.DefaultMetrics() {
		reg = obsmetrics.New()
		cfg.Metrics = reg
		// Train attaches the registry to the tracer too; doing it here as
		// well makes /debug/metrics live before the first boundary.
		tracer.SetMetrics(reg)
		if *metricsEvents != "" {
			f, err := os.Create(*metricsEvents)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sasgd-train: -metrics-events: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			reg.SetEvents(obsmetrics.NewEventLog(f))
		}
	}

	if *debugAddr != "" {
		addr, err := tracer.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sasgd-train: debug endpoint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("debug endpoint: http://%s/debug/obs\n", addr)
	}
	if *metricsAddr != "" && *metricsAddr != *debugAddr {
		addr, err := tracer.ServeDebug(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sasgd-train: metrics endpoint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics endpoint: http://%s/debug/metrics\n", addr)
	}

	fmt.Printf("training %s on %s: p=%d T=%d M=%d γ=%g epochs=%d\n",
		cfg.Algo, w.Name, cfg.Learners, cfg.Interval, cfg.Batch, cfg.Gamma, cfg.Epochs)
	res := core.Train(cfg, w.Problem)

	tab := metrics.Table{Header: []string{"epoch", "train", "test", "loss"}}
	for _, pt := range res.Curve {
		tab.AddRow(fmt.Sprint(pt.Epoch), metrics.Pct(pt.Train), metrics.Pct(pt.Test), fmt.Sprintf("%.4f", pt.Loss))
	}
	fmt.Print(tab.String())
	fmt.Printf("final: train %s test %s (%d samples, wall %s)\n",
		metrics.Pct(res.FinalTrain), metrics.Pct(res.FinalTest), res.Samples, res.Wall.Round(1e6))
	if *paramsOut != "" {
		if len(res.FinalParams) == 0 {
			fmt.Fprintln(os.Stderr, "sasgd-train: -params-out: this process does not host rank 0, so it has no final parameters to write")
		} else {
			buf := make([]byte, 8*len(res.FinalParams))
			for i, v := range res.FinalParams {
				binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
			}
			if err := os.WriteFile(*paramsOut, buf, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "sasgd-train: -params-out: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("final parameters: %d words written to %s\n", len(res.FinalParams), *paramsOut)
		}
	}
	if res.StalenessMax > 0 {
		fmt.Printf("gradient staleness: mean %.2f, max %d\n", res.StalenessMean, res.StalenessMax)
	}
	if res.CompressK > 0 {
		fmt.Printf("compression: final top-k fraction %.4g (%d words on the wire)\n", res.CompressK, res.WordsMoved)
	}
	if f := res.Comm.Faults; f.Active() {
		fmt.Printf("faults: %d drops, %d retries, %d timeouts, %d crashes, %d evictions, %d re-forms (%d/%d learners live)\n",
			f.Drops, f.Retries, f.Timeouts, f.Crashes, f.Evictions, f.Reforms, res.LiveP, res.P)
	}
	if *sim {
		fmt.Printf("simulated: %.3fs total, %.3fs/epoch (compute %.3fs, communication %.3fs per learner)\n",
			res.SimTime, res.EpochTime(), res.SimCompute, res.SimComm)
	}
	if tracer != nil {
		if tracePath != "" {
			if err := tracer.WriteTraceFile(tracePath); err != nil {
				fmt.Fprintf(os.Stderr, "sasgd-train: writing trace: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("trace written to %s (load in ui.perfetto.dev or chrome://tracing)\n", tracePath)
		}
		fmt.Print(tracer.ProfileTable("phase latency profile"))
		if ov, total := tracer.OverlapFraction(); total > 0 {
			fmt.Printf("allreduce overlap: %.1f%% of %v hidden behind backward\n",
				100*float64(ov)/float64(total), total.Round(time.Microsecond))
		}
		if hid, total := tracer.HiddenFraction(); total > 0 {
			fmt.Printf("allreduce hidden: %.1f%% of %v inside compute (forward+backward+step)\n",
				100*float64(hid)/float64(total), total.Round(time.Microsecond))
		}
		if res.Comm.Words > 0 {
			fmt.Print(res.Comm.String())
		}
	}
	if snap := reg.Fleet().Snapshot(); snap != nil && snap.Boundaries > 0 {
		ftab := metrics.Table{
			Title:  "fleet health",
			Header: []string{"rank", "live", "compute(ms)", "wall(ms)", "sim-comp(s)", "sim-comm(s)", "z", "flagged"},
		}
		for _, r := range snap.Ranks {
			live := "yes"
			if !r.Live {
				live = "no"
			}
			flagged := ""
			if r.Flagged {
				flagged = "STRAGGLER"
			}
			ftab.AddRow(fmt.Sprint(r.Rank), live,
				fmt.Sprintf("%.1f", r.TotComputeNs/1e6),
				fmt.Sprintf("%.1f", r.TotWallNs/1e6),
				fmt.Sprintf("%.3f", r.TotSimCompute),
				fmt.Sprintf("%.3f", r.TotSimComm),
				fmt.Sprintf("%.2f", r.Z), flagged)
		}
		fmt.Print(ftab.String())
		fmt.Printf("fleet: %d boundaries, %d/%d live, T=%d, drift RMS %.4g, %d frame words on the wire\n",
			snap.Boundaries, snap.Live, len(snap.Ranks), snap.T, snap.DriftRMS,
			int64(snap.Boundaries)*obsmetrics.FrameTrafficWords(len(snap.Ranks)))
		if len(snap.Anomalies) > 0 {
			fmt.Printf("anomalies: ranks %v flagged as stragglers (leave-one-out z ≥ %g for %d+ boundaries)\n",
				snap.Anomalies, obsmetrics.DefaultZ, obsmetrics.DefaultStreak)
		}
	}
}
