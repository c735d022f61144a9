// Command sasgd-train trains one of the two paper workloads with any of
// the implemented distributed algorithms and prints the accuracy curve,
// the paper's Table-III hyperparameters exposed as flags.
//
//	go run ./cmd/sasgd-train -algo sasgd -workload cifar -p 8 -T 50
//	go run ./cmd/sasgd-train -algo downpour -workload nlcf -p 16 -epochs 40
//	go run ./cmd/sasgd-train -algo sasgd -p 8 -T 1 -sim   # simulated fabric timing
//	go run ./cmd/sasgd-train -p 8 -T 1 -trace out.json  # Perfetto timeline + end-of-run report
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"sasgd/internal/comm"
	"sasgd/internal/core"
	"sasgd/internal/experiments"
	"sasgd/internal/obs"
	"sasgd/internal/report"
)

// envRank is -rank's default: SASGD_RANK when it names a rank, else -1
// (host every rank).
func envRank() int {
	if v, err := strconv.Atoi(os.Getenv("SASGD_RANK")); err == nil && v >= 0 {
		return v
	}
	return -1
}

func main() {
	algo := flag.String("algo", "sasgd", "training algorithm: sgd, sasgd, downpour or eamsgd")
	workload := flag.String("workload", "cifar", "workload: cifar (Table I) or nlcf (Table II)")
	scale := flag.String("scale", "small", "small (reduced, default) or paper (exact published sizes; very slow in pure Go)")
	p := flag.Int("p", 4, "number of learners")
	t := flag.Int("T", 50, "gradient-aggregation interval (local updates between syncs)")
	gamma := flag.Float64("gamma", 0, "local learning rate γ (0 = workload default)")
	gammaP := flag.Float64("gammap", 0, "SASGD global rate γp (0 = γ/p, i.e. model averaging)")
	batch := flag.Int("batch", 0, "minibatch size M (0 = workload default)")
	epochs := flag.Int("epochs", 0, "epochs (0 = workload default)")
	seed := flag.Int64("seed", 1, "random seed")
	momentum := flag.Float64("momentum", 0, "EAMSGD local momentum (0 = default, negative = none)")
	tSched := flag.String("t-sched", "", "SASGD aggregation-period scheduler: static or adaptive (drift-controlled)")
	hierGroups := flag.Int("hier-groups", 0, "two-level SASGD aggregation: partition the learners into this many islands, aggregate intra-island every boundary and cross-island every -t-outer boundaries (<2 = flat)")
	tOuter := flag.Int("t-outer", 0, "inner boundaries per cross-island exchange with -hier-groups (0 = 4)")
	delayed := flag.Bool("delayed", false, "delay the global application of each boundary's aggregate by one round so the transfer hides behind the next interval's compute")
	compress := flag.String("compress", "", "SASGD gradient compression codec: topk (error-feedback top-k), qint8 (int8 quantization) or none")
	compressK := flag.Float64("compress-k", 0, "top-k fraction in (0,1] for -compress topk (0 = 0.05; 1 = dense)")
	compressAdapt := flag.Bool("compress-adapt", false, "adapt the top-k fraction to the captured gradient-mass fraction (topk only)")
	workers := flag.Int("workers", 0, "per-learner kernel workers (0 = split SASGD_WORKERS/GOMAXPROCS across learners)")
	sim := flag.Bool("sim", false, "attach the fabric simulator and report simulated epoch time")
	vtime := flag.Bool("vtime", false, "deterministic virtual-time scheduling for the asynchronous algorithms")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON timeline of the run to this file and print the end-of-run report (load in ui.perfetto.dev)")
	// The deployment triple has environment defaults, so one launcher
	// environment can place every process of a multi-process run; the
	// flags win.
	transport := flag.String("transport", os.Getenv("SASGD_TRANSPORT"), "wire transport: chan (in-process fabric, the default) or tcp (length-prefixed framed sockets; default from SASGD_TRANSPORT)")
	rank := flag.Int("rank", envRank(), "with -transport tcp: the single learner rank this process hosts, meeting its peers over -peers (-1 = host every rank over TCP loopback; default from SASGD_RANK)")
	peers := flag.String("peers", os.Getenv("SASGD_PEERS"), "with -transport tcp -rank N: comma-separated host:port for every rank in order, e.g. 127.0.0.1:7000,127.0.0.1:7001 (default from SASGD_PEERS)")
	paramsOut := flag.String("params-out", "", "write the final parameters to this file as little-endian float64 words (rank-0 process only)")
	faults := flag.String("faults", "", "SASGD fault-injection plan: slow=R:K (rank R computes K× slower) and crash=R@B (rank R fails at boundary B, which ends the run with its error; resume the survivors with -resume and -resume-ranks), e.g. slow=2:4,crash=3@10")
	ckpt := flag.String("ckpt", "", "SASGD checkpoint path written at aggregation boundaries; a %d in the path keeps one file per boundary (x′ and counters only, so not with -delayed, -hier-groups or -compress; a resume replays the run exactly on nlcf, not on cifar, whose dropout RNG is not saved)")
	ckptEvery := flag.Int("ckpt-every", 1, "checkpoint every Nth aggregation boundary (with -ckpt)")
	resume := flag.String("resume", "", "resume SASGD training from this checkpoint file")
	resumeRanks := flag.String("resume-ranks", "", "comma-separated original ranks the resumed learners play, e.g. 0,1,3 after rank 2 died (default: all of them)")
	metricsOn := flag.Bool("metrics", false, "collect the fleet view at every aggregation boundary (per-rank compute and wall time, drift, straggler detection) and print it as the ranks of the end-of-run report (sasgd and sgd only)")
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
		TSched:        *tSched,
		HierGroups:    *hierGroups,
		TOuter:        *tOuter,
		DelayedApply:  *delayed,
		Compress:      *compress,
		CompressK:     *compressK,
		CompressAdapt: *compressAdapt,
		VirtualTime:   *vtime,
		Workers:       *workers,
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

	// Fault injection and checkpoint-restart.
	if *faults != "" {
		plan, err := comm.ParseFaultPlan(*faults)
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

	// Wire transport.
	switch *transport {
	case "", "chan":
	case "tcp":
		if cfg.Algo != core.AlgoSASGD {
			fmt.Fprintf(os.Stderr, "sasgd-train: -transport tcp requires -algo sasgd\n")
			os.Exit(2)
		}
		var tr *comm.TCPTransport
		var err error
		if *rank < 0 {
			tr, err = comm.NewTCPLoopback(cfg.Learners)
		} else {
			if *sim {
				fmt.Fprintf(os.Stderr, "sasgd-train: -rank (multi-process) does not compose with -sim\n")
				os.Exit(2)
			}
			addrs := strings.Split(*peers, ",")
			for i := range addrs {
				addrs[i] = strings.TrimSpace(addrs[i])
			}
			if len(addrs) != cfg.Learners || addrs[0] == "" {
				fmt.Fprintf(os.Stderr, "sasgd-train: -peers needs exactly %d comma-separated host:port entries, got %q\n", cfg.Learners, *peers)
				os.Exit(2)
			}
			fmt.Printf("tcp mesh: rank %d of %d, waiting for peers %v\n", *rank, cfg.Learners, addrs)
			tr, err = comm.NewTCPTransport(comm.TCPConfig{Addrs: addrs, Local: []int{*rank}})
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sasgd-train: tcp transport: %v\n", err)
			os.Exit(1)
		}
		defer tr.Close()
		cfg.Transport = tr
	default:
		fmt.Fprintf(os.Stderr, "sasgd-train: unknown transport %q (want chan or tcp)\n", *transport)
		os.Exit(2)
	}

	// Both observing flags attach a tracer: the end-of-run report reads
	// it. The fleet view feeds only from Algorithm 1's aggregation
	// boundaries — sasgd's, and sgd's, which runs as Algorithm 1 at p = 1;
	// -metrics on an asynchronous algorithm is harmless but prints no
	// ranks.
	var tracer *obs.Tracer
	if *trace != "" || *metricsOn {
		tracer = obs.NewTracer(0)
		cfg.Tracer = tracer
	}
	cfg.Metrics = *metricsOn

	fmt.Printf("training %s on %s: p=%d T=%d M=%d γ=%g epochs=%d\n",
		cfg.Algo, w.Name, cfg.Learners, cfg.Interval, cfg.Batch, cfg.Gamma, cfg.Epochs)
	res, err := core.Run(cfg, w.Problem)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sasgd-train: %v\n", err)
		os.Exit(1)
	}

	tab := report.Table{Header: []string{"epoch", "train", "test", "loss"}}
	for _, pt := range res.Curve {
		tab.AddRow(fmt.Sprint(pt.Epoch), report.Pct(pt.Train), report.Pct(pt.Test), fmt.Sprintf("%.4f", pt.Loss))
	}
	fmt.Print(tab.String())
	fmt.Printf("final: train %s test %s (%d samples, wall %s)\n",
		report.Pct(res.FinalTrain), report.Pct(res.FinalTest), res.Samples, res.Wall.Round(1e6))
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
	if *sim {
		fmt.Printf("simulated: %.3fs total, %.3fs/epoch (compute %.3fs, communication %.3fs per learner)\n",
			res.SimTime, res.EpochTime(), res.SimCompute, res.SimComm)
	}
	if *trace != "" {
		if err := tracer.WriteTraceFile(*trace); err != nil {
			fmt.Fprintf(os.Stderr, "sasgd-train: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (load in ui.perfetto.dev or chrome://tracing)\n", *trace)
	}
	if tracer != nil {
		core.WriteReport(os.Stdout, cfg, res)
	}
}
