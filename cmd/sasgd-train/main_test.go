package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestTwoProcessTCPMatchesChannel is the end-to-end acceptance run for
// the wire transport: two real OS processes, one learner rank each,
// meet over a TCP mesh on loopback and must train to final parameters
// bitwise identical to a single-process channel-fabric run of the same
// configuration. Real processes — not goroutines — so the per-process
// worker budget, env defaults and flag plumbing are exercised exactly
// as a user would hit them.
func TestTwoProcessTCPMatchesChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and trains three runs; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildTrain(t, dir)

	common := []string{"-p", "2", "-T", "2", "-epochs", "1", "-batch", "8", "-seed", "7"}
	chanOut := filepath.Join(dir, "chan.bin")
	if out, err := exec.Command(bin, append(common, "-params-out", chanOut)...).CombinedOutput(); err != nil {
		t.Fatalf("channel run: %v\n%s", err, out)
	}
	tcpOut := filepath.Join(dir, "tcp.bin")
	runTwoProcess(t, bin, common, "-params-out", tcpOut)
	sameParams(t, "two-process TCP", tcpOut, chanOut)
}

// TestTwoProcessCheckpointResumeMatchesChannel: checkpoint and resume
// are the boundary's last stage on the run's own group, so they compose
// with a multi-process mesh. A two-process run writes per-boundary
// checkpoints from the process hosting rank 0; a second two-process run
// resumes from a mid-run one, every process reading the file. Both must
// end on the single-process channel run's final parameters, bit for bit.
// The text workload has no dropout: resume is exact replay only for
// models whose forward pass draws no randomness (core/checkpoint.go).
func TestTwoProcessCheckpointResumeMatchesChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and trains five processes; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildTrain(t, dir)

	common := []string{"-workload", "nlcf", "-p", "2", "-T", "2", "-epochs", "2", "-batch", "8", "-seed", "7"}
	chanOut := filepath.Join(dir, "chan.bin")
	if out, err := exec.Command(bin, append(common, "-params-out", chanOut)...).CombinedOutput(); err != nil {
		t.Fatalf("channel run: %v\n%s", err, out)
	}

	ckptOut := filepath.Join(dir, "ckpt.bin")
	runTwoProcess(t, bin, append(common, "-ckpt", filepath.Join(dir, "ck-%d.ckpt"), "-ckpt-every", "25"),
		"-params-out", ckptOut)
	sameParams(t, "two-process checkpointing", ckptOut, chanOut)

	mid := filepath.Join(dir, "ck-100.ckpt") // mid-way through the second epoch
	if _, err := os.Stat(mid); err != nil {
		t.Fatalf("expected mid-run checkpoint: %v", err)
	}
	resumeOut := filepath.Join(dir, "resume.bin")
	runTwoProcess(t, bin, append(common, "-resume", mid), "-params-out", resumeOut)
	sameParams(t, "two-process resume", resumeOut, chanOut)
}

// twoProcessArgs returns the command line of one rank of args run as a
// two-process TCP mesh on two free loopback ports, extra appended.
func twoProcessArgs(t *testing.T, args []string) func(rank string, extra ...string) []string {
	t.Helper()
	peers := fmt.Sprintf("127.0.0.1:%d,127.0.0.1:%d", freePort(t), freePort(t))
	return func(rank string, extra ...string) []string {
		a := append(append([]string{}, args...), "-transport", "tcp", "-rank", rank, "-peers", peers)
		return append(a, extra...)
	}
}

// runTwoProcess runs args as a two-process TCP mesh on loopback: rank 1
// in the background, rank 0 — with rank0Extra appended — in the
// foreground. It fails the test unless both exit cleanly.
func runTwoProcess(t *testing.T, bin string, args []string, rank0Extra ...string) {
	t.Helper()
	rankArgs := twoProcessArgs(t, args)
	cmd1 := exec.Command(bin, rankArgs("1")...)
	cmd1.Env = os.Environ()
	var out1 bytes.Buffer
	cmd1.Stdout, cmd1.Stderr = &out1, &out1
	if err := cmd1.Start(); err != nil {
		t.Fatal(err)
	}
	done1 := make(chan error, 1)
	go func() { done1 <- cmd1.Wait() }()

	cmd0 := exec.Command(bin, rankArgs("0", rank0Extra...)...)
	cmd0.Env = os.Environ()
	if out, err := cmd0.CombinedOutput(); err != nil {
		cmd1.Process.Kill()
		<-done1
		t.Fatalf("%v: %v\n%s", cmd0.Args, err, out)
	}
	select {
	case err := <-done1:
		if err != nil {
			t.Fatalf("rank-1 process: %v\n%s", err, out1.String())
		}
	case <-time.After(2 * time.Minute):
		cmd1.Process.Kill()
		t.Fatalf("rank-1 process did not exit\n%s", out1.String())
	}
}

// sameParams fails the test unless the -params-out file got holds the
// same bytes as want.
func sameParams(t *testing.T, what, got, want string) {
	t.Helper()
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) == 0 || !bytes.Equal(g, w) {
		t.Fatalf("%s final parameters differ from the channel-fabric run (%d vs %d bytes)", what, len(g), len(w))
	}
}

// TestUnknownCollectiveExitsTwo: the run aggregates with one tree, so
// the flags that used to pick a collective and its chunk size are gone —
// the flag package refuses them with exit 2 before anything is opened,
// rather than a script that still passes them training silently.
func TestUnknownCollectiveExitsTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary; skipped in -short")
	}
	bin := buildTrain(t, t.TempDir())
	for _, args := range [][]string{{"-allreduce", "tree"}, {"-allreduce", "ring"}, {"-comm-chunk", "16"}} {
		out, err := exec.Command(bin, append([]string{"-p", "2", "-epochs", "1"}, args...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: err = %v, want exit status 2\n%s", args, err, out)
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(string(out), want) {
			t.Errorf("%v printed %q, want it to contain %q", args, out, want)
		}
	}
}

// TestCodecOnNonSASGDExitsTwo: a codec is a SASGD boundary policy. On
// any other algorithm — sequential SGD included, although it runs as
// Algorithm 1 at p = 1 — it is refused with exit 2 instead of training
// dense, or compressing a single learner's gradient, without a word. A
// name that is no algorithm (hogwild is not one) is refused as such first.
// On SASGD a codec beside -ckpt is refused too: the checkpoint holds x′
// and counters, not the codec's error-feedback residual.
func TestCodecOnNonSASGDExitsTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary; skipped in -short")
	}
	bin := buildTrain(t, t.TempDir())
	const policy = "sasgd-train: core: invalid config: adaptive T, HierGroups, DelayedApply and compression are SASGD boundary policies"
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-algo", "downpour", "-compress", "topk"}, policy},
		{[]string{"-algo", "sgd", "-compress", "qint8"}, policy},
		{[]string{"-algo", "eamsgd", "-compress", "topk", "-compress-k", "0.2"}, policy},
		{[]string{"-algo", "hogwild", "-compress", "topk"}, "sasgd-train: core: invalid config: unknown algorithm (want sgd, sasgd, downpour or eamsgd)"},
		{[]string{"-ckpt", "x", "-compress", "topk"}, "sasgd-train: core: invalid config: checkpointing composes with the T-scheduler but not with DelayedApply, HierGroups or a codec"},
	} {
		out, err := exec.Command(bin, append([]string{"-p", "2", "-epochs", "1"}, c.args...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: err = %v, want exit status 2\n%s", c.args, err, out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("%v printed %q, want it to contain %q", c.args, out, c.want)
		}
	}
}

// TestRetiredFaultKeysExitTwo: a fault is a slow rank or a crash. The
// message-fate keys (drop, delay, burst), the seed they drew from and
// the eviction timeout of the retired membership ledger are refused
// with exit 2, naming the key, before anything trains — rather than a
// script that still passes them running without them.
func TestRetiredFaultKeysExitTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary; skipped in -short")
	}
	bin := buildTrain(t, t.TempDir())
	for _, c := range []struct{ spec, clause, key string }{
		{"drop=0.1", "drop=0.1", "drop"},
		{"seed=1,slow=1:2", "seed=1", "seed"},
		{"crash=1@2,evict=500ms", "evict=500ms", "evict"},
	} {
		args := []string{"-p", "2", "-epochs", "1", "-workload", "nlcf", "-faults", c.spec}
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-faults %s: err = %v, want exit status 2\n%s", c.spec, err, out)
		}
		want := fmt.Sprintf("sasgd-train: -faults: comm: fault clause %q: unknown fault key %q", c.clause, c.key)
		if !strings.Contains(string(out), want) {
			t.Errorf("-faults %s printed %q, want it to contain %q", c.spec, out, want)
		}
	}
}

// TestRetiredTelemetryFlagsExitTwo: the run reports through -trace and
// the end-of-run report only. The live debug server and the NDJSON event
// log are not flags: the flag package refuses them with exit 2, naming
// the flag, before anything trains or listens.
func TestRetiredTelemetryFlagsExitTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildTrain(t, dir)
	for _, args := range [][]string{{"-debug-addr", "localhost:0"}, {"-metrics-events", "x.ndjson"}} {
		cmd := exec.Command(bin, append([]string{"-p", "2", "-epochs", "1", "-workload", "nlcf"}, args...)...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: err = %v, want exit status 2\n%s", args, err, out)
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(string(out), want) {
			t.Errorf("%v printed %q, want it to contain %q", args, out, want)
		}
	}
}

// TestRunErrorsExitOne: a run that fails on a file its flags name — a
// -resume checkpoint that is missing or garbage, a -ckpt path in a
// directory that does not exist — is a failed run, not a bad command
// line: it prints core's error on one line and exits 1, with no
// goroutine dump.
func TestRunErrorsExitOne(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildTrain(t, dir)
	garbage := filepath.Join(dir, "garbage.ckpt")
	if err := os.WriteFile(garbage, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"missing resume", []string{"-resume", filepath.Join(dir, "missing.ckpt")}},
		{"garbage resume", []string{"-resume", garbage}},
		{"ckpt in missing dir", []string{"-ckpt", filepath.Join(dir, "no", "such", "dir", "run.ckpt")}},
	} {
		cmd := exec.Command(bin, append([]string{"-workload", "nlcf", "-p", "2", "-T", "2", "-epochs", "1"}, tc.args...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: err = %v, want exit status 1\n%s", tc.name, err, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), "core:") || strings.Contains(stderr.String(), "goroutine ") {
			t.Errorf("%s: stderr %q, want core's error and no goroutine dump", tc.name, stderr.String())
		}
	}
}

// TestRunErrorsPeerKilledExitsOne: a peer process that dies ends the
// survivor's run. SIGKILL rank 1 of a two-process run once it is
// training, and rank 0 must exit 1 within 10 s, its stderr one line
// naming the link that ended, with no goroutine dump.
func TestRunErrorsPeerKilledExitsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and trains two processes; skipped in -short")
	}
	bin := buildTrain(t, t.TempDir())
	// Hundreds of epochs at M = 1, T = 1: minutes of training, cut short.
	rankArgs := twoProcessArgs(t, []string{"-workload", "nlcf", "-p", "2", "-T", "1", "-batch", "1", "-epochs", "500"})
	cmd1 := exec.Command(bin, rankArgs("1")...)
	out1, err := cmd1.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd1.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd1.Process.Kill()
	cmd0 := exec.Command(bin, rankArgs("0")...)
	var stderr0 bytes.Buffer
	cmd0.Stderr = &stderr0
	if err := cmd0.Start(); err != nil {
		t.Fatal(err)
	}
	done0 := make(chan error, 1)
	go func() { done0 <- cmd0.Wait() }()
	defer cmd0.Process.Kill()

	training := false
	for sc := bufio.NewScanner(out1); !training && sc.Scan(); {
		training = strings.HasPrefix(sc.Text(), "training ")
	}
	if !training {
		t.Fatalf("rank 1 never started training; rank 0's stderr:\n%s", stderr0.String())
	}
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait()

	select {
	case err := <-done0:
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("rank 0: err = %v, want exit status 1\n%s", err, stderr0.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("rank 0 still running 10 s after rank 1 was killed\n%s", stderr0.String())
	}
	msg := stderr0.String()
	if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "sasgd-train: ") ||
		!strings.Contains(msg, "link 1→0") || strings.Contains(msg, "goroutine ") {
		t.Errorf("rank 0's stderr %q, want one sasgd-train: line naming link 1→0 and no goroutine dump", msg)
	}
}

// TestTwoProcessCrashThenRestart: recovery is restart, across real
// processes. Rank 1 of a two-process TCP run crashes at boundary 2
// (-faults crash=1@2): its process exits 1 naming the crash, and rank
// 0's exits 1 naming the link that ended, each within 10 s on one
// stderr line with no goroutine dump. The survivor then relaunches
// alone from the boundary-2 checkpoint rank 0 wrote, and lands on the
// final parameters of the same crash and restart run in one process
// over channels, bit for bit.
func TestTwoProcessCrashThenRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and trains five processes; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildTrain(t, dir)
	common := []string{"-workload", "nlcf", "-T", "2", "-epochs", "1", "-batch", "8", "-seed", "7"}
	crash := append([]string{"-p", "2", "-faults", "crash=1@2"}, common...)
	const crashed = "rank 1 crashed at boundary 2"
	restart := func(ckpts, out string) {
		t.Helper()
		args := append([]string{"-p", "1", "-resume", filepath.Join(ckpts, "ck-2.ckpt"), "-resume-ranks", "0", "-params-out", out}, common...)
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("restart: %v\n%s", err, out)
		}
	}

	// In one process over channels.
	chanDir := filepath.Join(dir, "chan")
	if err := os.Mkdir(chanDir, 0o755); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, append(crash, "-ckpt", filepath.Join(chanDir, "ck-%d.ckpt"))...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), crashed) {
		t.Fatalf("channel crash run: err = %v, want exit status 1 naming the crash\n%s", err, out)
	}
	chanOut := filepath.Join(dir, "chan.bin")
	restart(chanDir, chanOut)

	// Two processes over TCP.
	tcpDir := filepath.Join(dir, "tcp")
	if err := os.Mkdir(tcpDir, 0o755); err != nil {
		t.Fatal(err)
	}
	rankArgs := twoProcessArgs(t, append(crash, "-ckpt", filepath.Join(tcpDir, "ck-%d.ckpt")))
	var stderr [2]bytes.Buffer
	var done [2]chan error
	for r := 1; r >= 0; r-- {
		cmd := exec.Command(bin, rankArgs(fmt.Sprint(r))...)
		cmd.Stderr = &stderr[r]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill()
		done[r] = make(chan error, 1)
		go func() { done[r] <- cmd.Wait() }()
	}
	deadline := time.After(10 * time.Second)
	for r, want := range []string{"link 1→0", crashed} {
		select {
		case err := <-done[r]:
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("rank %d: err = %v, want exit status 1\n%s", r, err, stderr[r].String())
			}
		case <-deadline:
			t.Fatalf("rank %d still running 10 s after the crash\n%s", r, stderr[r].String())
		}
		msg := stderr[r].String()
		if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "sasgd-train: ") ||
			!strings.Contains(msg, want) || strings.Contains(msg, "goroutine ") {
			t.Errorf("rank %d's stderr %q, want one sasgd-train: line naming %q and no goroutine dump", r, msg, want)
		}
	}
	tcpOut := filepath.Join(dir, "tcp.bin")
	restart(tcpDir, tcpOut)
	sameParams(t, "restart after the two-process crash", tcpOut, chanOut)
}

// buildTrain compiles the command into dir and returns the binary's path.
func buildTrain(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "sasgd-train")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freePort claims an ephemeral loopback port and releases it for a
// subprocess to re-bind.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}
