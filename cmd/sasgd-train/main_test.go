package main

import (
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
	run := func(extra ...string) []byte {
		cmd := exec.Command(bin, append(append([]string{}, common...), extra...)...)
		cmd.Env = os.Environ()
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", cmd.Args, err, out)
		}
		return out
	}

	chanOut := filepath.Join(dir, "chan.bin")
	run("-params-out", chanOut)

	peers := fmt.Sprintf("127.0.0.1:%d,127.0.0.1:%d", freePort(t), freePort(t))
	tcpOut := filepath.Join(dir, "tcp.bin")
	cmd1 := exec.Command(bin, append(append([]string{}, common...),
		"-transport", "tcp", "-rank", "1", "-peers", peers)...)
	cmd1.Env = os.Environ()
	var out1 bytes.Buffer
	cmd1.Stdout, cmd1.Stderr = &out1, &out1
	if err := cmd1.Start(); err != nil {
		t.Fatal(err)
	}
	done1 := make(chan error, 1)
	go func() { done1 <- cmd1.Wait() }()

	run("-transport", "tcp", "-rank", "0", "-peers", peers, "-params-out", tcpOut)
	select {
	case err := <-done1:
		if err != nil {
			t.Fatalf("rank-1 process: %v\n%s", err, out1.String())
		}
	case <-time.After(2 * time.Minute):
		cmd1.Process.Kill()
		t.Fatalf("rank-1 process did not exit\n%s", out1.String())
	}

	want, err := os.ReadFile(chanOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(tcpOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("two-process TCP final parameters differ from the channel-fabric run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestUnknownCollectiveExitsTwo: a collective the run cannot honour is
// refused with the validation table's reason before anything is opened;
// neither a name from another library nor a typo may train silently on
// the tree.
func TestUnknownCollectiveExitsTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary; skipped in -short")
	}
	bin := buildTrain(t, t.TempDir())
	for _, name := range []string{"ring", "rhd", "rnig"} {
		out, err := exec.Command(bin, "-p", "2", "-epochs", "1", "-allreduce", name).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-allreduce %s: err = %v, want exit status 2\n%s", name, err, out)
		}
		if want := "sasgd-train: core: invalid config: unknown collective (want tree or ptree)"; !strings.Contains(string(out), want) {
			t.Errorf("-allreduce %s printed %q, want it to contain %q", name, out, want)
		}
	}
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
