package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestSimulatedDigits pins the simulated seconds the timing drivers
// print, digit for digit, at a fixed small budget (-epochs 1; Figs 1/4/5/6
// run their own two-epoch budget regardless). Every
// pinned row printed the same digits on five consecutive runs. A change
// that claims to move where simulated time is kept, not what it is,
// leaves this table untouched.
//
// A pin is one printed row, whitespace-collapsed; "*" matches any one
// field. Excluded, because it does not repeat from run to run: sched
// "delayed"'s hidden(trace)%, a wall-clock reading (the rest of the row
// is pinned).
//
// The faults table is pinned twice: at -epochs 1 and at its default
// two-epoch budget, the one at which the crash fires (boundary 2 comes
// after the first epoch) and its row is the 7 survivors' restart from
// the boundary-2 checkpoint, in simulated seconds per epoch it trained.
//
// -short runs the compress and sched items only: the in-flight runner,
// both codecs, the hierarchy and delayed application.
func TestSimulatedDigits(t *testing.T) {
	items := []struct {
		name  string
		short bool
		run   func(Opt)
		pins  []string
	}{
		{"fig1", false, func(o Opt) { Fig1(o) }, []string{
			"NLC-F 1 12.595 87.405 80.389",
			"NLC-F 2 10.725 89.275 47.233",
			"NLC-F 4 8.258 91.742 30.651",
			"NLC-F 8 5.655 94.345 22.398",
			"CIFAR-10 1 80.678 19.322 5.496",
			"CIFAR-10 2 77.699 22.301 2.871",
			"CIFAR-10 4 72.364 27.636 1.555",
			"CIFAR-10 8 63.339 36.661 0.890",
		}},
		{"fig4", false, func(o Opt) { Fig4(o) }, []string{
			"Figure 4: impact of T on SASGD epoch time, CIFAR-10 (sequential line at 4.434s)",
			"1 1 4.434 1.000",
			"1 2 2.465 1.799",
			"1 4 1.364 3.251",
			"1 8 0.738 6.009",
			"50 1 4.434 1.000",
			"50 2 2.240 1.979",
			"50 4 1.141 3.887",
			"50 8 0.569 7.798",
		}},
		{"fig5", false, func(o Opt) { Fig5(o) }, []string{
			"Figure 5: impact of T on SASGD epoch time, NLC-F (sequential line at 10.125s)",
			"1 1 10.125 1.000",
			"1 2 19.670 0.515",
			"1 4 17.214 0.588",
			"1 8 12.353 0.820",
			"50 1 10.125 1.000",
			"50 2 5.366 1.887",
			"50 4 2.836 3.570",
			"50 8 1.488 6.804",
		}},
		{"fig6", false, func(o Opt) { Fig6(o) }, []string{
			"CIFAR-10 1 downpour 0.890",
			"CIFAR-10 1 eamsgd 0.890",
			"CIFAR-10 1 sasgd 0.738",
			"CIFAR-10 50 downpour 0.572",
			"CIFAR-10 50 eamsgd 0.572",
			"CIFAR-10 50 sasgd 0.569",
			"NLC-F 1 downpour 22.398",
			"NLC-F 1 eamsgd 22.398",
			"NLC-F 1 sasgd 12.353",
			"NLC-F 50 downpour 1.692",
			"NLC-F 50 eamsgd 1.692",
			"NLC-F 50 sasgd 1.488",
		}},
		{"faults", false, func(o Opt) { DegradedRuns(o) }, []string{
			"fault-free 0.593 21.19% 8 0",
		}},
		{"faults default budget", false, func(o Opt) { o.Epochs = 0; DegradedRuns(o) }, []string{
			"fault-free 0.589 31.54% 8 0",
			"straggler 4x 2.249 31.54% 8 0",
			"crash @2 0.586 31.54% 7 1",
		}},
		{"compress", true, func(o Opt) { CompressionFrontier(o) }, []string{
			"dense - 0.740 20.61% 173250 1.0×",
			"topk 0.010 0.621 13.87% 10584 16.4×",
			"topk 0.050 0.628 14.84% 27844 6.2×",
			"topk 0.100 0.637 17.58% 48436 3.6×",
			"topk 0.050→0.119 0.651 17.87% 50236 3.4×",
			"qint8 - 0.685 20.61% 42082 4.1×",
		}},
		{"sched", true, func(o Opt) { CommScheduleFrontier(o) }, []string{
			"flat-eager static 4 0.703 21.09% 47250 1265.6 1.0×",
			"flat-eager adaptive 4 0.708 21.09% 47362 1268.6 1.0×",
			"flat-delayed static 4 0.608 16.99% 47250 1265.6 1.0×",
			"hier-eager static 4 0.620 21.78% 36750 421.9 3.0×",
			"hier-delayed static 4 0.620 21.78% 36750 421.9 3.0×",
			"hier-delayed adaptive 8 0.600 21.09% 23334 142.9 8.9×",
			"serial 0.738 0.360 - -",
			"delayed 0.577 0.038 89.538 *",
		}},
	}
	for _, it := range items {
		it := it
		t.Run(it.name, func(t *testing.T) {
			if testing.Short() && !it.short {
				t.Skip("full simulated-digit table: skipped in -short")
			}
			var buf bytes.Buffer
			it.run(Opt{Out: &buf, Epochs: 1})
			var rows [][]string
			for _, line := range strings.Split(buf.String(), "\n") {
				rows = append(rows, strings.Fields(line))
			}
			for _, pin := range it.pins {
				if !printedRow(rows, strings.Fields(pin)) {
					t.Errorf("%s: no printed row matches %q\n%s", it.name, pin, buf.String())
				}
			}
		})
	}
}

// printedRow reports whether some row has exactly the pin's fields, with
// "*" matching any one field.
func printedRow(rows [][]string, pin []string) bool {
	for _, row := range rows {
		if len(row) != len(pin) {
			continue
		}
		match := true
		for i, f := range pin {
			if f != "*" && f != row[i] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
