package experiments

import (
	"math/rand"

	"sasgd/internal/model"
	"sasgd/internal/report"
	"sasgd/internal/theory"
)

// TableIResult captures the Table I reproduction: the CIFAR-10 network
// architecture and its parameter count ("about 0.5 million" per the
// paper).
type TableIResult struct {
	Summary string
	Params  int
}

// TableI builds the exact Table-I convolutional network and reports its
// architecture and size.
func TableI(opt Opt) TableIResult {
	net := model.NewCIFARNet(rand.New(rand.NewSource(1)), model.PaperCIFARConfig())
	r := TableIResult{Summary: net.Summary(), Params: net.NumParams()}
	fprintf(opt.out(), "Table I: Convolutional Neural Network for CIFAR-10\n%s\n", r.Summary)
	return r
}

// TableIIResult captures the Table II reproduction: the NLC-F network
// and its parameter count ("about 2 million" per the paper).
type TableIIResult struct {
	Summary string
	Params  int
}

// TableII builds the exact Table-II network and reports its architecture
// and size.
func TableII(opt Opt) TableIIResult {
	net := model.NewNLCFNet(rand.New(rand.NewSource(1)), model.PaperNLCFConfig())
	r := TableIIResult{Summary: net.Summary(), Params: net.NumParams()}
	fprintf(opt.out(), "Table II: Neural Network for NLC-F\n%s\n", r.Summary)
	return r
}

// Theorem1Row is one line of the Theorem 1 reproduction: the optimal
// normalized learning rates and the resulting guarantee gap between 1
// and p learners.
type Theorem1Row struct {
	P       int
	Alpha   float64
	C1, CP  float64
	Gap     float64 // measured guarantee ratio
	PredGap float64 // Theorem 1's p/α prediction
}

// Theorem1 evaluates the Theorem 1 analysis across learner counts at the
// paper's example α values, printing the optimal-c solutions of the
// Equation 7 cubic and the guarantee gap ≈ p/α.
func Theorem1(opt Opt) []Theorem1Row {
	var rows []Theorem1Row
	tab := report.Table{
		Title:  "Theorem 1: ASGD guarantee gap between 1 and p learners (16 ≤ α ≤ p)",
		Header: []string{"p", "alpha", "c*(1)", "c*(p)", "gap", "p/alpha"},
	}
	for _, cfg := range []struct {
		p     int
		alpha float64
	}{
		{16, 16}, {32, 16}, {32, 32}, {64, 16}, {64, 32}, {64, 64}, {128, 16},
	} {
		row := Theorem1Row{
			P:       cfg.p,
			Alpha:   cfg.alpha,
			C1:      theory.OptimalC(1, cfg.alpha),
			CP:      theory.OptimalC(cfg.p, cfg.alpha),
			Gap:     theory.GapFactor(cfg.p, cfg.alpha),
			PredGap: float64(cfg.p) / cfg.alpha,
		}
		rows = append(rows, row)
		tab.AddRow(
			itoa(row.P), ftoa(row.Alpha), ftoa3(row.C1), ftoa3(row.CP),
			ftoa3(row.Gap), ftoa3(row.PredGap),
		)
	}
	fprintf(opt.out(), "%s\n", tab.String())
	return rows
}
