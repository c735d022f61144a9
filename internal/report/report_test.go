package report

import (
	"strings"
	"testing"
)

func curve(vals ...float64) Curve {
	var c Curve
	for i, v := range vals {
		c = append(c, Point{Epoch: i + 1, Train: v, Test: v})
	}
	return c
}

func TestCurveFinal(t *testing.T) {
	c := curve(0.1, 0.5, 0.8)
	if c.Final().Test != 0.8 {
		t.Errorf("Final = %v", c.Final())
	}
	var empty Curve
	if empty.Final().Test != 0 {
		t.Error("empty Final not zero")
	}
}

func TestCurveBestAndAUC(t *testing.T) {
	c := curve(0.2, 0.9, 0.4)
	if auc := c.AUC(); auc < 0.49 || auc > 0.51 {
		t.Errorf("AUC = %g, want 0.5", auc)
	}
	var empty Curve
	if empty.AUC() != 0 {
		t.Error("empty curve AUC not zero")
	}
}

func TestTableAlignment(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"a", "long-header"}}
	tab.AddRow("xxxxxx", "1")
	s := tab.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("table lines = %d:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[1], "long-header") || !strings.Contains(lines[2], "xxxxxx") {
		t.Errorf("table content wrong:\n%s", s)
	}
}

func TestFormatFigure(t *testing.T) {
	s := FormatFigure("fig", []Series{
		{Label: "p=1", Curve: curve(0.5)},
		{Label: "p=2", Curve: Curve{{Epoch: 2, Test: 0.25}}},
	})
	if !strings.Contains(s, "p=1") || !strings.Contains(s, "p=2") {
		t.Fatalf("missing labels:\n%s", s)
	}
	if !strings.Contains(s, "50.00%") || !strings.Contains(s, "25.00%") {
		t.Errorf("missing values:\n%s", s)
	}
	// Epoch 2 has no p=1 point: rendered as "-".
	if !strings.Contains(s, "-") {
		t.Errorf("missing placeholder for absent point:\n%s", s)
	}
}

func TestFormatTrainFigureUsesTrain(t *testing.T) {
	c := Curve{{Epoch: 1, Train: 0.75, Test: 0.10}}
	s := FormatTrainFigure("fig", []Series{{Label: "x", Curve: c}})
	if !strings.Contains(s, "75.00%") || strings.Contains(s, "10.00%") {
		t.Errorf("train figure used wrong field:\n%s", s)
	}
}

func TestPctAndSecs(t *testing.T) {
	if Pct(0.1234) != "12.34%" {
		t.Errorf("Pct = %q", Pct(0.1234))
	}
	if Secs(1.5) != "1.500s" {
		t.Errorf("Secs = %q", Secs(1.5))
	}
}

func TestSamplesToTarget(t *testing.T) {
	c := curve(0.2, 0.5, 0.9)
	got, ok := SamplesToTarget(c, 0.5, 100)
	if !ok || got != 200 {
		t.Errorf("SamplesToTarget = %d, %v; want 200, true", got, ok)
	}
	if _, ok := SamplesToTarget(c, 0.95, 100); ok {
		t.Error("unreached target reported as reached")
	}
	if _, ok := SamplesToTarget(nil, 0.1, 100); ok {
		t.Error("empty curve reported as reached")
	}
}
