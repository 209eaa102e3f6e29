package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) != 0")
	}
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean([]float64{5}); got != 5 {
		t.Errorf("GeoMean(5) = %v", got)
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Error("GeoMean with negatives should be NaN")
	}
	if !math.IsNaN(GeoMean([]float64{0, 2})) {
		t.Error("GeoMean with zero should be NaN")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "hps"
	s.Add(0, 2)
	s.Add(1, 4)
	s.Add(2, 3)
	if len(s.X) != 3 || len(s.Y) != 3 || s.X[2] != 2 || s.Y[1] != 4 {
		t.Errorf("series after three Adds = %v, %v", s.X, s.Y)
	}
}

func TestTable(t *testing.T) {
	tb := Table{Title: "Fig X", Header: []string{"bench", "value"}}
	tb.AddRow("BL", "1.25")
	tb.AddRow("bodytrack", "0.5")
	out := tb.String()
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "bodytrack") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	// Columns align: every data line has the separator width.
	if len(lines[2]) < len("bodytrack") {
		t.Error("separator too narrow")
	}
}

func TestF(t *testing.T) {
	if F(1.23456, 2) != "1.23" {
		t.Errorf("F = %s", F(1.23456, 2))
	}
	if F(math.NaN(), 2) != "n/a" {
		t.Errorf("F(NaN) = %s", F(math.NaN(), 2))
	}
}

func TestChart(t *testing.T) {
	s1 := &Series{Name: "up"}
	s2 := &Series{Name: "down"}
	for i := 0; i < 20; i++ {
		s1.Add(float64(i), float64(i))
		s2.Add(float64(i), float64(20-i))
	}
	out := Chart("behaviour", []*Series{s1, s2}, 40, 10)
	if !strings.Contains(out, "behaviour") || !strings.Contains(out, "*=up") || !strings.Contains(out, "o=down") {
		t.Fatalf("chart missing pieces:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatal("chart has no plotted points")
	}
	if out := Chart("empty", nil, 40, 10); !strings.Contains(out, "no data") {
		t.Error("empty chart should say no data")
	}
	// Degenerate sizes are clamped, flat series get an expanded axis.
	flat := &Series{Name: "flat"}
	flat.Add(1, 5)
	flat.Add(1, 5)
	if out := Chart("flat", []*Series{flat}, 1, 1); out == "" {
		t.Error("flat chart empty")
	}
}
