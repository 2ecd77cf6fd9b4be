package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestAllExperimentsQuick smoke-runs every experiment in quick mode and
// checks that each produces a non-trivial report.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take seconds to minutes")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, Options{Quick: true, Workers: 2}); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if len(out) < 100 {
				t.Fatalf("%s produced a suspiciously short report:\n%s", e.ID, out)
			}
			if !strings.Contains(out, "Shape check") && e.ID != "fig8" {
				t.Errorf("%s report lacks a shape check note", e.ID)
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every evaluation artifact from DESIGN.md's experiment index must be
	// registered.
	want := []string{
		"sec2-hw-cost", "sec3-io-model", "fig2", "sec44-cpb", "fig3",
		"fig5", "fig6", "fig7", "fig8", "sec65-hybrid", "fig9",
		"sec66-hashing", "fig10", "fig11", "fig12", "sec52-tablecomp",
		"ablation-umami", "parity",
	}
	for _, id := range want {
		if ByID(id) == nil {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, index lists %d", len(All()), len(want))
	}
}

func TestGeoMean(t *testing.T) {
	if g := geoMean([]float64{1, 100}); g < 9.99 || g > 10.01 {
		t.Fatalf("geoMean = %v", g)
	}
	if geoMean(nil) != 0 {
		t.Fatal("empty geoMean")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := newTable("a", "bb")
	tab.row("x", 1234.5)
	var buf bytes.Buffer
	tab.write(&buf)
	if !strings.Contains(buf.String(), "1.23k") {
		t.Fatalf("table output: %s", buf.String())
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[int64]string{
		512:      "512B",
		2048:     "2.0KB",
		5 << 20:  "5.0MB",
		3 << 30:  "3.00GB",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Errorf("fmtBytes(%d) = %s, want %s", in, got, want)
		}
	}
}
