package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// buildLeakage compiles the command once per test binary into a temp dir.
func buildLeakage(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "leakage")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestInvalidFlagsExitTwoWithUsage: invalid rates, profiles, experiment
// names, negative cycle or shot counts, and distances or cycle counts above
// the caps (surfacecode.MaxDistance, experiment.MaxRounds) are rejected up
// front with exit code 2 and a usage hint, before any sweep runs.
func TestInvalidFlagsExitTwoWithUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds the binary")
	}
	bin := buildLeakage(t)
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"NaN rate":       {[]string{"-p", "NaN", "-exp", "fig5"}, "-p:"},
		"negative rate":  {[]string{"-p", "-0.5", "-exp", "fig5"}, "-p:"},
		"rate above 1":   {[]string{"-p", "1.5", "-exp", "fig5"}, "-p:"},
		"bad experiment": {[]string{"-exp", "fig99"}, "valid experiments"},
		"bad distance":   {[]string{"-d", "4", "-exp", "fig5"}, "-d:"},
		"bad profile":    {[]string{"-profile", "hotspot:oops", "-exp", "fig5"}, "-profile:"},
		"neg cycles":     {[]string{"-exp", "fig14", "-cycles", "-1", "-shots", "64", "-d", "3"}, "-cycles:"},
		"neg shots":      {[]string{"-exp", "fig14", "-shots", "-5", "-d", "3"}, "-shots:"},
		"d above cap":    {[]string{"-exp", "fig14", "-d", "3,27"}, "-d:"},
		"distance cap":   {[]string{"-exp", "fig5", "-distance", "1001"}, "-distance:"},
		"cycles cap":     {[]string{"-exp", "fig14", "-d", "3", "-distance", "3", "-cycles", "334"}, "-cycles:"},
		"cycles x 11":    {[]string{"-exp", "fig5", "-d", "3", "-cycles", "91"}, "-cycles:"},
	} {
		cmd := exec.Command(bin, tc.args...)
		out, err := cmd.CombinedOutput()
		exit, ok := err.(*exec.ExitError)
		if !ok {
			t.Errorf("%s: expected a non-zero exit, got err=%v\n%s", name, err, out)
			continue
		}
		if code := exit.ExitCode(); code != 2 {
			t.Errorf("%s: exit code %d, want 2\n%s", name, code, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: output missing %q:\n%s", name, tc.want, out)
		}
		if !strings.Contains(string(out), "-h for the full flag reference") {
			t.Errorf("%s: output missing the usage hint:\n%s", name, out)
		}
	}
}

// TestHeteroSweepRunsAndExports: the heterogeneity sweep runs end to end at
// tiny scale and writes its CSV/JSON exports.
func TestHeteroSweepRunsAndExports(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds the binary")
	}
	bin := buildLeakage(t)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "hetero.csv")
	jsonPath := filepath.Join(dir, "hetero.json")
	cmd := exec.Command(bin, "-exp", "hetero", "-shots", "64", "-cycles", "1",
		"-distance", "3", "-csv", csvPath, "-json", jsonPath)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("hetero run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Heterogeneity sweep") {
		t.Errorf("missing sweep table:\n%s", out)
	}
	for _, p := range []string{csvPath, jsonPath} {
		data, err := os.ReadFile(p)
		if err != nil || len(data) == 0 {
			t.Errorf("export %s missing or empty: %v", p, err)
		}
	}
}

// TestPostselectRunsOnProfile: -profile reaches the post-selection study.
// A uniform profile at -p prints what no profile prints, and a hotspot
// profile prints something else.
func TestPostselectRunsOnProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds the binary")
	}
	bin := buildLeakage(t)
	run := func(extra ...string) string {
		t.Helper()
		args := append([]string{"-exp", "postselect", "-shots", "300", "-cycles", "3"}, extra...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		// Drop the wall-clock "[postselect done in ...]" line.
		report, _, _ := strings.Cut(string(out), "[postselect done")
		return report
	}
	plain := run()
	if got := run("-profile", "uniform:1e-3"); got != plain {
		t.Errorf("uniform profile:\n%s\nno profile:\n%s", got, plain)
	}
	if got := run("-profile", "hotspot:1e-3,3,10"); got == plain {
		t.Errorf("hotspot profile printed the profile-free report:\n%s", got)
	}
}

// TestImprovementLinePrintsBounds: the Figure 14/17/20 improvement summary
// prints a distance where the improved policy had no logical errors as a
// bound ("≥"), never as 0.0x, and a sweep with no errors at all as
// unresolved.
func TestImprovementLinePrintsBounds(t *testing.T) {
	s := &experiment.DistanceSweep{
		Distances: []int{3, 5},
		Names:     []string{"ERASER", "Always-LRCs"},
		LER:       [][]float64{{0, 0.01}, {0.0469, 0.03}},
		LERLow:    [][]float64{{0, 0.002}, {0.02, 0.01}},
		LERHigh:   [][]float64{{0.029, 0.04}, {0.1, 0.07}},
	}
	got := improvementLine("ERASER", s.Names[1], s.Improvement(1, 0))
	// d=3: ≥ 0.0469/0.029 = 1.62; d=5: 3.0. Mean ≥ 2.31, max ≥ 3.0.
	want := "ERASER improvement over Always-LRCs: mean ≥ 2.3x  max ≥ 3.0x\n"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	if strings.Contains(got, "0.0x") {
		t.Errorf("zero-error point printed as 0.0x: %q", got)
	}

	s.LER = [][]float64{{0, 0}, {0, 0}}
	if got := improvementLine("ERASER", s.Names[1], s.Improvement(1, 0)); got != "ERASER improvement over Always-LRCs: unresolved\n" {
		t.Errorf("no errors anywhere: got %q", got)
	}
}
