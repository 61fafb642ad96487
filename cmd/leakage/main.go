// Command leakage is the experiment driver for the ERASER reproduction,
// mirroring the paper artifact's leakage binary. It regenerates the data
// behind every table and figure in the evaluation:
//
//	leakage -exp fig5                    # LPR under Always-LRCs (Figure 5)
//	leakage -exp fig14 -p 1e-3           # LER vs distance (Figure 14)
//	leakage -exp fig16                   # speculation accuracy + Table 4
//	leakage -exp fig17                   # Appendix A.1 transport model
//	leakage -exp fig20                   # Appendix A.2 DQLR protocol
//	leakage -exp hetero -csv out.csv     # heterogeneity robustness sweep
//	leakage -exp fig14 -profile hotspot:1e-3,3,8   # any figure on a profile
//	leakage -exp all -shots 2000         # everything
//
// Shot counts default to laptop scale; raise -shots toward the paper's 10M+
// for publication-grade statistics.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/analytic"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/noise"
	"repro/internal/qudit"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/surfacecode"
)

// allExperiments is the expansion of -exp all, in presentation order.
var allExperiments = []string{"eqs", "table2", "table2emp", "fig1c", "fig2c",
	"fig5", "fig6", "fig8", "fig14", "fig15", "fig16", "fig17", "fig18",
	"fig20", "fig21", "hetero", "postselect", "latency"}

// experimentNames lists every valid -exp value — the "all" set plus aliases
// and the meta-name itself — and is what unknown names are rejected against,
// up front (before any sweep runs).
var experimentNames = append(append([]string{}, allExperiments...), "table4", "all")

func usageExit(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "leakage: "+format+"\n", args...)
	sorted := append([]string(nil), experimentNames...)
	sort.Strings(sorted)
	fmt.Fprintf(os.Stderr, "valid experiments: %s\n", strings.Join(sorted, " "))
	fmt.Fprintln(os.Stderr, "run with -h for the full flag reference")
	os.Exit(2)
}

func main() {
	// The experiment loop runs inside realMain so deferred reporting (the
	// store units-executed summary) still prints when a sweep fails.
	os.Exit(realMain())
}

func realMain() int {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experimentNames, " "))
		p         = flag.Float64("p", 1e-3, "physical error rate")
		shots     = flag.Int("shots", 1000, "Monte-Carlo shots per data point")
		seed      = flag.Uint64("seed", 2023, "random seed")
		workers   = flag.Int("workers", 0, "shot parallelism (0 = GOMAXPROCS)")
		cycles    = flag.Int("cycles", 10, "QEC cycles per experiment")
		distances = flag.String("d", "3,5,7,9,11", "comma-separated code distances (odd, >= 3)")
		distance  = flag.Int("distance", 0, "single distance for per-round figures (0 = paper default)")
		storeDir  = flag.String("store", "", "content-addressed result store directory: sweeps reuse and extend stored tallies (empty = no store)")
		targetCI  = flag.Float64("target-ci", 0, "adaptive precision: stop each point when the Wilson 95% half-width on LER reaches this (0 = fixed -shots; requires a runner, implies an in-memory store if -store is unset)")
		minShots  = flag.Int("min-shots", 0, "adaptive precision floor per point (0 = service default)")
		maxShots  = flag.Int("max-shots", 0, "adaptive precision budget cap per point (0 = service default)")
		profile   = flag.String("profile", "", "device profile: a generator spec ("+device.GeneratorSpecs+") or a JSON profile file; every data point then runs on per-site calibrated rates")
		hotspots  = flag.Int("hotspot-qubits", 0, "hetero sweep: number of hotspot data qubits (0 = default 3)")
		csvOut    = flag.String("csv", "", "write the hetero sweep as CSV to this file")
		jsonOut   = flag.String("json", "", "write the hetero sweep as JSON to this file")
	)
	flag.Parse()

	ds, err := parseDistances(*distances)
	if err != nil {
		usageExit("%v", err)
	}
	if *distance != 0 {
		if err := surfacecode.CheckDistance(*distance); err != nil {
			usageExit("-distance: %v", err)
		}
	}
	// Reject invalid physical error rates (NaN, negative, > 1) before any
	// sweep runs instead of panicking mid-experiment.
	if err := noise.Standard(*p).Validate(); err != nil {
		usageExit("-p: %v", err)
	}
	// Negative counts would crash the first sweep (cycles) or print a table
	// of zeros (shots); 0 keeps its "paper default" meaning.
	if *cycles < 0 {
		usageExit("-cycles: %d is negative", *cycles)
	}
	// Every point runs cycles × d rounds. Per-round figures run at -distance,
	// or at their paper default of up to 11 when it is 0.
	perRound := *distance
	if perRound == 0 {
		perRound = 11
	}
	maxD := slices.Max(append([]int{perRound}, ds...))
	if *cycles > experiment.MaxRounds/maxD {
		usageExit("-cycles: %d cycles at d=%d exceed %d rounds", *cycles, maxD, experiment.MaxRounds)
	}
	if *shots < 0 {
		usageExit("-shots: %d is negative", *shots)
	}
	var profSpec *device.Spec
	if *profile != "" {
		profSpec, err = device.ParseSpec(*profile)
		if err != nil {
			usageExit("-profile: %v", err)
		}
	}
	opt := experiment.Options{
		Shots:         *shots,
		Seed:          *seed,
		Workers:       *workers,
		P:             *p,
		Distances:     ds,
		Cycles:        *cycles,
		Distance:      *distance,
		Profile:       profSpec,
		HotspotQubits: *hotspots,
	}

	if *storeDir != "" || *targetCI > 0 {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "leakage:", err)
			return 1
		}
		sched := service.New(st, *workers)
		prec := service.Precision{
			TargetCIHalfWidth: *targetCI,
			MinShots:          *minShots,
			MaxShots:          *maxShots,
		}
		opt.Runner = sched.Runner(prec)
		defer func() {
			fmt.Printf("[store: %d simulation units executed this run]\n", sched.UnitsExecuted())
		}()
	}

	exports := exportPaths{csv: *csvOut, json: *jsonOut}

	names := strings.Split(*exp, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
	}
	// Validate every requested name before running any sweep, so a typo at
	// the end of the list cannot waste the whole run.
	valid := make(map[string]bool, len(experimentNames))
	for _, n := range experimentNames {
		valid[n] = true
	}
	expanded := make([]string, 0, len(names))
	for _, name := range names {
		if !valid[name] {
			usageExit("unknown experiment %q", name)
		}
		if name == "all" {
			expanded = append(expanded, allExperiments...)
		} else {
			expanded = append(expanded, name)
		}
	}
	for _, name := range expanded {
		start := time.Now()
		if err := runExperiment(name, opt, exports); err != nil {
			fmt.Fprintln(os.Stderr, "leakage:", err)
			return 1
		}
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// exportPaths carries the -csv/-json destinations for the heterogeneity
// sweep ("" = no export).
type exportPaths struct {
	csv, json string
}

// runExperiment converts runtime panics — service errors surfacing through
// the store-backed Runner, invalid configs inside experiment.Run — into the
// clean one-line error exit path instead of a goroutine dump.
func runExperiment(name string, opt experiment.Options, exports exportPaths) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", name, r)
		}
	}()
	return run(name, opt, exports)
}

func run(name string, opt experiment.Options, exports exportPaths) error {
	switch name {
	case "eqs":
		pl, plt := analytic.PLeakCNOT, analytic.PLeakTransport
		fmt.Printf("Section 3.1 analytic leakage-transport model\n")
		fmt.Printf("Eq (1)  P(L_data|L_parity) = %.4f  (paper: ~0.10)\n",
			analytic.PDataLeaksGivenParityLeaked(pl, plt))
		fmt.Printf("Eq (2)  P(L_parity|L_data) = %.4f  (paper: ~0.34)\n",
			analytic.PParityLeaksGivenDataLeaked(pl, plt))
		fmt.Printf("amplification = %.2fx (paper: ~3x)\n", analytic.TransportAmplification(pl, plt))
	case "table2":
		fmt.Println("Table 2: invisible leakage probability (%)")
		for r, v := range analytic.InvisibilityTable(3) {
			fmt.Printf("  %d rounds invisible: %6.2f\n", r, v)
		}
	case "table2emp":
		v := experiment.MeasureVisibility(5, 40, opt.Shots/2, 2*opt.P, opt.Seed, 3)
		fmt.Print(v)
	case "postselect":
		cfg := experiment.Config{Distance: 5, Cycles: opt.Cycles, P: opt.P, Shots: opt.Shots, Seed: opt.Seed}
		if opt.Profile != nil {
			prof, err := opt.Profile.For(5, noise.TransportConservative)
			if err != nil {
				return fmt.Errorf("postselect: profile %s: %v", opt.Profile, err)
			}
			cfg.Profile = prof
		}
		fmt.Print(experiment.RunPostSelection(cfg, 2, 2))
	case "fig1c":
		fmt.Print(experiment.Figure1c(opt))
	case "fig2c":
		fmt.Print(experiment.Figure2c(opt))
	case "fig5":
		fmt.Print(experiment.Figure5(opt))
	case "fig6":
		lpr, ler := experiment.Figure6(opt)
		fmt.Print(lpr)
		fmt.Print(ler)
	case "fig8":
		printStudy()
	case "fig14":
		s := experiment.Figure14(opt)
		s.Title = "Figure 14: LER vs code distance"
		fmt.Print(s)
		printImprovements(s)
	case "fig15":
		rs := experiment.Figure15(opt)
		rs.Title = "Figure 15: " + rs.Title
		fmt.Print(rs)
	case "fig16", "table4":
		fmt.Print(experiment.Figure16Table4(opt))
	case "fig17":
		opt.Transport = noise.TransportExchange
		s := experiment.Figure14(opt)
		s.Title = "Figure 17: LER vs distance (exchange transport)"
		fmt.Print(s)
		printImprovements(s)
	case "fig18":
		opt.Transport = noise.TransportExchange
		rs := experiment.Figure15(opt)
		rs.Title = "Figure 18: " + rs.Title + " (exchange transport)"
		fmt.Print(rs)
	case "fig20":
		opt.Protocol = circuit.ProtocolDQLR
		opt.Transport = noise.TransportExchange
		s := experiment.Figure14(opt)
		s.Title = "Figure 20: LER vs distance (DQLR protocol)"
		fmt.Print(s)
		printImprovements(s)
	case "fig21":
		opt.Protocol = circuit.ProtocolDQLR
		opt.Transport = noise.TransportExchange
		rs := experiment.Figure15(opt)
		rs.Title = "Figure 21: " + rs.Title + " (DQLR protocol)"
		fmt.Print(rs)
	case "hetero":
		s := experiment.Heterogeneity(opt)
		fmt.Print(s)
		deg := s.Degradation()
		for i, n := range s.Names {
			fmt.Printf("%s degradation at %gx hotspots: %.1fx\n",
				n, s.Factors[len(s.Factors)-1], deg[i])
		}
		if err := exportHetero(s, exports); err != nil {
			return err
		}
	case "latency":
		fmt.Println("Real-time scheduling constraint (Section 4.3 / Figure 12)")
		for _, d := range []int{3, 5, 7, 9, 11} {
			fmt.Printf("  d=%2d  estimated latency %.1f ns, window %d ns, meets deadline: %v\n",
				d, core.EstimateLatencyNS(d), core.DecisionWindowNS, core.MeetsDeadline(d))
		}
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// exportHetero writes the sweep to the -csv/-json destinations when set.
func exportHetero(s *experiment.HeterogeneitySweep, exports exportPaths) error {
	write := func(path string, fn func(*os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		fmt.Printf("[hetero sweep written to %s]\n", path)
		return f.Close()
	}
	if err := write(exports.csv, func(f *os.File) error { return s.WriteCSV(f) }); err != nil {
		return err
	}
	return write(exports.json, func(f *os.File) error { return s.WriteJSON(f) })
}

func printStudy() {
	fmt.Println("Figure 8: density-matrix study of leakage spread on a Z stabilizer")
	fmt.Println("(q0 initialized in |2>; LRC round then plain round)")
	fmt.Printf("%-14s %6s %6s %6s %6s %6s  %9s %8s\n",
		"step", "q0", "q1", "q2", "q3", "P", "P(correct)", "P(|L>)")
	for _, pt := range qudit.Study(qudit.StudyParams{}) {
		fmt.Printf("%-14s %6.3f %6.3f %6.3f %6.3f %6.3f  %9.3f %8.3f\n",
			pt.Step, pt.Leak[0], pt.Leak[1], pt.Leak[2], pt.Leak[3], pt.Leak[4],
			pt.PCorrect, pt.PLeakedOutcome)
	}
}

func printImprovements(s *experiment.DistanceSweep) {
	// Series order from Figure14: ERASER, Always, ERASER+M, Optimal.
	fmt.Print(improvementLine("ERASER", s.Names[1], s.Improvement(1, 0)))   // Always / ERASER
	fmt.Print(improvementLine("ERASER+M", s.Names[1], s.Improvement(1, 2))) // Always / ERASER+M
}

// improvementLine summarizes one policy's improvement over a baseline. A
// distance where either series had no logical errors contributes a bound,
// and the summary is printed as one ("≥ 2.1x").
func improvementLine(name, over string, rs []experiment.Ratio) string {
	mean, max := experiment.MeanMax(rs)
	if mean.Bound == experiment.Unresolved {
		return fmt.Sprintf("%s improvement over %s: unresolved\n", name, over)
	}
	return fmt.Sprintf("%s improvement over %s: mean %s  max %s\n", name, over, mean, max)
}

func parseDistances(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("-d: empty distance entry in %q", s)
		}
		d, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("-d: bad distance %q: %v", part, err)
		}
		if err := surfacecode.CheckDistance(d); err != nil {
			return nil, fmt.Errorf("-d: %v", err)
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-d: no distances given")
	}
	return out, nil
}
