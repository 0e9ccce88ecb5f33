// Command olasolve minimizes one problem instance with any g class under
// either search strategy.
//
// Usage:
//
//	olasolve -in instance.nl [-problem netlist|maxcut]
//	         [-g "g = 1"] [-strategy fig1|fig2]
//	         [-engine fig1|tempering] [-chains 4] [-exchange-every 256]
//	         [-batch B] [-workers N]
//	         [-budget 2400] [-seed 1] [-start random|goto] [-move pairwise|single]
//	         [-metrics] [-events run.jsonl]
//
// -problem netlist (the default) reads a GOLA/NOLA instance in the text
// netlist format (see olagen) and minimizes its density; the final
// arrangement and run statistics are printed. -problem maxcut reads a
// weighted graph in the max-cut edge-list format and maximizes the cut
// weight from a random side assignment; -start and -move do not apply (the
// single move class is a vertex flip). -metrics adds the run diagnostics
// (per-level acceptance rates, Δ histogram, moves-to-best); -events streams
// every engine decision as JSONL.
//
// -engine=tempering replaces the Figure-1 walk with the replica-exchange
// engine: -chains coupled chains at staggered temperature levels swapping
// states every -exchange-every moves, stepped by -workers goroutines (0 =
// all cores; the result is byte-identical for every worker count). -batch
// evaluates proposals in blocks of B on move classes that support it.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"mcopt/internal/atomicio"
	"mcopt/internal/buildinfo"
	"mcopt/internal/core"
	"mcopt/internal/experiment"
	"mcopt/internal/gfunc"
	"mcopt/internal/gotoh"
	"mcopt/internal/linarr"
	"mcopt/internal/maxcut"
	"mcopt/internal/metrics"
	"mcopt/internal/netlist"
	"mcopt/internal/rng"
)

func main() {
	in := flag.String("in", "", "instance file; required")
	problemKind := flag.String("problem", "netlist", "instance format: netlist (GOLA/NOLA) or maxcut (edge list)")
	gName := flag.String("g", "g = 1", `g class name (as in the paper's tables, e.g. "Six Temperature Annealing") or "[COHO83a]"`)
	strategy := flag.String("strategy", "fig1", "search strategy: fig1 or fig2")
	engine := flag.String("engine", "fig1", "fig1 engine: fig1 (serial walk) or tempering (replica exchange)")
	chains := flag.Int("chains", 4, "tempering chain count")
	exchangeEvery := flag.Int64("exchange-every", 256, "tempering moves per chain between exchange attempts")
	batch := flag.Int("batch", 0, "draw proposals in blocks of this size (0/1 = serial)")
	workers := flag.Int("workers", 0, "tempering worker goroutines (0 = all cores); result identical for any value")
	budget := flag.Int64("budget", 2400, "move budget (2400 = the paper's 12 VAX seconds)")
	seed := flag.Uint64("seed", 1, "random stream seed")
	startKind := flag.String("start", "random", "starting arrangement: random or goto (netlist only)")
	moveKind := flag.String("move", "pairwise", "perturbation class: pairwise or single (netlist only)")
	showMetrics := flag.Bool("metrics", false, "print run diagnostics (per-level acceptance, Δ histogram, moves-to-best)")
	eventsPath := flag.String("events", "", "write every engine decision as JSONL to this file")
	version := buildinfo.Flag()
	flag.Parse()
	buildinfo.HandleFlag("olasolve", version)

	if *in == "" {
		fmt.Fprintln(os.Stderr, "olasolve: -in is required")
		os.Exit(2)
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	// The problem branch fills in the search state, the g class (with its
	// resolved schedule, for the tempering ladder), and a result printer;
	// everything after that — engines, hooks, events — is problem-agnostic.
	var (
		sol         core.Descender // both domains certify local optimality, so fig2 is always available
		g           core.G
		ys          []float64
		printResult func(method string, res core.Result)
	)
	switch *problemKind {
	case "netlist":
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "olasolve: %v\n", err)
			os.Exit(1)
		}
		nl, err := netlist.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "olasolve: %v\n", err)
			os.Exit(1)
		}

		var arr *linarr.Arrangement
		switch *startKind {
		case "random":
			arr = linarr.Random(nl, rng.Stream("olasolve/start", *seed))
		case "goto":
			arr = linarr.MustNew(nl, gotoh.Order(nl))
		default:
			fmt.Fprintf(os.Stderr, "olasolve: unknown start %q\n", *startKind)
			os.Exit(2)
		}

		var kind linarr.MoveKind
		switch *moveKind {
		case "pairwise":
			kind = linarr.PairwiseInterchange
		case "single":
			kind = linarr.SingleExchange
		default:
			fmt.Fprintf(os.Stderr, "olasolve: unknown move class %q\n", *moveKind)
			os.Exit(2)
		}

		g, ys, err = buildNetlistG(*gName, nl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "olasolve: %v\n", err)
			os.Exit(2)
		}
		sol = linarr.NewSolution(arr, kind)
		printResult = func(method string, res core.Result) {
			best := res.Best.(*linarr.Solution)
			fmt.Printf("instance:    %s (%d cells, %d nets)\n", *in, nl.NumCells(), nl.NumNets())
			fmt.Printf("method:      %s under %s, %s moves\n", g.Name(), method, kind)
			fmt.Printf("density:     %d -> %d (reduction %d)\n",
				int(res.InitialCost), int(res.BestCost), int(res.Reduction()))
			printRunStats(res)
			fmt.Printf("arrangement:")
			for _, c := range best.Arrangement().Order() {
				fmt.Printf(" %d", c)
			}
			fmt.Println()
		}
	case "maxcut":
		if explicit["start"] || explicit["move"] {
			fmt.Fprintln(os.Stderr, "olasolve: -start and -move apply to -problem netlist only (max-cut has one move class, the vertex flip)")
			os.Exit(2)
		}
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "olasolve: %v\n", err)
			os.Exit(1)
		}
		inst, err := maxcut.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "olasolve: %v\n", err)
			os.Exit(1)
		}
		g, ys, err = buildMaxcutG(*gName, inst)
		if err != nil {
			fmt.Fprintf(os.Stderr, "olasolve: %v\n", err)
			os.Exit(2)
		}
		sol = maxcut.NewSolution(maxcut.RandomCut(inst, rng.Stream("olasolve/start", *seed)))
		startCut := sol.(*maxcut.Solution).CutWeight()
		printResult = func(method string, res core.Result) {
			best := res.Best.(*maxcut.Solution)
			fmt.Printf("instance:    %s (%d vertices, %d edges)\n", *in, inst.N(), inst.M())
			fmt.Printf("method:      %s under %s, vertex-flip moves\n", g.Name(), method)
			fmt.Printf("cut weight:  %d -> %d (gain %d)\n",
				startCut, best.CutWeight(), best.CutWeight()-startCut)
			printRunStats(res)
			fmt.Printf("sides:")
			for _, s := range best.Cut().Sides() {
				fmt.Printf(" %d", s)
			}
			fmt.Println()
		}
	default:
		fmt.Fprintf(os.Stderr, "olasolve: unknown problem %q\n", *problemKind)
		os.Exit(2)
	}

	switch *engine {
	case "fig1", "tempering":
	default:
		fmt.Fprintf(os.Stderr, "olasolve: unknown engine %q\n", *engine)
		os.Exit(2)
	}
	if *engine == "tempering" && *strategy != "fig1" {
		fmt.Fprintln(os.Stderr, "olasolve: -engine=tempering requires -strategy=fig1")
		os.Exit(2)
	}

	var rm metrics.RunMetrics
	rm.BudgetLimit = *budget
	var hooks []core.Hook
	if *showMetrics {
		hooks = append(hooks, rm.Hook())
	}
	var ew *metrics.EventWriter
	var eventsFile *atomicio.File
	if *eventsPath != "" {
		var err error
		eventsFile, err = atomicio.Create(*eventsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "olasolve: %v\n", err)
			os.Exit(1)
		}
		ew = metrics.NewEventWriter(eventsFile, fmt.Sprintf("%s/%s@%d", *in, *gName, *seed))
		hooks = append(hooks, ew.Hook())
	}
	hook := metrics.Tee(hooks...)

	b := core.NewBudget(*budget)
	r := rng.Stream("olasolve/run", *seed)
	var res core.Result
	switch *strategy {
	case "fig1":
		if *engine == "tempering" {
			res = core.Tempering{
				G: g, Chains: *chains, ExchangeEvery: *exchangeEvery,
				Temps: core.TemperingLadder(ys, *chains),
				Batch: *batch, Workers: *workers, Hook: hook,
			}.Run(sol, b, r)
		} else {
			res = core.Figure1{G: g, Batch: *batch, Hook: hook}.Run(sol, b, r)
		}
	case "fig2":
		res = core.Figure2{G: g, Hook: hook}.Run(sol, b, r)
	default:
		fmt.Fprintf(os.Stderr, "olasolve: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	if eventsFile != nil {
		if err := ew.Err(); err != nil {
			eventsFile.Discard()
			fmt.Fprintf(os.Stderr, "olasolve: events: %v\n", err)
			os.Exit(1)
		}
		if err := eventsFile.Commit(); err != nil {
			fmt.Fprintf(os.Stderr, "olasolve: events: %v\n", err)
			os.Exit(1)
		}
	}

	method := *strategy
	if *engine == "tempering" {
		method = fmt.Sprintf("tempering/%d", *chains)
	}
	printResult(method, res)
	if *showMetrics {
		fmt.Println()
		if err := rm.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "olasolve: %v\n", err)
			os.Exit(1)
		}
	}
}

// printRunStats prints the problem-independent tail of the report: move
// counts and, for tempering runs, the per-chain breakdown.
func printRunStats(res core.Result) {
	fmt.Printf("moves:       %d attempted, %d accepted, %d uphill\n", res.Moves, res.Accepted, res.Uphill)
	if len(res.Chains) > 0 {
		fmt.Printf("exchanges:   %d attempted, %d accepted\n", res.Exchanges, res.ExchangesAccepted)
		for c, cs := range res.Chains {
			fmt.Printf("chain %-2d     level %d (y=%.4g): %d moves, %d accepted, %d/%d swaps, final %d\n",
				c, cs.Level, cs.Temp, cs.Moves, cs.Accepted, cs.Swaps, cs.SwapAttempts, int(cs.FinalCost))
		}
	}
}

// buildNetlistG resolves a paper row label into a g instance, deriving the
// schedule from the instance's own cost regime so that olasolve works out
// of the box on instances of any size. The resolved schedule is returned
// alongside (nil for schedule-free classes) so the tempering engine can pin
// its exchange ladder to the same temperatures.
func buildNetlistG(name string, nl *netlist.Netlist) (core.G, []float64, error) {
	if name == "[COHO83a]" {
		return gfunc.CohoonSahni(nl.NumNets()), nil, nil
	}
	b, ok := gfunc.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown g class %q (use the paper's table labels)", name)
	}
	var ys []float64
	if b.NeedsY {
		// Anchor the default schedule on this instance's random-arrangement
		// density, the same role the suite statistics play in the tables.
		sample := linarr.Random(nl, rng.Stream("olasolve/scale", 0xA11CE))
		scale := gfunc.Scale{TypicalCost: float64(sample.Density()), TypicalDelta: 2}
		if scale.TypicalCost < 1 {
			scale.TypicalCost = 1
		}
		ys = b.DefaultYs(scale)
		if mult, ok := experiment.TunedGOLA[b.ID]; ok && nl.IsGraph() {
			for i := range ys {
				ys[i] *= mult
			}
		}
	}
	return b.Build(ys), ys, nil
}

// buildMaxcutG is the max-cut analogue of buildNetlistG, anchoring default
// schedules on a random cut of this instance (the cost of which is the
// positive weight minus the sampled cut weight).
func buildMaxcutG(name string, g *maxcut.Instance) (core.G, []float64, error) {
	if name == "[COHO83a]" {
		return nil, nil, fmt.Errorf("[COHO83a] is defined on netlists; pick one of the paper's table labels")
	}
	b, ok := gfunc.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown g class %q (use the paper's table labels)", name)
	}
	var ys []float64
	if b.NeedsY {
		sample := maxcut.RandomCut(g, rng.Stream("olasolve/scale", 0xA11CE))
		scale := gfunc.Scale{
			TypicalCost:  math.Max(float64(g.PositiveWeight()-sample.Weight()), 1),
			TypicalDelta: 2,
		}
		ys = b.DefaultYs(scale)
	}
	return b.Build(ys), ys, nil
}
