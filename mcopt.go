// Package mcopt is a Go reproduction of Nahar, Sahni & Shragowitz,
// "Experiments with simulated annealing" (22nd Design Automation
// Conference, 1985): a library of Monte Carlo optimization methods — classic
// simulated annealing and the paper's twenty alternative acceptance-function
// ("g function") classes — under the paper's two search strategies, together
// with the EDA problems it evaluates on (graph/net optimal linear
// arrangement, circuit partition, TSP) and its baselines (Goto's
// constructive heuristic, Cohoon–Sahni, Kernighan–Lin, 2-opt).
//
// This package is the stable public surface; it re-exports the library's
// internal packages. A minimal run looks like:
//
//	nl := mcopt.RandomGraph(mcopt.Stream("demo", 1), 15, 150)
//	sol := mcopt.NewLinearSolution(mcopt.RandomArrangement(nl, mcopt.Stream("start", 1)), mcopt.PairwiseInterchange)
//	res := mcopt.Figure1{G: mcopt.GOne()}.Run(sol, mcopt.NewBudget(2400), mcopt.Stream("run", 1))
//	fmt.Println(res.InitialCost, "→", res.BestCost)
//
// The experiment harness that regenerates the paper's tables lives behind
// the cmd/olabench, cmd/olatune, cmd/partbench and cmd/tspbench commands;
// see DESIGN.md and EXPERIMENTS.md.
package mcopt

import (
	"math/rand/v2"

	"mcopt/internal/core"
	"mcopt/internal/exact"
	"mcopt/internal/gfunc"
	"mcopt/internal/gotoh"
	"mcopt/internal/linarr"
	"mcopt/internal/netlist"
	"mcopt/internal/partition"
	"mcopt/internal/pmedian"
	"mcopt/internal/rng"
	"mcopt/internal/schedule"
	"mcopt/internal/tsp"
	"mcopt/problem"
)

// ---- Search engines (the paper's Figures 1 and 2) ----

type (
	// Solution is a mutable candidate solution; see problem.Solution. The
	// problem-facing contracts (Solution, Move, Descender, Enumerable,
	// BatchEvaluator) live in the public mcopt/problem package, which also
	// holds the registry that makes new domains servable by mcoptd; they
	// are re-exported here so engine-side code reads uniformly.
	Solution = problem.Solution
	// Move is a proposed, not-yet-applied perturbation; see problem.Move.
	Move = problem.Move
	// Descender is a Solution with deterministic local search, required by
	// the Figure-2 strategy; see problem.Descender.
	Descender = problem.Descender
	// G is an acceptance-function class; see core.G.
	G = core.G
	// Budget meters attempted perturbations; see core.Budget.
	Budget = core.Budget
	// Result records a run's outcome; see core.Result.
	Result = core.Result
	// Event is an engine telemetry event; see core.Event.
	Event = core.Event
	// EventKind identifies an engine decision point; see core.EventKind.
	EventKind = core.EventKind
	// Hook observes engine events; see core.Hook.
	Hook = core.Hook
	// PlateauPolicy selects the Figure-1 zero-delta rule; see
	// core.PlateauPolicy.
	PlateauPolicy = core.PlateauPolicy
	// Figure1 is the Metropolis-adaptation strategy of the paper's
	// Figure 1; see core.Figure1.
	Figure1 = core.Figure1
	// Figure2 is the descend-then-jump strategy of the paper's Figure 2;
	// see core.Figure2.
	Figure2 = core.Figure2
	// Tempering is the parallel-tempering (replica-exchange) engine: K
	// coupled Figure-1 chains at staggered temperature levels; see
	// core.Tempering.
	Tempering = core.Tempering
	// BatchEvaluator is a Solution that can draw a block of candidate
	// moves in one call and evaluate them one at a time against committed
	// state; see problem.BatchEvaluator.
	BatchEvaluator = problem.BatchEvaluator
	// ChainStat aggregates one tempering chain's activity; see
	// core.ChainStat.
	ChainStat = core.ChainStat
	// Rejectionless is [GREE84]'s "simulated annealing without rejected
	// moves"; see core.Rejectionless.
	Rejectionless = core.Rejectionless
	// Enumerable is a Solution with an enumerable neighborhood, required by
	// Rejectionless; see problem.Enumerable.
	Enumerable = problem.Enumerable
	// LevelStat aggregates one temperature level's activity; see
	// core.LevelStat.
	LevelStat = core.LevelStat
)

// Plateau policies for Figure1.
const (
	PlateauAccept      = core.PlateauAccept
	PlateauAcceptReset = core.PlateauAcceptReset
	PlateauReject      = core.PlateauReject
)

// Engine event kinds; see core.EventKind.
const (
	EventStart   = core.EventStart
	EventPropose = core.EventPropose
	EventAccept  = core.EventAccept
	EventReject  = core.EventReject
	EventLevel   = core.EventLevel
	EventDescent = core.EventDescent
	EventBest    = core.EventBest
	EventEnd     = core.EventEnd

	EventExchange       = core.EventExchange
	EventExchangeReject = core.EventExchangeReject
)

// NewBudget returns a budget of exactly `moves` attempted perturbations.
func NewBudget(moves int64) *Budget { return core.NewBudget(moves) }

// ---- Random streams ----

// Stream returns a deterministic named random stream; see rng.Stream.
func Stream(name string, seed uint64) *rand.Rand { return rng.Stream(name, seed) }

// DeriveStream returns an indexed child stream; see rng.Derive.
func DeriveStream(name string, seed, index uint64) *rand.Rand { return rng.Derive(name, seed, index) }

// ---- Acceptance-function classes (§3 of the paper) ----

// GBuilder describes one registered g class; see gfunc.Builder.
type GBuilder = gfunc.Builder

// GScale characterizes a problem's cost magnitudes for default schedules;
// see gfunc.Scale.
type GScale = gfunc.Scale

// GClasses returns builders for the paper's twenty classes in §3 order.
func GClasses() []GBuilder { return gfunc.Classes() }

// GByName returns the builder with the paper's row label.
func GByName(name string) (GBuilder, bool) { return gfunc.ByName(name) }

// GByID returns the builder with the paper's class number (1–20).
func GByID(id int) (GBuilder, bool) { return gfunc.ByID(id) }

// GOne returns g = 1 (class 3) with the paper's gate-18 rule — the paper's
// recommended, parameter-free method.
func GOne() G { return gfunc.One() }

// GMetropolis returns class 1 at temperature y.
func GMetropolis(y float64) G { return gfunc.Metropolis(y) }

// GSixTempAnnealing returns class 2, classic simulated annealing, over a
// six-level schedule.
func GSixTempAnnealing(ys []float64) G { return gfunc.SixTempAnnealing(ys) }

// GAnnealing returns Metropolis acceptance over an arbitrary k-level
// schedule (e.g. [GOLD84]'s 25 uniform temperatures); see gfunc.Annealing.
func GAnnealing(ys []float64) G { return gfunc.Annealing(ys) }

// GCohoonSahni returns the [COHO83a] acceptance function for an instance
// with m nets.
func GCohoonSahni(m int) G { return gfunc.CohoonSahni(m) }

// GThreshold returns the deterministic threshold-accepting extension class
// over the given schedule; see gfunc.Threshold.
func GThreshold(ys []float64) G { return gfunc.Threshold(ys) }

// GeometricSchedule returns the Kirkpatrick-style cooling schedule
// y1, y1·ratio, …; see schedule.Geometric.
func GeometricSchedule(y1, ratio float64, k int) []float64 {
	return schedule.Geometric(y1, ratio, k)
}

// UniformSchedule returns the Golden–Skiscim evenly spaced schedule; see
// schedule.Uniform.
func UniformSchedule(tau float64, k int) []float64 { return schedule.Uniform(tau, k) }

// KirkpatrickSchedule returns the exact six-level schedule quoted in §1
// (Y1 = 10, ratio 0.9).
func KirkpatrickSchedule() []float64 { return schedule.Kirkpatrick() }

// WhiteSchedule derives a k-level schedule from a solution's sampled uphill
// deltas per [WHIT84]'s hot/cold guidance; see schedule.WhiteFromSolution.
func WhiteSchedule(s Solution, r *rand.Rand, samples, k int) ([]float64, error) {
	return schedule.WhiteFromSolution(s, r, samples, k)
}

// ---- Netlists and linear arrangement (GOLA / NOLA, §4) ----

type (
	// Netlist is an immutable hypergraph of cells and nets; see
	// netlist.Netlist.
	Netlist = netlist.Netlist
	// Arrangement is a linear cell ordering with incrementally maintained
	// density. Move evaluation costs O(nets touched · √n) and allocates
	// nothing, so proposal throughput is set by the work a move actually
	// does rather than by instance size; see linarr.Arrangement.
	Arrangement = linarr.Arrangement
	// LinearSolution adapts an Arrangement to the engines; see
	// linarr.Solution.
	LinearSolution = linarr.Solution
	// MoveKind selects the arrangement perturbation class; see
	// linarr.MoveKind.
	MoveKind = linarr.MoveKind
)

// Arrangement perturbation classes.
const (
	PairwiseInterchange = linarr.PairwiseInterchange
	SingleExchange      = linarr.SingleExchange
)

// Objective selects which cost arrangement solutions optimize; see
// linarr.Objective.
type Objective = linarr.Objective

// Arrangement objectives.
const (
	// DensityObjective is the paper's objective (max gap crossing).
	DensityObjective = linarr.Density
	// TotalSpanObjective is the [KANG83]-style total wirelength.
	TotalSpanObjective = linarr.TotalSpan
)

// NewNetlist builds a validated netlist; see netlist.New.
func NewNetlist(numCells int, nets [][]int) (*Netlist, error) { return netlist.New(numCells, nets) }

// RandomGraph generates a GOLA instance (two-pin nets); see
// netlist.RandomGraph.
func RandomGraph(r *rand.Rand, numCells, nets int) *Netlist {
	return netlist.RandomGraph(r, numCells, nets)
}

// RandomHyper generates a NOLA instance (multi-pin nets); see
// netlist.RandomHyper.
func RandomHyper(r *rand.Rand, numCells, nets, minPins, maxPins int) *Netlist {
	return netlist.RandomHyper(r, numCells, nets, minPins, maxPins)
}

// NewArrangement places cell order[i] at position i; see linarr.New.
func NewArrangement(nl *Netlist, order []int) (*Arrangement, error) { return linarr.New(nl, order) }

// RandomArrangement returns a uniformly random cell order; see
// linarr.Random.
func RandomArrangement(nl *Netlist, r *rand.Rand) *Arrangement { return linarr.Random(nl, r) }

// NewLinearSolution wraps an arrangement for the engines; see
// linarr.NewSolution.
func NewLinearSolution(a *Arrangement, kind MoveKind) *LinearSolution {
	return linarr.NewSolution(a, kind)
}

// NewLinearSolutionFor wraps an arrangement with an explicit objective; see
// linarr.NewSolutionFor.
func NewLinearSolutionFor(a *Arrangement, kind MoveKind, obj Objective) *LinearSolution {
	return linarr.NewSolutionFor(a, kind, obj)
}

// GotoOrder returns the constructive left-to-right arrangement of [GOTO77];
// see gotoh.Order.
func GotoOrder(nl *Netlist) []int { return gotoh.Order(nl) }

// OptimalDensity returns the provably minimal density of a small instance
// (≤ 22 cells) via exact subset dynamic programming; see exact.MinDensity.
func OptimalDensity(nl *Netlist) (int, error) { return exact.MinDensity(nl) }

// OptimalOrder returns an arrangement achieving OptimalDensity; see
// exact.OptimalOrder.
func OptimalOrder(nl *Netlist) ([]int, error) { return exact.OptimalOrder(nl) }

// ---- Circuit partition (extension X1) ----

type (
	// Bipartition is a balanced two-way split with incremental cut
	// maintenance; see partition.Bipartition.
	Bipartition = partition.Bipartition
	// PartitionSolution adapts a Bipartition to the engines; see
	// partition.Solution.
	PartitionSolution = partition.Solution
)

// RandomBipartition returns a uniformly random balanced split; see
// partition.Random.
func RandomBipartition(nl *Netlist, r *rand.Rand) *Bipartition { return partition.Random(nl, r) }

// NewPartitionSolution wraps a bipartition for the engines; see
// partition.NewSolution.
func NewPartitionSolution(b *Bipartition) *PartitionSolution { return partition.NewSolution(b) }

// KernighanLin improves a bipartition with the classic pass-based heuristic
// under a move budget; see partition.KernighanLin.
func KernighanLin(b *Bipartition, budget *Budget) int { return partition.KernighanLin(b, budget) }

// FMConfig configures FiducciaMattheyses; see partition.FMConfig.
type FMConfig = partition.FMConfig

// FiducciaMattheyses improves a bipartition with the gain-bucket pass
// heuristic of Fiduccia & Mattheyses (DAC 1982); see
// partition.FiducciaMattheyses.
func FiducciaMattheyses(b *Bipartition, budget *Budget, cfg FMConfig) int {
	return partition.FiducciaMattheyses(b, budget, cfg)
}

// PartitionDescentRestarts repeats descents from fresh random bipartitions
// until the budget dies; see partition.DescentRestarts.
func PartitionDescentRestarts(nl *Netlist, b *Budget, r *rand.Rand) (*Bipartition, int) {
	return partition.DescentRestarts(nl, b, r)
}

// ---- TSP (extension X2) ----

type (
	// TSPInstance is a symmetric Euclidean instance; see tsp.Instance.
	TSPInstance = tsp.Instance
	// Tour is a cyclic tour with O(1) 2-opt evaluation; see tsp.Tour.
	Tour = tsp.Tour
	// TSPPoint is a city location; see tsp.Point.
	TSPPoint = tsp.Point
	// TourMoveKind selects the tour perturbation class; see
	// tsp.TourMoveKind.
	TourMoveKind = tsp.TourMoveKind
)

// Tour perturbation classes.
const (
	TwoOpt = tsp.TwoOpt
	OrOpt  = tsp.OrOpt
)

// RandomEuclidean generates n uniform cities in the unit square; see
// tsp.RandomEuclidean.
func RandomEuclidean(r *rand.Rand, n int) *TSPInstance { return tsp.RandomEuclidean(r, n) }

// RandomTour builds a uniformly random tour; see tsp.RandomTour.
func RandomTour(inst *TSPInstance, r *rand.Rand) *Tour { return tsp.RandomTour(inst, r) }

// NearestNeighbor builds a greedy tour from the given start city; see
// tsp.NearestNeighbor.
func NearestNeighbor(inst *TSPInstance, start int) []int { return tsp.NearestNeighbor(inst, start) }

// HullInsertion builds a convex-hull cheapest-insertion tour in the spirit
// of [STEW77]; see tsp.HullInsertion.
func HullInsertion(inst *TSPInstance) []int { return tsp.HullInsertion(inst) }

// TwoOptRestarts runs [LIN73]-style 2-opt descents from random tours until
// the budget dies; see tsp.TwoOptRestarts.
func TwoOptRestarts(inst *TSPInstance, b *Budget, r *rand.Rand) (*Tour, int) {
	return tsp.TwoOptRestarts(inst, b, r)
}

// ---- p-median location (extension X2b) ----

type (
	// PMedianInstance is a symmetric p-median instance; see
	// pmedian.Instance.
	PMedianInstance = pmedian.Instance
	// Medians is a median set with O(n) substitution evaluation; see
	// pmedian.Medians.
	Medians = pmedian.Medians
	// PMedianSolution adapts a median set to the engines; see
	// pmedian.Solution.
	PMedianSolution = pmedian.Solution
)

// RandomPMedian generates n uniform sites with p medians to place; see
// pmedian.RandomEuclidean.
func RandomPMedian(r *rand.Rand, n, p int) *PMedianInstance { return pmedian.RandomEuclidean(r, n, p) }

// RandomMedians places p medians uniformly at random; see pmedian.Random.
func RandomMedians(inst *PMedianInstance, r *rand.Rand) *Medians { return pmedian.Random(inst, r) }

// NewPMedianSolution wraps a median set for the engines; see
// pmedian.NewSolution.
func NewPMedianSolution(m *Medians) *PMedianSolution { return pmedian.NewSolution(m) }

// GreedyMedians builds a median set by greedy construction under a move
// budget; see pmedian.Greedy.
func GreedyMedians(inst *PMedianInstance, b *Budget) []int { return pmedian.Greedy(inst, b) }

// InterchangeRestarts runs Teitz–Bart descents from random median sets
// until the budget dies; see pmedian.InterchangeRestarts.
func InterchangeRestarts(inst *PMedianInstance, b *Budget, r *rand.Rand) (*Medians, int) {
	return pmedian.InterchangeRestarts(inst, b, r)
}
