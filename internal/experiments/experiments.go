// Package experiments regenerates every table and quantitative claim of
// the paper's evaluation (the experiment index in DESIGN.md): Table 1
// across the corpus, the slicing ablation (§4.1), Fast-Infer vs Infer
// (§4.2), the multi-table and dontCare heuristics (§4.2), the p4v and
// Vera comparisons (§5.2), the shim latency study (§5.3), the key
// overhead analysis (§5) and the stage-cost motivation (§3). The cmd/
// bf4-bench binary drives these entry points, one per experiment.
//
// Experiments that run several independent verifications (the corpus
// loop of Table1, the two arms of each ablation) accept a workers knob
// and fan the runs out over a bounded pool (<= 0 means GOMAXPROCS).
// Each run compiles its own pipeline — term factories and solvers are
// never shared across programs — and results are collected in a fixed
// order, so every output except wall-clock timings is identical for
// every worker count. Pass workers=1 to reproduce the paper's serial
// timing methodology.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"bf4/internal/baseline"
	"bf4/internal/core"
	"bf4/internal/cost"
	"bf4/internal/dataplane"
	"bf4/internal/driver"
	"bf4/internal/infer"
	"bf4/internal/ir"
	"bf4/internal/pool"
	"bf4/internal/progs"
	"bf4/internal/shim"
	"bf4/internal/trace"
)

// ---------------------------------------------------------------- E1

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Program        string
	LoC            int
	Bugs           int
	BugsAfterInfer int
	Runtime        time.Duration
	BugsAfterFixes int
	KeysAdded      int
}

// Table1 runs the full pipeline over the corpus, fanning the programs
// out over workers goroutines (<= 0 means GOMAXPROCS). Every program is
// an independent verification — its own parse, term factory, and
// solvers — so the rows are identical for any worker count; only the
// Runtime column is load-dependent. switchScale overrides the generated
// switch's scale (0 = skip switch, for quick runs).
func Table1(switchScale, workers int) ([]Table1Row, error) {
	type job struct{ name, src string }
	var jobs []job
	for _, p := range progs.All() {
		src := p.Source
		if p.Name == "switch" {
			if switchScale == 0 {
				continue
			}
			src = progs.GenerateSwitch(switchScale)
		}
		jobs = append(jobs, job{p.Name, src})
	}
	rows, err := pool.MapErr(workers, len(jobs), func(i int) (Table1Row, error) {
		res, err := driver.Run(jobs[i].name, jobs[i].src, driver.DefaultConfig())
		if err != nil {
			return Table1Row{}, fmt.Errorf("%s: %w", jobs[i].name, err)
		}
		return Table1Row{
			Program:        jobs[i].name,
			LoC:            res.LoC,
			Bugs:           res.Bugs,
			BugsAfterInfer: res.BugsAfterInfer,
			Runtime:        res.Runtime,
			BugsAfterFixes: res.BugsAfterFixes,
			KeysAdded:      res.KeysAdded,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Program < rows[j].Program })
	return rows, nil
}

// RenderTable1 prints rows in the paper's column order.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %6s %6s %12s %12s %12s %6s\n",
		"Program", "LoC", "#bugs", "after-Infer", "runtime", "after-fixes", "keys")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %6d %6d %12d %12s %12d %6d\n",
			r.Program, r.LoC, r.Bugs, r.BugsAfterInfer,
			r.Runtime.Round(time.Millisecond), r.BugsAfterFixes, r.KeysAdded)
	}
	return b.String()
}

// RenderTable1Stable prints rows without the Runtime column: every
// remaining field is deterministic, so two renderings produced with
// different worker counts (or on different machines) must be
// byte-identical. CI diffs this output for -j 1 vs -j 2.
func RenderTable1Stable(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %6s %6s %12s %12s %6s\n",
		"Program", "LoC", "#bugs", "after-Infer", "after-fixes", "keys")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %6d %6d %12d %12d %6d\n",
			r.Program, r.LoC, r.Bugs, r.BugsAfterInfer, r.BugsAfterFixes, r.KeysAdded)
	}
	return b.String()
}

// ---------------------------------------------------------------- E2

// SlicingResult is the §4.1 ablation. Times cover the model-checking
// phase only (per-bug reachability queries), since that is what the
// formula size affects; both configurations share the frontend cost.
type SlicingResult struct {
	TotalInstructions int
	SliceInstructions int
	TimeWithSlicing   time.Duration
	TimeWithout       time.Duration
	BugsWith          int
	BugsWithout       int
	// FormulaWith/FormulaWithout: total DAG nodes across the reachability
	// conditions checked (the paper's formula-size effect; also drives
	// the 10x-simpler counterexample-trace claim).
	FormulaWith    int
	FormulaWithout int
	// SAT-level propagations, a machine-independent effort metric.
	PropagationsWith    int64
	PropagationsWithout int64
}

// Slicing measures model-checking time with and without the slice on
// the generated switch. The two arms decide the bugs of one compile, on its
// sliced conditions (Reach) and on a copy of the pipeline whose conditions
// range over the whole CFG (FullReach), and run concurrently when
// workers > 1; use workers=1 when the timing columns must not contend for
// cores (bug counts, instruction counts, formula sizes, and propagations
// are deterministic either way).
func Slicing(scale, workers int) (*SlicingResult, error) {
	pl, err := core.Compile(progs.GenerateSwitch(scale), ir.DefaultOptions())
	if err != nil {
		return nil, err
	}
	unsliced := *pl
	unsliced.Reach = pl.FullReach
	arms := pool.Map(workers, 2, func(i int) *core.Report {
		return [2]*core.Pipeline{pl, &unsliced}[i].FindBugs()
	})
	out := &SlicingResult{}
	repS := arms[0]
	out.TotalInstructions = pl.SliceStats.TotalInstructions
	out.SliceInstructions = pl.SliceStats.SliceInstructions
	out.TimeWithSlicing = repS.SolveTime
	out.BugsWith = repS.NumReachable()
	out.FormulaWith = formulaNodes(repS)
	_, _, _, out.PropagationsWith = repS.Shards[0].Stats()

	repU := arms[1]
	out.TimeWithout = repU.SolveTime
	out.BugsWithout = repU.NumReachable()
	out.FormulaWithout = formulaNodes(repU)
	_, _, _, out.PropagationsWithout = repU.Shards[0].Stats()
	return out, nil
}

// formulaNodes sums the DAG sizes of all checked bug conditions.
func formulaNodes(rep *core.Report) int {
	n := 0
	for _, b := range rep.Bugs {
		if b.Cond != nil {
			n += b.Cond.Size()
		}
	}
	return n
}

// ---------------------------------------------------------------- E3

// InferAblationResult compares Fast-Infer against full Infer (§4.2).
type InferAblationResult struct {
	FastInferTime       time.Duration
	FastInferControlled int
	InferTime           time.Duration
	InferControlled     int
	TotalBugs           int
	InferIterations     int
}

// InferAblation runs each algorithm alone on the generated switch. The
// two arms (Fast-Infer only, Infer only) are independent compiles and
// run concurrently when workers > 1.
func InferAblation(scale, workers int) (*InferAblationResult, error) {
	src := progs.GenerateSwitch(scale)
	type arm struct {
		controlled, total, iters int
		dur                      time.Duration
	}
	arms, err := pool.MapErr(workers, 2, func(i int) (arm, error) {
		fast := i == 0
		pl, err := core.Compile(src, ir.DefaultOptions())
		if err != nil {
			return arm{}, err
		}
		rep := pl.FindBugs()
		opts := infer.DefaultOptions()
		opts.UseFastInfer, opts.UseInfer = fast, !fast
		opts.UseMultiTable = false
		start := time.Now()
		res := infer.Run(pl, rep, opts)
		return arm{
			controlled: rep.NumReachable() - len(res.Uncontrolled),
			total:      rep.NumReachable(),
			iters:      res.InferCalls,
			dur:        time.Since(start),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &InferAblationResult{TotalBugs: arms[0].total}
	out.FastInferControlled, out.FastInferTime = arms[0].controlled, arms[0].dur
	out.InferControlled, out.InferTime, out.InferIterations = arms[1].controlled, arms[1].dur, arms[1].iters
	return out, nil
}

// ---------------------------------------------------------------- E4/E5

// HeuristicResult reports how many additional bugs one heuristic
// controls.
type HeuristicResult struct {
	Baseline        int // bugs controlled without the heuristic
	WithHeuristic   int
	TotalBugs       int
	BaselineTime    time.Duration
	HeuristicTime   time.Duration
	ExtraControlled int
}

func heuristic(scale, workers int, enable func(*infer.Options, bool)) (*HeuristicResult, error) {
	src := progs.GenerateSwitch(scale)
	type arm struct {
		controlled, total int
		dur               time.Duration
	}
	arms, err := pool.MapErr(workers, 2, func(i int) (arm, error) {
		on := i == 1
		pl, err := core.Compile(src, ir.DefaultOptions())
		if err != nil {
			return arm{}, err
		}
		rep := pl.FindBugs()
		opts := infer.DefaultOptions()
		enable(&opts, on)
		start := time.Now()
		res := infer.Run(pl, rep, opts)
		return arm{
			controlled: rep.NumReachable() - len(res.Uncontrolled),
			total:      rep.NumReachable(),
			dur:        time.Since(start),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &HeuristicResult{TotalBugs: arms[0].total}
	out.Baseline, out.BaselineTime = arms[0].controlled, arms[0].dur
	out.WithHeuristic, out.HeuristicTime = arms[1].controlled, arms[1].dur
	out.ExtraControlled = out.WithHeuristic - out.Baseline
	return out, nil
}

// MultiTable measures the §4.2 multi-table heuristic.
func MultiTable(scale, workers int) (*HeuristicResult, error) {
	return heuristic(scale, workers, func(o *infer.Options, on bool) { o.UseMultiTable = on })
}

// DontCare measures the §4.2 dontCare heuristic. The IR must be built
// with dontCare nodes either way; only the OK constraint changes.
func DontCare(scale, workers int) (*HeuristicResult, error) {
	return heuristic(scale, workers, func(o *infer.Options, on bool) { o.UseDontCare = on })
}

// ---------------------------------------------------------------- E6

// P4VComparison is the §5.2 p4v contrast.
type P4VComparison struct {
	P4VTime         time.Duration
	P4VFoundBug     bool
	BF4Time         time.Duration
	BF4Bugs         int
	BF4AfterFixes   int
	BF4KeysInferred int
}

// P4V runs the monolithic p4v-style query and the full bf4 loop.
func P4V(scale int) (*P4VComparison, error) {
	src := progs.GenerateSwitch(scale)
	out := &P4VComparison{}

	pl, err := core.Compile(src, ir.DefaultOptions())
	if err != nil {
		return nil, err
	}
	r := baseline.P4VApprox(pl)
	out.P4VTime = pl.CompileTime + r.Duration
	out.P4VFoundBug = r.AnyBugReachable

	res, err := driver.Run("switch", src, driver.DefaultConfig())
	if err != nil {
		return nil, err
	}
	out.BF4Time = res.Runtime
	out.BF4Bugs = res.Bugs
	out.BF4AfterFixes = res.BugsAfterFixes
	out.BF4KeysInferred = res.KeysAdded
	return out, nil
}

// ---------------------------------------------------------------- E7

// VeraComparison is the §5.2 Vera contrast.
type VeraComparison struct {
	ConcretePaths    int
	ConcreteBugs     int
	ConcreteTime     time.Duration
	ConcreteCoverage float64
	ConcreteComplete bool
	SymbolicPaths    int
	SymbolicBugs     int
	SymbolicTime     time.Duration
	SymbolicCoverage float64
	SymbolicComplete bool
}

// VeraCompare explores the generated switch concretely (one populated
// snapshot, to the end) and symbolically, at most symbolicPaths paths.
func VeraCompare(scale, symbolicPaths int) (*VeraComparison, error) {
	src := progs.GenerateSwitch(scale)
	pl, err := core.Compile(src, ir.DefaultOptions())
	if err != nil {
		return nil, err
	}
	out := &VeraComparison{}

	// Concrete mode: a small sane snapshot (one entry per table).
	snap := dataplane.NewSnapshot()
	for _, inst := range pl.IR.Instances {
		t := inst.Table
		e := &dataplane.Entry{Action: t.Actions[0].Name}
		for _, k := range t.Keys {
			switch k.MatchKind {
			case "ternary":
				e.Keys = append(e.Keys, dataplane.NewTernary(0, 0))
			case "lpm":
				e.Keys = append(e.Keys, dataplane.NewLpm(0, 0))
			default:
				e.Keys = append(e.Keys, dataplane.NewExact(1))
			}
		}
		for range t.Actions[0].Params {
			e.Params = append(e.Params, dataplane.NewExact(1).Value)
		}
		snap.Insert(t.Name, e)
	}
	rc, err := baseline.Vera(pl, baseline.VeraOptions{Snapshot: snap})
	if err != nil {
		return nil, err
	}
	out.ConcretePaths = rc.Paths
	out.ConcreteBugs = len(rc.BugsHit)
	out.ConcreteTime = rc.Duration
	out.ConcreteCoverage = rc.Coverage()
	out.ConcreteComplete = rc.Completed

	rs, err := baseline.Vera(pl, baseline.VeraOptions{MaxPaths: symbolicPaths})
	if err != nil {
		return nil, err
	}
	out.SymbolicPaths = rs.Paths
	out.SymbolicBugs = len(rs.BugsHit)
	out.SymbolicTime = rs.Duration
	out.SymbolicCoverage = rs.Coverage()
	out.SymbolicComplete = rs.Completed
	return out, nil
}

// ---------------------------------------------------------------- E8

// ShimLatency is the §5.3 study.
type ShimLatency struct {
	Updates       int
	Assertions    int
	Rejected      int
	PerAssertion  Percentiles
	PerUpdate     Percentiles
	TablesCovered int
}

// Percentiles summarizes a latency distribution.
type Percentiles struct {
	P50, P90, P99, Max time.Duration
}

func percentilesOf(ns []int64) Percentiles {
	if len(ns) == 0 {
		return Percentiles{}
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)-1))
		return time.Duration(sorted[i])
	}
	return Percentiles{P50: at(0.50), P90: at(0.90), P99: at(0.99), Max: time.Duration(sorted[len(sorted)-1])}
}

// Shim replays a synthetic controller trace of n updates against the
// generated switch's inferred assertions, timing each Apply from outside
// as a controller sees it. An update's per-assertion sample is its time
// divided by the assertion evaluations it ran; updates that ran none
// (refused at the boundary, or to a table no assertion names) give none.
func Shim(scale, n int) (*ShimLatency, error) {
	src := progs.GenerateSwitch(scale)
	res, err := driver.Run("switch", src, driver.DefaultConfig())
	if err != nil {
		return nil, err
	}
	file := res.Spec()
	sh, err := shim.New(file)
	if err != nil {
		return nil, err
	}
	updates := trace.NewGenerator(1, file).Updates(n)
	perUpdate := make([]int64, 0, len(updates))
	var perAssertion []int64
	evals := 0
	for _, u := range updates {
		start := time.Now()
		_ = sh.Apply(u)
		ns := int64(time.Since(start))
		perUpdate = append(perUpdate, ns)
		c := sh.Counters()
		if ran := c.FastpathHits + c.SlowpathHits - evals; ran > 0 {
			perAssertion = append(perAssertion, ns/int64(ran))
		}
		evals = c.FastpathHits + c.SlowpathHits
	}
	st := sh.Counters()
	out := &ShimLatency{
		Updates:      st.Validated,
		Assertions:   len(file.Assertions),
		Rejected:     st.Rejected,
		PerAssertion: percentilesOf(perAssertion),
		PerUpdate:    percentilesOf(perUpdate),
	}
	seen := map[string]bool{}
	for _, a := range file.Assertions {
		seen[a.Table] = true
	}
	out.TablesCovered = len(seen)
	return out, nil
}

// ---------------------------------------------------------------- E9

// Overhead is the §5 key-addition cost analysis.
type Overhead struct {
	KeysBefore     int
	KeysAdded      int
	KeyPercent     float64
	BitsAdded      int
	BitsPerTable   float64
	TablesTotal    int
	TablesTouched  int
	TablePercent   float64
	AvgBitsPerRule float64
}

// KeyOverhead measures the fix overhead on the generated switch.
func KeyOverhead(scale int) (*Overhead, error) {
	src := progs.GenerateSwitch(scale)
	res, err := driver.Run("switch", src, driver.DefaultConfig())
	if err != nil {
		return nil, err
	}
	pl, _, _ := res.Final()
	st := cost.Estimate(pl.IR)
	out := &Overhead{
		KeysAdded:     res.KeysAdded,
		BitsAdded:     st.ExtraMatchBits,
		TablesTouched: res.TablesTouched,
		TablesTotal:   len(pl.IR.Tables),
	}
	for _, t := range res.Initial.IR.Tables {
		out.KeysBefore += len(t.Keys)
	}
	if out.KeysBefore > 0 {
		out.KeyPercent = 100 * float64(out.KeysAdded) / float64(out.KeysBefore)
	}
	if out.TablesTotal > 0 {
		out.TablePercent = 100 * float64(out.TablesTouched) / float64(out.TablesTotal)
	}
	if out.TablesTotal > 0 {
		out.BitsPerTable = float64(st.ExtraMatchBits) / float64(out.TablesTotal)
	}
	if res.KeysAdded > 0 {
		out.AvgBitsPerRule = float64(st.ExtraMatchBits) / float64(out.TablesTotal)
	}
	return out, nil
}

// ---------------------------------------------------------------- E10

// StageCost is the §3 motivation: guard instrumentation vs key fixes.
type StageCost struct {
	Program    string
	Original   int
	WithGuards int
	WithKeys   int
}

// Stages evaluates the stage model on a corpus program (the paper uses
// simple_nat: instrumentation doubles the stage count).
func Stages(name string) (*StageCost, error) {
	p := progs.Get(name)
	if p == nil {
		return nil, fmt.Errorf("unknown program %q", name)
	}
	res, err := driver.Run(p.Name, p.Source, driver.DefaultConfig())
	if err != nil {
		return nil, err
	}
	pl, _, _ := res.Final()
	st := cost.Estimate(pl.IR)
	return &StageCost{Program: name, Original: st.Original, WithGuards: st.WithGuards, WithKeys: st.WithKeys}, nil
}
