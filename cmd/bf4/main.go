// Command bf4 is the compile-time half of the system: it verifies a P4
// program, infers controller annotations, proposes fixes and emits the
// artifacts the runtime shim consumes.
//
// Usage:
//
//	bf4 [flags] program.p4
//	bf4 [flags] -corpus simple_nat
//	bf4 [flags] -switch-scale 8
//
// Flags:
//
//	-spec out.json     write the controller assertions + table schemas
//	-fixed out.p4      write the fixed program (keys added)
//	-render            print the SQL-like assertion rendering
//	-j N               workers: solver shards for bug checks and rechecks,
//	                   inference pool size (0 = GOMAXPROCS); verdicts,
//	                   fixes and annotation files are identical for every
//	                   value, witness traces may differ
//	-metrics-json f    write run metrics (counters, gauges, histograms,
//	                   the ten slowest solver checks, each marked "first"
//	                   when it was its solver's cold start) as JSON to f
//	                   ("-" for stdout)
//	-trace-out f       write the hierarchical phase-timing tree to f
//	                   ("-" for stdout)
//	-v                 verbose: list every bug with its verdict
//	-trace             print a counterexample for each reachable bug: of the
//	                   program as written the run assumes arbitrary table
//	                   entries; the one after a "dataplane bug" line runs
//	                   the final program under rules every inferred
//	                   annotation admits
//	-cpuprofile f      write a CPU profile of the verification run to f
//	-memprofile f      write an allocation profile of the run to f
//	                   (go tool pprof -sample_index=alloc_space)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"bf4/internal/analysis"
	"bf4/internal/core"
	"bf4/internal/driver"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/progs"
	"bf4/internal/prop"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "lint" {
		lintMain(os.Args[2:])
		return
	}
	var (
		corpusName  = flag.String("corpus", "", "analyze a named corpus program (see -list)")
		list        = flag.Bool("list", false, "list corpus programs and exit")
		switchScale = flag.Int("switch-scale", 0, "analyze a generated switch program at this scale")
		specOut     = flag.String("spec", "", "write controller assertions (JSON) to this file")
		fixedOut    = flag.String("fixed", "", "write the fixed P4 program to this file")
		render      = flag.Bool("render", false, "print assertions in SQL-like form")
		verbose     = flag.Bool("v", false, "verbose bug listing")
		showTrace   = flag.Bool("trace", false, "print a counterexample trace for each reachable bug of the program as written (a run under arbitrary table entries) and, after each dataplane bug, one on the final program that satisfies every inferred annotation")
		jobs        = flag.Int("j", 0, "workers: solver shards for bug checks and rechecks, and the inference pool size (0 = GOMAXPROCS; verdicts, fixes and annotation files are identical for every value, witness traces may differ)")
		metricsOut  = flag.String("metrics-json", "", "write run metrics as JSON to this file (\"-\" for stdout; verdicts are identical with metrics on or off)")
		traceOut    = flag.String("trace-out", "", "write the hierarchical phase-timing tree to this file (\"-\" for stdout)")
		check       = flag.String("check", "", "enable extra bug classes: iflow adds information-flow leak checks (sensitive data reaching egress-visible sinks); assert compiles user @assert/@assume properties (source comments plus -prop-spec) into the verified set")
		propSpec    = flag.String("prop-spec", "", "with -check=assert: read additional @assert/@assume properties from this .props spec file")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the verification run to this file")
		memProfile  = flag.String("memprofile", "", "write an allocation profile of the verification run to this file")
	)
	flag.Parse()

	if *list {
		for _, p := range progs.All() {
			fmt.Printf("%-22s %s\n", p.Name, p.Description)
		}
		return
	}

	name, src := "", ""
	switch {
	case *corpusName != "":
		p := progs.Get(*corpusName)
		if p == nil {
			fatalf("unknown corpus program %q (use -list)", *corpusName)
		}
		name, src = p.Name, p.Source
	case *switchScale > 0:
		name, src = fmt.Sprintf("switch@%d", *switchScale), progs.GenerateSwitch(*switchScale)
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		name, src = flag.Arg(0), string(data)
	default:
		flag.Usage()
		os.Exit(2)
	}

	cfg := driver.DefaultConfig()
	checkAssert := false
	switch *check {
	case "":
	case "iflow":
		cfg.IR.CheckInfoFlow = true
		cfg.IR.TaintDefaultPolicy = true
	case "assert":
		checkAssert = true
		props, err := driver.GatherProps(name, src, *propSpec, nil)
		if err != nil {
			usagef("%v", err)
		}
		if len(props) == 0 {
			fatalf("bf4: -check=assert found no properties (write // @assert(...) comments or pass -prop-spec)")
		}
		cfg.IR.Instrument = prop.Instrumenter(props)
	default:
		fatalf("bf4: -check must be empty, iflow or assert, got %q", *check)
	}
	if *propSpec != "" && !checkAssert {
		fatalf("bf4: -prop-spec requires -check=assert")
	}
	cfg.Workers = *jobs
	if *metricsOut != "" {
		cfg.Obs = obs.NewRegistry()
	}
	if *traceOut != "" {
		cfg.Trace = obs.StartSpan(name)
	}

	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	res, err := driver.Run(name, src, cfg)
	stopProfiles()
	if err != nil {
		fatalf("bf4: %v", err)
	}
	cfg.Trace.End()

	fmt.Println(res.Summary())
	st := res.Analysis.Stats
	fmt.Printf("analysis: discharged %d/%d checks statically\n", st.Discharged, st.BugChecks)
	if checkAssert {
		violated, controlled, hold := 0, 0, 0
		for _, b := range res.InitialRep.Bugs {
			if b.Kind != ir.BugAssertFail || b.Node.Prop == nil {
				continue
			}
			info := b.Node.Prop
			switch {
			case !b.Reachable:
				hold++
				fmt.Printf("assert %s (%s): holds\n", info.Text, info.Origin)
			case res.InferResult.Controlled[b.Node]:
				controlled++
				fmt.Printf("assert %s (%s): violated under arbitrary entries; controlled by inferred annotations\n", info.Text, info.Origin)
			default:
				violated++
				fmt.Printf("assert %s (%s): VIOLATED (uncontrolled after inference)\n", info.Text, info.Origin)
			}
		}
		fmt.Printf("assert: %d hold, %d controlled after inference, %d violated\n", hold, controlled, violated)
	}
	if *verbose {
		for _, b := range res.InitialRep.Bugs {
			verdict := "unreachable"
			if b.Reachable {
				verdict = "REACHABLE"
				if res.InferResult.Controlled[b.Node] {
					verdict = "controlled"
				}
			}
			fmt.Printf("  %-11s %s\n", verdict, b.Description())
		}
	}
	if *showTrace {
		for _, b := range res.InitialRep.Bugs {
			if !b.Reachable {
				continue
			}
			printTrace(res.Initial, b)
		}
	}
	if len(res.Fixes.Keys) > 0 || len(res.Fixes.Special) > 0 || len(res.Fixes.Unfixable) > 0 {
		fmt.Print(res.Fixes.Describe())
	}
	final, _, _ := res.Final()
	for _, b := range res.Dataplane {
		fmt.Printf("dataplane bug (fix the P4 code): %s\n", b.Description())
		if *showTrace {
			// The bug's witness has held through the last recheck, so this run
			// of the final program uses no rule an inferred annotation forbids.
			printTrace(final, b)
		}
	}

	file := res.Spec()
	if *render {
		fmt.Print(file.Render())
	}
	if *specOut != "" {
		data, err := file.Marshal()
		if err != nil {
			fatalf("marshal spec: %v", err)
		}
		if err := os.WriteFile(*specOut, data, 0o644); err != nil {
			fatalf("write spec: %v", err)
		}
		fmt.Printf("wrote %d assertions to %s\n", len(file.Assertions), *specOut)
	}
	if *fixedOut != "" {
		if res.FixedSource == "" {
			fmt.Println("no fixes needed; fixed program not written")
		} else if err := os.WriteFile(*fixedOut, []byte(res.FixedSource), 0o644); err != nil {
			fatalf("write fixed program: %v", err)
		} else {
			fmt.Printf("wrote fixed program to %s\n", *fixedOut)
		}
	}
	if *metricsOut != "" {
		data, err := cfg.Obs.JSON()
		if err != nil {
			fatalf("render metrics: %v", err)
		}
		writeOut(*metricsOut, append(data, '\n'))
	}
	if *traceOut != "" {
		writeOut(*traceOut, []byte(cfg.Trace.RenderString()))
	}
}

// printTrace replays b's witness on pl, the pipeline b was found in, and
// prints the run.
func printTrace(pl *core.Pipeline, b *core.Bug) {
	tr, err := pl.Counterexample(b)
	if err != nil {
		fmt.Printf("trace unavailable: %v\n", err)
		return
	}
	fmt.Print(pl.RenderTrace(b, tr))
}

// startProfiles starts a CPU profile into cpuPath and returns the function
// that ends it and writes the allocation profile (every allocation since
// process start, sampled) to memPath; an empty path skips that profile.
func startProfiles(cpuPath, memPath string) (stop func()) {
	create := func(path string) *os.File {
		f, err := os.Create(path)
		if err != nil {
			fatalf("bf4: %v", err)
		}
		return f
	}
	finish := func(f *os.File, err error) {
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			fatalf("bf4: write %s: %v", f.Name(), err)
		}
	}
	var cpu *os.File
	if cpuPath != "" {
		cpu = create(cpuPath)
		if err := pprof.StartCPUProfile(cpu); err != nil {
			fatalf("bf4: %v", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			finish(cpu, nil)
		}
		if memPath != "" {
			f := create(memPath)
			finish(f, pprof.Lookup("allocs").WriteTo(f, 0))
		}
	}
}

// writeOut writes data to a file, or to stdout when path is "-".
func writeOut(path string, data []byte) {
	if path == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatalf("write %s: %v", path, err)
	}
}

// lintMain implements `bf4 lint`: run the static-analysis layer — or, with
// -taint or -props, one of the solver-backed check families — and report
// diagnostics. Exit status is 1 when an error-severity diagnostic is found,
// 2 on usage or compile failure, 0 otherwise.
func lintMain(args []string) {
	fs := flag.NewFlagSet("bf4 lint", flag.ExitOnError)
	var (
		corpusName  = fs.String("corpus", "", "lint a named corpus program")
		switchScale = fs.Int("switch-scale", 0, "lint a generated switch program at this scale")
		jsonOut     = fs.Bool("json", false, "emit diagnostics as JSON")
		taint       = fs.Bool("taint", false, "run the information-flow (taint) analysis instead of the lint passes: dataflow alarms at egress-visible sinks, each confirmed or dismissed by the solver")
		taintPolicy = fs.String("taint-policy", "default", "taint source policy: default (annotations + built-in sensitive fields) or annot (annotations only)")
		taintFamily = fs.String("taint-family", "", "lint a generated taint-exercise program: leaky or clean (sized by -switch-scale, placed by -taint-seed)")
		taintSeed   = fs.Int("taint-seed", 1, "placement seed for -taint-family generation (deterministic per seed)")
		propsRun    = fs.Bool("props", false, "check user @assert/@assume properties instead of the lint passes: each assert is discharged statically, confirmed with a packet witness, or dismissed as infeasible by the solver")
		specFile    = fs.String("spec", "", "with -props: read additional properties from this .props spec file")
		family      = fs.String("family", "", "lint a generated exercise program: props (a pipeline plus a .props spec covering all three verdict tiers; sized by -switch-scale, placed by -seed)")
		famSeed     = fs.Int("seed", 1, "placement seed for -family generation (deterministic per seed)")
		jobs        = fs.Int("j", 0, "confirmation solver workers (0 = 1; output identical for every value)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bf4 lint [-json] [-taint] [-props] (program.p4 | -corpus name | -switch-scale n | -taint-family leaky|clean | -family props)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	name, src := "", ""
	var extraProps []*prop.Property
	switch {
	case *family != "":
		if *family != "props" {
			usagef("bf4 lint: -family must be props, got %q", *family)
		}
		scale := *switchScale
		if scale <= 0 {
			scale = 4
		}
		name = fmt.Sprintf("propswitch@%d.p4", scale)
		genSrc, genProps := progs.GeneratePropSwitch(scale, *famSeed)
		src = genSrc
		if *specFile == "" {
			specName := fmt.Sprintf("propswitch@%d.props", scale)
			ps, err := prop.ParseSpecFile(specName, []byte(genProps))
			if err != nil {
				fatalf("bf4 lint: generated spec: %v", err)
			}
			extraProps = ps
		}
		*propsRun = true
	case *taintFamily != "":
		if *taintFamily != "leaky" && *taintFamily != "clean" {
			usagef("bf4 lint: -taint-family must be leaky or clean, got %q", *taintFamily)
		}
		scale := *switchScale
		if scale <= 0 {
			scale = 4
		}
		name = fmt.Sprintf("taintswitch-%s@%d.p4", *taintFamily, scale)
		src = progs.GenerateTaintSwitch(scale, *taintSeed, *taintFamily == "leaky")
	case *corpusName != "":
		p := progs.Get(*corpusName)
		if p == nil {
			usagef("unknown corpus program %q (use bf4 -list)", *corpusName)
		}
		name, src = p.Name+".p4", p.Source
	case *switchScale > 0:
		name, src = fmt.Sprintf("switch@%d.p4", *switchScale), progs.GenerateSwitch(*switchScale)
	case fs.NArg() == 1:
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			usagef("%v", err)
		}
		name, src = fs.Arg(0), string(data)
	default:
		fs.Usage()
		os.Exit(2)
	}
	if *specFile != "" && !*propsRun {
		usagef("bf4 lint: -spec requires -props")
	}

	cfg := driver.DefaultConfig()
	cfg.Workers = max(*jobs, 1) // lint's -j 0 is one worker, not GOMAXPROCS
	rep, err := func() (*analysis.Report, error) {
		switch {
		case *propsRun:
			props, err := driver.GatherProps(name, src, *specFile, extraProps)
			if err != nil {
				return nil, err
			}
			pr, err := driver.Props(name, src, props, cfg)
			if err != nil {
				return nil, err
			}
			return pr.Report(), nil
		case *taint:
			switch *taintPolicy {
			case "", "default":
				cfg.IR.TaintDefaultPolicy = true
			case "annot":
			default:
				return nil, fmt.Errorf("taint: policy must be default or annot, got %q", *taintPolicy)
			}
			tr, err := driver.Taint(name, src, cfg)
			if err != nil {
				return nil, err
			}
			return tr.Report(), nil
		default:
			return driver.Lint(name, src, cfg)
		}
	}()
	if err != nil {
		usagef("%v", err)
	}
	if *jsonOut {
		data, err := rep.RenderJSON(name)
		if err != nil {
			fatalf("render: %v", err)
		}
		fmt.Printf("%s\n", data)
	} else {
		fmt.Print(rep.RenderText(name))
	}
	if rep.HasErrors() {
		os.Exit(1)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// usagef reports a usage, input or compile failure: exit 2, never 1, which
// `bf4 lint` reserves for error-severity findings.
func usagef(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
