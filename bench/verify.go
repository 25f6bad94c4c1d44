package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"bf4/internal/driver"
	"bf4/internal/obs"
	"bf4/internal/progs"
)

// row is one Table 1 row: bugs, afterInfer, afterFixes, keys.
type row [4]int

func (r row) String() string {
	return fmt.Sprintf("bugs=%d afterInfer=%d afterFixes=%d keys=%d", r[0], r[1], r[2], r[3])
}

func rowOf(res *driver.Result) row {
	return row{res.Bugs, res.BugsAfterInfer, res.BugsAfterFixes, res.KeysAdded}
}

//go:embed expected/table1.json
var table1JSON []byte

// expectedRows loads the hand-kept reference rows. They are the known
// answers the verifier's verdicts are checked against; nothing in the
// harness ever writes this file.
func expectedRows() (map[string]row, error) {
	var f struct {
		Rows map[string]row `json:"rows"`
	}
	if err := json.Unmarshal(table1JSON, &f); err != nil {
		return nil, fmt.Errorf("expected/table1.json: %w", err)
	}
	return f.Rows, nil
}

type program struct{ name, src string }

// loadProgram resolves "switch@N" to the generated switch at scale N and
// anything else to the hand-written corpus program of that name.
func loadProgram(name string) (program, error) {
	if scale, ok := strings.CutPrefix(name, "switch@"); ok {
		n, err := strconv.Atoi(scale)
		if err != nil || n < 1 {
			return program{}, fmt.Errorf("bad switch scale in %q", name)
		}
		return program{name, progs.GenerateSwitch(n)}, nil
	}
	p := progs.Get(name)
	if p == nil {
		return program{}, fmt.Errorf("unknown corpus program %q", name)
	}
	return program{name, p.Source}, nil
}

// corpusNames is every hand-written program: the corpus minus the
// generated switch.
func corpusNames() []string {
	var names []string
	for _, n := range progs.Names() {
		if n != "switch" {
			names = append(names, n)
		}
	}
	return names
}

func verifyConfig(workers int) driver.Config {
	cfg := driver.DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// fastest keeps, per program, the shortest verification seen: the verify
// workloads' slices (see meter.quietest for why the fastest counts).
type fastest map[string]time.Duration

func (f fastest) note(name string, d time.Duration) {
	if seen, ok := f[name]; !ok || d < seen {
		f[name] = d
	}
}

// sum is an operation put together from every program's fastest
// verification.
func (f fastest) sum() time.Duration {
	var t time.Duration
	for _, d := range f {
		t += d
	}
	return t
}

// runVerifySwitch times the full compile-time loop on one large generated
// program, cold as a user runs it. The verifier itself has nothing to set
// up, and generating the program takes microseconds, so set-up is what the
// harness does to have a duration worth reporting: it verifies the small
// sizes.warmProg setUps times, scored like any other verification, and
// reports the fastest.
func runVerifySwitch(p params, m *meter, tr *tracer) error {
	pg, err := loadProgram(p.size.verifyProg)
	if err != nil {
		return err
	}
	warm, err := loadProgram(p.size.warmProg)
	if err != nil {
		return err
	}
	want, err := expectedRows()
	if err != nil {
		return err
	}
	setup := fastest{}
	for i := 0; i < setUps; i++ {
		t0 := time.Now()
		verifyOne(warm, verifyConfig(p.workers), want, m, nil, 0, nil)
		setup.note(warm.name, time.Since(t0))
	}
	m.note("set-up is one verification of %s (fastest of %d)", warm.name, setUps)
	return verifyLoop(p, m, tr, want, setup.sum(), []program{pg}, nil)
}

// warmUps is how many untimed passes verify-corpus makes first.
const warmUps = 3

// runVerifyCorpus times passes over the hand-written corpus in a
// seed-shuffled order. The first warmUps passes are warm-up and count as
// set-up: setup_s is a pass put together from each program's fastest
// verification among them.
func runVerifyCorpus(p params, m *meter, tr *tracer) error {
	var corpus []program
	for _, name := range p.size.corpus {
		pg, err := loadProgram(name)
		if err != nil {
			return err
		}
		corpus = append(corpus, pg)
	}
	want, err := expectedRows()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(p.seed))
	shuffle := func() { rng.Shuffle(len(corpus), func(i, j int) { corpus[i], corpus[j] = corpus[j], corpus[i] }) }
	setup := fastest{}
	for i := 0; i < warmUps; i++ {
		shuffle()
		for _, pg := range corpus {
			t0 := time.Now()
			verifyOne(pg, verifyConfig(p.workers), want, newMeter(), nil, 0, nil) // unscored: the timed passes check the same rows
			setup.note(pg.name, time.Since(t0))
		}
	}
	m.note("first %d passes over the %d programs excluded from timing as warm-up (they are the set-up)", warmUps, len(corpus))
	return verifyLoop(p, m, tr, want, setup.sum(), corpus, shuffle)
}

// verifyLoop runs operations (one driver.Run of every program in batch)
// until the clock or the operation cap runs out, checking every row
// against the reference. In a traced run every second operation is
// traced (params.traced): driver.Run gets a span to hang its phases
// under and a registry to count into, both through its existing Config
// fields, and the per-layer metrics are those operations' averages.
func verifyLoop(p params, m *meter, tr *tracer, want map[string]row, setup time.Duration, batch []program, reorder func()) error {
	plain := verifyConfig(p.workers)
	observed := plain
	observed.Obs = obs.NewRegistry()
	var vs verifySizes
	setupDone(m)
	gs := startGoStats()
	var ops []time.Duration
	quiet := fastest{}
	start := time.Now()
	for p.more(len(ops), start) {
		if reorder != nil {
			reorder()
		}
		cfg, opTr := plain, (*tracer)(nil)
		if p.traced(len(ops)) {
			cfg, opTr = observed, tr
		}
		opStart := time.Now()
		for _, pg := range batch {
			pgStart := time.Now()
			verifyOne(pg, cfg, want, m, opTr, len(ops), &vs)
			quiet.note(pg.name, time.Since(pgStart))
		}
		ops = append(ops, time.Since(opStart))
	}
	timed := time.Since(start)
	// The slice of a verify workload is one program's verification: op_ms is
	// an operation made of every program's fastest one, and work_per_s the
	// programs of that operation over its time.
	op := quiet.sum()
	m.note("timed region: %d operations of %d program(s) in %.3fs; op_ms is the sum of each program's fastest verification, work_per_s the programs over that time", len(ops), len(batch), timed.Seconds())
	m.note("over the whole timed region (printed, not gated): op p50 = %.6f ms, p90 = %.6f ms, %.3f programs per second", ms(quantile(ops, 0.50)), ms(quantile(ops, 0.90)), float64(len(ops)*len(batch))/timed.Seconds())
	if err := m.endToEnd(setup, op, float64(len(batch))/op.Seconds()); err != nil {
		return err
	}
	if tr != nil {
		gs.report(m, len(ops))
		untraced, traced := p.split(ops)
		vs.report(m, tr, observed.Obs, len(traced), p.workers)
		reportOverhead(m, untraced, traced)
	}
	return nil
}

// verifyOne verifies one program with driver.Run and scores its row
// against the reference. With a tracer, the phases driver.Run records
// under cfg.Trace are filed under a harness span around the call, and
// the sizes its Result carries are added to vs.
func verifyOne(pg program, cfg driver.Config, want map[string]row, m *meter, tr *tracer, run int, vs *verifySizes) {
	m.attempted++
	if tr != nil {
		cfg.Trace = obs.StartSpan(pg.name)
	}
	sp := tr.begin("driver.run", -1, run)
	res, err := driver.Run(pg.name, pg.src, cfg)
	tr.end(sp)
	var got row
	if err == nil {
		got = rowOf(res)
		if tr != nil {
			tr.adopt(cfg.Trace, sp, run)
			vs.add(res)
		}
	}
	switch exp, known := want[pg.name]; {
	case err != nil:
		m.fail("%s: %v", pg.name, err)
	case !known:
		m.fail("%s: no reference row in expected/table1.json", pg.name)
	case got != exp:
		m.fail("%s: got %v, reference %v", pg.name, got, exp)
	}
}

// verifySizes sums, over the traced operations, the sizes and counts a
// driver.Result carries. Those of the IR, the analysis pre-pass and the
// bug search are the initial program's; the rebuild rounds' share of the
// solver work is in the registry counters.
type verifySizes struct {
	nodes, bugNodes       int
	sliceKept, sliceTotal int
	bugChecks, discharged int
	checks, reachable     int
	cnfVars, cnfClauses   int
	keysAdded, rounds     int
}

func (vs *verifySizes) add(res *driver.Result) {
	vs.nodes += len(res.Initial.IR.Nodes)
	vs.bugNodes += len(res.Initial.IR.Bugs)
	vs.sliceKept += res.Initial.SliceStats.SliceInstructions
	vs.sliceTotal += res.Initial.SliceStats.TotalInstructions
	vs.bugChecks += res.Analysis.Stats.BugChecks
	vs.discharged += res.Analysis.Stats.Discharged
	vs.checks += res.InitialRep.Checks
	vs.reachable += res.Bugs
	vs.cnfVars += res.InitialRep.CNFVars
	vs.cnfClauses += res.InitialRep.CNFClauses
	vs.keysAdded += res.KeysAdded
	vs.rounds += res.Rounds
}

// report turns driver.Run's own phase spans, the sizes in its results and
// the registry counters into the verifier's per-layer metrics, each per
// traced operation (one switch verification, one corpus pass).
func (vs *verifySizes) report(m *meter, tr *tracer, reg *obs.Registry, ops, workers int) {
	per := func(v int64) float64 { return float64(v) / float64(ops) }
	share := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	// driver.Run's top-level phases. The initial compile splits into the
	// frontend and the rest; a rebuild round is reported whole, its own
	// compile, bug search and inference included.
	phase := func(names ...string) int64 { return tr.sum(append([]string{"driver.run"}, names...)...) }
	frontend := phase("compile", "parse") + phase("compile", "typecheck")
	layers := map[string]int64{
		"p4.frontend_ns":    frontend,
		"core.compile_ns":   phase("compile") - frontend,
		"analysis.ns":       phase("analysis"),
		"core.findbugs_ns":  phase("findbugs"),
		"infer.ns":          phase("inference"),
		"fixes.ns":          phase("fixes"),
		"driver.rebuild_ns": phase("rebuild"),
	}
	self := phase()
	for metric, ns := range layers {
		m.set(metric, per(ns))
		self -= ns
	}
	m.set("driver.self_ns", per(self))
	m.set("driver.rounds", per(int64(vs.rounds)))
	m.set("ir.nodes", per(int64(vs.nodes)))
	m.set("ir.bug_nodes", per(int64(vs.bugNodes)))
	m.set("slice.kept_share", share(int64(vs.sliceKept), int64(vs.sliceTotal)))
	m.set("analysis.discharged", per(int64(vs.discharged)))
	m.set("analysis.discharge_share", share(int64(vs.discharged), int64(vs.bugChecks)))
	m.set("core.checks", per(int64(vs.checks)))
	m.set("core.reachable", per(int64(vs.reachable)))
	m.set("fixes.keys_added", per(int64(vs.keysAdded)))
	m.set("bitblast.cnf_vars", per(int64(vs.cnfVars)))
	m.set("bitblast.cnf_clauses", per(int64(vs.cnfClauses)))

	m.set("infer.calls", per(reg.CounterValue("bf4_infer_calls_total")))
	m.set("infer.instances", per(reg.CounterValue("bf4_pool_infer_tasks_total")))
	// Busy time of the Infer fan-out's workers over the wall-clock of its
	// phase (initial and rebuild) times the workers it had.
	m.set("pool.infer_busy_share", share(reg.CounterValue("bf4_pool_infer_busy_ns_total"), reg.CounterValue("bf4_phase_infer_ns_total")*int64(workers)))
	for metric, counter := range map[string]string{
		"solver.checks":              "bf4_solver_checks_total",
		"solver.search_ns":           "bf4_solver_search_ns_total",
		"solver.blast_ns":            "bf4_solver_blast_ns_total",
		"sat.decisions":              "bf4_solver_decisions_total",
		"sat.conflicts":              "bf4_solver_conflicts_total",
		"sat.propagations":           "bf4_solver_propagations_total",
		"sat.restarts":               "bf4_solver_restarts_total",
		"sat.learned":                "bf4_solver_learned_clauses_total",
		"sat.inprocess_elim_vars":    "bf4_solver_inprocess_elim_vars_total",
		"sat.inprocess_subsumed":     "bf4_solver_inprocess_subsumed_total",
		"sat.inprocess_strengthened": "bf4_solver_inprocess_strengthened_total",
		"bitblast.gate_hits":         "bf4_solver_gate_hits_total",
	} {
		m.set(metric, per(reg.CounterValue(counter)))
	}
	m.set("sat.decisions_per_check", share(reg.CounterValue("bf4_solver_decisions_total"), reg.CounterValue("bf4_solver_checks_total")))
}
