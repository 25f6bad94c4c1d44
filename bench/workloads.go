package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// params is one invocation: which workload, on which inputs, for how long.
type params struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed region
	trace    bool
	workers  int    // verifier workers and load-generating connections: min(2, nproc)
	outDir   string // span files, journal state dirs and the stored annotation file go here
	size     sizes
}

// more reports whether the timed region that began at start, with done
// operations behind it, runs another: always a first one (a traced run,
// one of each kind), then until the clock or the operation cap runs out.
func (p params) more(done int, start time.Time) bool {
	if done == 0 || (p.trace && done == 1) {
		return true
	}
	return time.Since(start).Seconds() < p.seconds && (p.size.maxOps == 0 || done < p.size.maxOps)
}

// traced reports whether operation n of an in-process workload's timed
// region is traced. A traced run traces every second operation and
// leaves the others exactly as an untraced run has them, so that one run
// yields both medians trace.overhead_share compares. The seed's parity
// decides which kind goes first: where a run holds one pair, the second
// operation of a process reads a few percent slower whichever it is.
func (p params) traced(n int) bool { return p.trace && (int64(n)+p.seed)&1 == 0 }

// split separates a traced run's operation times by params.traced.
func (p params) split(ops []time.Duration) (untraced, traced []time.Duration) {
	for n, d := range ops {
		if p.traced(n) {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
	}
	return untraced, traced
}

// sizes fixes a workload's inputs. fullSizes is what the benchmark runs;
// bench_test.go shrinks them to run every workload in seconds.
type sizes struct {
	verifyProg string   // verify-switch: the program the timed region verifies
	warmProg   string   // verify-switch: the small program whose verification is the set-up
	corpus     []string // verify-corpus: the programs of one pass
	specProg   string   // shim-*: the program whose inferred annotations the shim enforces
	session    int      // shim-validate: updates per controller session (fresh shadow state each)
	batch      int      // shim-wire-*: updates per request frame
	round      int      // shim-wire-*: request frames per round (each round on a fresh stack and an empty state)
	compact    int      // shim-wire-*: journal records between checkpoints (0: the store's default, 4096)
	maxOps     int      // cap on timed operations (shim-wire-*: on timed rounds); 0 = until the clock runs out
}

// A wire round is sized so that the shadow state it builds (a few thousand
// entries) stays within a core's own cache, and so that two checkpoints
// fall inside it.
var fullSizes = map[string]sizes{
	"verify-switch":    {verifyProg: "switch@2", warmProg: "simple_nat"},
	"verify-corpus":    {corpus: corpusNames()},
	"shim-validate":    {specProg: "switch@1", session: 2000},
	"shim-wire-insert": {specProg: "switch@1", batch: 1, round: 4000, compact: 1024},
	"shim-wire-batch":  {specProg: "switch@1", batch: 32, round: 128, compact: 48},
}

// setUps is how often verify-switch repeats its set-up; setup_s is the
// fastest, for the reason op_ms is the quietest slice's (meter.quietest).
const setUps = 9

// runWorkload runs one workload in this process and returns what it
// measured.
func runWorkload(p params) (*meter, error) {
	m := newMeter()
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	var err error
	switch p.workload {
	case "verify-switch":
		err = runVerifySwitch(p, m, tr)
	case "verify-corpus":
		err = runVerifyCorpus(p, m, tr)
	case "shim-validate":
		err = runShimValidate(p, m, tr)
	case "shim-wire-insert", "shim-wire-batch":
		err = runShimWire(p, m, tr)
	default:
		err = fmt.Errorf("workload %q has no implementation", p.workload)
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		path := filepath.Join(p.outDir, p.workload+".trace.json")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		m.note("%d spans written to %s", len(tr.spans), path)
	}
	return m, nil
}
