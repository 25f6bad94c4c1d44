// Command bench is the repository's benchmark: five workloads over the
// offline verifier and the online shim, each checked for correctness and
// reported as the end-to-end and per-layer metrics BENCHMARK.json names.
//
//	go run ./bench -workload verify-corpus            # one workload, end-to-end metrics
//	go run ./bench -workload shim-wire-insert -trace 1  # per-layer metrics + span file
//	go run ./bench -workload all -out bench/out/runs  # every workload, one child process each
//	go run ./bench compare A.json B.json              # judge B against A by the declared bounds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for what each
// workload and metric means.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name from BENCHMARK.json, or all")
	seed := fs.Int64("seed", 1, "seed for the generated inputs (update trace, corpus order)")
	seconds := fs.Float64("seconds", 0, "length of the timed region (default: run_seconds from BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "append the run to this JSON file (with -workload all: to <dir>/<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, decl, err := loadDecl()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(decl.RunSeconds)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *workload == "all" {
		return runAll(decl, *seed, *seconds, *trace, *out, stdout, stderr)
	}
	if decl.workload(*workload) == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (BENCHMARK.json declares %v)\n", *workload, decl.workloadNames())
		return 2
	}

	p := params{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workers:  min(2, runtime.NumCPU()),
		outDir:   filepath.Join(root, "bench", "out"),
		size:     fullSizes[*workload],
	}
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	m, err := runWorkload(p)
	if err != nil {
		// A harness error (not a correctness mismatch): no result line.
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	line, err := decl.result(p, m)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	printReport(stdout, p, m, line)
	if *out != "" {
		rec := runRecord{Workload: p.workload, Seed: p.seed, Trace: *trace, Seconds: p.seconds, resultLine: *line}
		if err := appendRun(*out, p.outDir, m.procs, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	data, _ := json.Marshal(line)
	fmt.Fprintf(stdout, "%s\n", data)
	if !line.Correct {
		return 1
	}
	return 0
}

// runAll runs every declared workload in its own child process, so that
// peak_rss_mb and the Go runtime counters of one workload never include
// another's heap, and prints one summary line per workload.
func runAll(decl *benchDecl, seed int64, seconds float64, trace int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	total := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range decl.Workloads {
		childArgs := []string{"-workload", w.Name,
			"-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace)}
		if out != "" {
			childArgs = append(childArgs, "-out", filepath.Join(out, w.Name+".json"))
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, childArgs...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		start := time.Now()
		runErr := cmd.Run()
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		var line resultLine
		if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s printed no result (%v)\n", w.Name, runErr)
			return 2
		}
		fmt.Fprintf(stdout, "== %s done in %.1fs\n\n", w.Name, time.Since(start).Seconds())
		total.Correct = total.Correct && line.Correct
		total.Attempted += line.Attempted
		total.Failed += line.Failed
		for name, v := range line.Metrics {
			total.Metrics[w.Name+"/"+name] = v
		}
	}
	data, _ := json.Marshal(&total)
	fmt.Fprintf(stdout, "%s\n", data)
	if !total.Correct {
		return 1
	}
	return 0
}

// printReport prints every metric of the run by name with its unit, the
// harness's notes (what was excluded as warm-up, sample counts) and the
// first correctness mismatches.
func printReport(w io.Writer, p params, m *meter, line *resultLine) {
	fmt.Fprintf(w, "workload %s  seed=%d  seconds=%g  trace=%v  workers=%d  timed region on GOMAXPROCS=%d\n", p.workload, p.seed, p.seconds, p.trace, p.workers, m.procs)
	for _, n := range m.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	names := make([]string, 0, len(line.Metrics))
	for name := range line.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := line.Metrics[name]
		fmt.Fprintf(w, "  %-32s %16s %s\n", name, strconv.FormatFloat(v.Value, 'f', -1, 64), v.Unit)
	}
	failedShare := float64(line.Failed) / float64(max(line.Attempted, 1))
	fmt.Fprintf(w, "  %-32s %16s (%d of %d operations)\n", "failed_share", strconv.FormatFloat(failedShare, 'f', -1, 64), line.Failed, line.Attempted)
	for _, f := range m.failures {
		fmt.Fprintf(w, "  MISMATCH: %s\n", f)
	}
}
