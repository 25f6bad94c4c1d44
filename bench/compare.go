package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// compareMain implements "bench compare A B": A and B are run files
// written by -out, or directories of them. For every workload and
// end-to-end metric it prints one row — each side's min and median, how
// much worse B's median is, the bound BENCHMARK.json fixes — and a
// verdict: ok, REGRESSION (worse by more than the bound), unresolved
// (either side's own run-to-run spread exceeds the bound, unless every
// run of B beats every run of A), or FAILED (a run was incorrect). A
// declared workload with runs on one side only gets a MISSING row: the
// other side crashed before writing its record, or was never run.
// It exits 1 on any REGRESSION, FAILED or MISSING row.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.json B.json   (or two directories of run files)")
		return 2
	}
	_, decl, err := loadDecl()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := loadRuns(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := loadRuns(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareRuns(decl, a, b, stdout)
}

// loadRuns reads the untraced runs of one run file, or of every *.json
// in a directory, grouped by workload.
func loadRuns(path string) (map[string][]runRecord, error) {
	files := []string{path}
	if info, err := os.Stat(path); err != nil {
		return nil, err
	} else if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	runs := map[string][]runRecord{}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		for _, r := range rf.Runs {
			if r.Trace == 0 {
				runs[r.Workload] = append(runs[r.Workload], r)
			}
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no untraced run", path)
	}
	return runs, nil
}

func compareRuns(decl *benchDecl, a, b map[string][]runRecord, stdout io.Writer) int {
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA min\tA median\tB min\tB median\tworse by\tbound\tverdict")
	bad := false
	for _, w := range decl.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(tw, "%s\t(%d runs in A, %d in B)\t\t\t\t\t\t\t\tMISSING\n", w.Name, len(ra), len(rb))
			bad = true
			continue
		}
		incorrect := false
		for _, r := range append(append([]runRecord{}, ra...), rb...) {
			incorrect = incorrect || !r.Correct
		}
		for _, md := range decl.EndToEnd {
			va, vb := values(ra, md.Name), values(rb, md.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// Orient so that larger is worse for every metric.
			worse := (mb - ma) / ma
			bBeatsA := vb[len(vb)-1] < va[0]
			if md.Better == "higher" {
				worse = (ma - mb) / ma
				bBeatsA = vb[0] > va[len(va)-1]
			}
			verdict := "ok"
			switch {
			case incorrect:
				verdict, bad = "FAILED", true
			case (spread(va) > md.Bound || spread(vb) > md.Bound) && !bBeatsA:
				verdict = "unresolved"
			case worse > md.Bound:
				verdict, bad = "REGRESSION", true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, md.Name, md.Unit, va[0], ma, vb[0], mb, 100*worse, 100*md.Bound, verdict)
		}
	}
	tw.Flush()
	if bad {
		return 1
	}
	return 0
}

// values returns the sorted values of one metric across runs.
func values(runs []runRecord, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			vs = append(vs, v.Value)
		}
	}
	sort.Float64s(vs)
	return vs
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// spread is the run-to-run range as a share of the median.
func spread(sorted []float64) float64 {
	return (sorted[len(sorted)-1] - sorted[0]) / median(sorted)
}
