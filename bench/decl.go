package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchDecl is BENCHMARK.json: the one place metric names, units and
// regression bounds are declared. The harness emits exactly these names.
type benchDecl struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadDecl finds BENCHMARK.json in the working directory (go run ./bench
// from the repository root) or its parent (go test inside bench/) and
// returns the root it was found in.
func loadDecl() (root string, decl *benchDecl, err error) {
	for _, root = range []string{".", ".."} {
		data, rerr := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if rerr != nil {
			continue
		}
		decl = &benchDecl{}
		if err := json.Unmarshal(data, decl); err != nil {
			return "", nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return root, decl, nil
	}
	return "", nil, fmt.Errorf("BENCHMARK.json not found: run from the repository root")
}

func (d *benchDecl) workload(name string) *workloadDecl {
	for i := range d.Workloads {
		if d.Workloads[i].Name == name {
			return &d.Workloads[i]
		}
	}
	return nil
}

func (d *benchDecl) workloadNames() []string {
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// onPath lists, per workload, the module prefixes of the per-layer
// metrics its timed region exercises. A declared metric of any other
// module is reported as 0 on that workload (the layer is not on its
// path); a declared metric of an on-path module that the workload did
// not measure is a harness error, as is a measured but undeclared one.
var onPath = map[string][]string{
	"verify-switch":    verifierModules,
	"verify-corpus":    verifierModules,
	"shim-validate":    {"shim.", "go.", "trace."},
	"shim-wire-insert": shimModules,
	"shim-wire-batch":  shimModules,
}

var (
	verifierModules = []string{"p4.", "core.", "ir.", "slice.", "analysis.", "infer.", "pool.", "fixes.", "driver.",
		"solver.", "sat.", "bitblast.", "go.", "trace."}
	shimModules = []string{"p4runtime.", "shim.", "shard.", "journal.", "checkpoint.", "request.", "recovery.", "go.", "trace."}
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result selects the metrics of the run's mode (end-to-end when
// untraced, per-layer when traced) and checks them against the
// declaration: none missing, none undeclared, none non-finite.
func (d *benchDecl) result(p params, m *meter) (*resultLine, error) {
	declared := map[string]bool{}
	for _, md := range append(append([]metricDecl{}, d.EndToEnd...), d.PerLayer...) {
		declared[md.Name] = true
	}
	for name := range m.values {
		if !declared[name] {
			return nil, fmt.Errorf("workload %s measured %q, which BENCHMARK.json does not declare", p.workload, name)
		}
	}
	set := d.EndToEnd
	if p.trace {
		set = d.PerLayer
	}
	line := &resultLine{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	for _, md := range set {
		v, ok := m.values[md.Name]
		if !ok {
			if !p.trace || hasAnyPrefix(md.Name, onPath[p.workload]) {
				return nil, fmt.Errorf("workload %s did not measure declared metric %q", p.workload, md.Name)
			}
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s: metric %q is %v", p.workload, md.Name, v)
		}
		line.Metrics[md.Name] = metricValue{Value: v, Unit: md.Unit}
	}
	if line.Attempted < 1 {
		return nil, fmt.Errorf("workload %s attempted no operation", p.workload)
	}
	return line, nil
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// meter collects what one workload run measured.
type meter struct {
	values    map[string]float64
	notes     []string
	attempted int64
	failed    int64
	failures  []string // the first few mismatches, for the report
	procs     int      // GOMAXPROCS the timed region ran under
}

func newMeter() *meter { return &meter{values: map[string]float64{}} }

func (m *meter) set(name string, v float64) { m.values[name] = v }

func (m *meter) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation: a wrong verdict, a wrong
// accept/reject decision, a lost acknowledged write, a run error.
func (m *meter) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 10 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// slice is a stretch of the timed region that does a fixed piece of
// work, the same in every slice of a run: one wire round, a group of
// sessions, every corpus program once.
type slice struct {
	ops  []time.Duration // what each of its operations took
	took time.Duration   // its wall-clock
	work int64           // the units of work it completed
}

// cut groups consecutive operations of identical work, run back to back,
// into slices of n (the last one shorter).
func cut(ops []time.Duration, n int, workPerOp int64) []slice {
	var out []slice
	for ; len(ops) > 0; ops = ops[min(n, len(ops)):] {
		part := ops[:min(n, len(ops))]
		out = append(out, slice{ops: part, took: sum(part), work: workPerOp * int64(len(part))})
	}
	return out
}

// quietest picks, from the slices of a timed region, the lowest median
// operation time any slice had and the highest rate, and notes the whole
// region's figures beside them. On this kind of host the same work flips,
// every second or so, between a fast state and one a third slower
// (README.md, "Why the quietest slice"); interference only ever slows, and
// what share of a run it takes is the neighbours' business, while the
// fast state is the program's.
func (m *meter) quietest(slices []slice) (op time.Duration, rate float64) {
	var all []time.Duration
	var took time.Duration
	var work int64
	for i, s := range slices {
		all, took, work = append(all, s.ops...), took+s.took, work+s.work
		if p50 := quantile(s.ops, 0.50); i == 0 || p50 < op {
			op = p50
		}
		rate = max(rate, float64(s.work)/s.took.Seconds())
	}
	m.note("timed region: %d operations, %d units of work in %.3fs, cut into %d slices of equal work; op_ms is the lowest median operation time of any slice, work_per_s the highest rate", len(all), work, took.Seconds(), len(slices))
	m.note("over the whole timed region (printed, not gated): op p50 = %.6f ms, p90 = %.6f ms, %.3f units of work per second", ms(quantile(all, 0.50)), ms(quantile(all, 0.90)), float64(work)/took.Seconds())
	return op, rate
}

// endToEnd is called the moment the timed region ends and sets the
// metrics every workload reports. peak_rss_mb is read here, before the
// harness's own correctness replays and snapshot comparisons can raise
// the high-water mark.
func (m *meter) endToEnd(setup, op time.Duration, rate float64) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	m.procs = runtime.GOMAXPROCS(0)
	m.set("peak_rss_mb", rss)
	m.set("setup_s", setup.Seconds())
	m.set("op_ms", ms(op))
	m.set("work_per_s", rate)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// quantile is the nearest-rank q-quantile of the samples (0 for none; the
// smallest sample for q = 0).
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sum(samples []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range samples {
		t += d
	}
	return t
}

// peakRSSMB is the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// setupDone marks the end of set-up for memory: it returns freed heap to
// the OS and resets the kernel's high-water mark, so that peak_rss_mb is
// the peak of the timed region and teardown (what the serving process
// holds), with the set-up's transient peak noted beside it. Where the
// kernel refuses the reset, peak_rss_mb covers the whole process.
func setupDone(m *meter) {
	setupPeak, err := peakRSSMB()
	debug.FreeOSMemory()
	if err == nil {
		err = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	}
	if err != nil {
		m.note("peak RSS not reset after set-up (%v): peak_rss_mb includes set-up", err)
		return
	}
	m.note("set-up peak RSS %.1f MB, reset before the timed region: peak_rss_mb excludes it", setupPeak)
}

// goStats reports the Go runtime's work over the timed region.
type goStats struct{ before runtime.MemStats }

func startGoStats() *goStats {
	g := &goStats{}
	runtime.ReadMemStats(&g.before)
	return g
}

func (g *goStats) report(m *meter, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.set("go.alloc_mb", float64(after.TotalAlloc-g.before.TotalAlloc)/(1<<20)/float64(max(ops, 1)))
	m.set("go.num_gc", float64(after.NumGC-g.before.NumGC))
	m.set("go.gc_pause_ms", float64(after.PauseTotalNs-g.before.PauseTotalNs)/1e6)
}

// runRecord is one run as stored by -out; runFile is what compare reads.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	resultLine
}

type runFile struct {
	Header map[string]string `json:"header"`
	Runs   []runRecord       `json:"runs"`
}

// appendRun adds rec to the run file at path, creating it (with a header
// describing the machine and the run) when absent.
func appendRun(path, stateDir string, procs int, rec runRecord) error {
	var rf runFile
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case os.IsNotExist(err):
		rf.Header = envHeader(stateDir, procs)
	default:
		return err
	}
	rf.Runs = append(rf.Runs, rec)
	data, err = json.MarshalIndent(&rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// envHeader records what a reader needs to judge whether two run files
// are comparable: cores, the GOMAXPROCS the timed region ran under (the
// wire workloads lower it), Go version, commit, and the filesystem the
// journal's fsync lands on.
func envHeader(stateDir string, procs int) map[string]string {
	h := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(procs),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"state_fs":   fsType(stateDir),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h["commit"] = strings.TrimSpace(string(out))
	}
	return h
}

// fsType is the filesystem type of the mount holding dir, from
// /proc/self/mountinfo (longest mount-point prefix wins).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		// "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> <superopts>"
		left, right, ok := strings.Cut(line, " - ")
		lf, rf := strings.Fields(left), strings.Fields(right)
		if !ok || len(lf) < 5 || len(rf) < 1 {
			continue
		}
		mp := lf[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, rf[0]
		}
	}
	return typ
}
