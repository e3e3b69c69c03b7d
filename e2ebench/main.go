// Command e2ebench is the end-to-end benchmark of the flow service. It
// runs one named workload against the surfaces designers use — a
// separate flowd process over HTTP (bulk, interactive) or a hercules
// session in process (history) — checks every output, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	e2ebench -flowd <binary> -scratch <dir> --workload bulk --seed 1 --seconds 30 --trace 0
//	e2ebench sweep --runs 10 --out <dir>     ten seeds per declared workload, one file per run
//	e2ebench compare <dir-a> <dir-b>          medians, quartiles and bound checks
//
// With --trace 0 the run measures the end-to-end metrics with no
// instrumentation in the way. With --trace 1 it composes the layers in
// process, records a span around every call into a layer's public API,
// and reports the per-layer metrics instead (traced.go). NOTES.md says
// why each workload exists and which layers it loads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef declares one reported metric. The lists below are the
// benchmark's contract with BENCHMARK.json (main_test.go keeps the two
// in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with --trace 0, each from operations it makes
// (NOTES.md has the table).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "units/s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"recover_s", "s"},
	{"run_p50_ms", "ms"},
	{"run_p99_ms", "ms"},
	{"rss_mb", "MB"},
}

// ownMetrics are end-to-end metrics of operations only some workloads
// make. The workloads that make them print them in the table; they are
// not on the result line, which carries the same metrics for every
// workload.
var ownMetrics = []metricDef{
	{"retrace_p50_ms", "ms"},
	{"retrace_p99_ms", "ms"},
	{"stale_p50_ms", "ms"},
	{"max_rate_runs_per_s", "runs/s"},
}

// perLayer are the metrics of single layers, named by module; every
// workload reports all of them with --trace 1 (0 where the workload
// does not load the layer).
var perLayer = []metricDef{
	{"service.submit_ms.p50", "ms"},
	{"service.stream_bytes_per_unit", "B/unit"},
	{"service.query_bytes.p50", "B"},
	{"service.refused", "count"},
	{"service.rss_per_run_kb", "kB"},
	{"harness.materialize_ms.p50", "ms"},
	{"exec.plan_ms.p50", "ms"},
	{"exec.dispatch_ms.p50", "ms"},
	{"exec.queue_wait_us.p50", "us"},
	{"exec.queue_wait_us.p99", "us"},
	{"exec.worker_busy_frac", "ratio"},
	{"exec.self_s", "s"},
	{"exec.retrace_ms.p50", "ms"},
	{"exec.retrace_rebuilt.p50", "count"},
	{"exec.retrace_rebuilt.max", "count"},
	{"exec.retrace_overbuilt", "count"},
	{"encap.tool_calls", "count"},
	{"encap.tool_s", "s"},
	{"history.commits", "count"},
	{"history.instances", "count"},
	{"history.stale_ms.p50", "ms"},
	{"history.plan_retrace_ms.p50", "ms"},
	{"provenance.index_commit_us", "us"},
	{"provenance.chain_commit_us", "us"},
	{"provenance.chain_sync_ms.p50", "ms"},
	{"provenance.query_us.p50", "us"},
	{"provenance.answer_nodes.p50", "count"},
	{"storage.wal_appends", "count"},
	{"storage.wal_bytes_per_unit", "B/unit"},
	{"storage.chain_bytes_per_unit", "B/unit"},
	{"storage.wal_append_s", "s"},
	{"storage.wal_syncs", "count"},
	{"storage.wal_sync_ms.p50", "ms"},
	{"storage.barrier_ms.p50", "ms"},
	{"storage.files_per_run", "count"},
	{"storage.recover_ms", "ms"},
	{"memo.lookups", "count"},
	{"memo.hit_ratio", "ratio"},
	{"trace.events_per_unit", "count"},
	{"trace.emit_us", "us"},
	{"datastore.blobs", "count"},
	{"datastore.bytes", "B"},
	{"runtime.alloc_bytes_per_unit", "B/unit"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.lag_ms.p99", "ms"},
	{"loadgen.inflight_max", "count"},
	{"bench.unattributed_frac", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}

// workloads maps each workload name to the function that runs it end to end.
var workloads = map[string]func(*env) (*report, error){
	"bulk":        runBulk,
	"interactive": runInteractive,
	"history":     runHistory,
}

// env is what one run is given: the workload's inputs come from seed
// alone, its size from seconds.
type env struct {
	workload string
	seed     int64
	seconds  int
	flowd    string // flowd binary
	scratch  string // private directory for data dirs and saved sessions
	workers  int    // flowd -workers, and the in-process pool size
	corpus   string // scenario corpus directory
	tiny     bool   // self-test sizes
	log      io.Writer
}

// phase is a share of the run length.
func (e *env) phase(frac float64) time.Duration {
	return time.Duration(frac * float64(e.seconds) * float64(time.Second))
}

// bulkCells is the size of one bulk scenario.
func (e *env) bulkCells() int {
	if e.tiny {
		return 200
	}
	return bulkCells
}

// nominalRuns is how many runs the nominal ladder step offers.
func (e *env) nominalRuns() int {
	if e.tiny {
		return 40
	}
	return nominalRuns
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the exit, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "sweep":
			return sweepMain(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	e := &env{log: stderr, workers: runtime.NumCPU()}
	fs.StringVar(&e.workload, "workload", "", "workload: bulk, interactive or history")
	fs.Int64Var(&e.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&e.seconds, "seconds", 20, "run length; sizes each workload's work")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&e.flowd, "flowd", "", "flowd binary")
	fs.StringVar(&e.scratch, "scratch", os.TempDir(), "directory for data dirs and saved sessions")
	fs.BoolVar(&e.tiny, "tiny", false, "self-test sizes")
	fs.StringVar(&e.corpus, "corpus", filepath.Join("testdata", "scenarios"), "scenario corpus directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if workloads[e.workload] == nil {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want bulk, interactive or history)\n", e.workload)
		return 2
	}
	if e.seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	if e.workload != "history" && e.flowd == "" {
		fmt.Fprintln(stderr, "e2ebench: -flowd is required for the flowd workloads")
		return 2
	}

	dir, err := os.MkdirTemp(e.scratch, "e2ebench-")
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	e.scratch = dir
	defer os.RemoveAll(dir)
	defer stopAllFlowd()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAllFlowd()
		os.RemoveAll(dir)
		os.Exit(3)
	}()

	var rep *report
	if *traced == 1 {
		rep, err = runTraced(e)
	} else {
		rep, err = workloads[e.workload](e)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", e.workload, err)
		return 1
	}
	defs, own := endToEnd, ownMetrics
	if *traced == 1 {
		defs, own = perLayer, nil
	}
	if err := rep.print(stdout, e, defs, own); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// report is one run's outcome: the metrics it measured plus the tally
// of checked operations.
type report struct {
	tally
	values map[string]float64
	notes  map[string]string // how a value was taken, e.g. "p99 of 1043"
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// setDist reports a sample set's median under p50 and its highest
// percentile with at least ten samples beyond it under hi.
func (r *report) setDist(p50, hi string, s samples) {
	r.set(p50, s.pct(50), fmt.Sprintf("median of %d", len(s)))
	if hi != "" {
		label, v := s.upper()
		r.set(hi, v, fmt.Sprintf("%s of %d", label, len(s)))
	}
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the human-readable table and then the result line. A
// declared metric the workload did not produce is an error: the result
// line always carries every declared metric. The own metrics the
// workload produced go in the table only.
func (r *report) print(w io.Writer, e *env, defs, own []metricDef) error {
	line := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	line.Correct = r.failed == 0 && r.attempted > 0
	var missing []string
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d\n", e.workload, e.seed, e.seconds)
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		line.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-32s %14.4f %-8s %s\n", d.name, v, d.unit, r.notes[d.name])
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("workload %s did not produce %s", e.workload, strings.Join(missing, ", "))
	}
	for _, d := range own {
		if v, ok := r.values[d.name]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %-8s %s\n", d.name, v, d.unit, r.notes[d.name])
		}
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-32s %14.6f %-8s %d of %d operations\n", "failed_frac", frac, "ratio", r.failed, r.attempted)
	for _, n := range r.failures {
		fmt.Fprintln(w, "  failure:", n)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// tally counts checked operations. A wrong answer counts as a failure
// just as an error or a refusal does. Concurrent runs share one.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	failures          []string // the first few, for the log
}

// check records one operation; ok false counts it failed.
func (t *tally) check(ok bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.failures) < 10 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// checkErr records one operation that failed when err is non-nil.
func (t *tally) checkErr(err error, what string) {
	t.check(err == nil, "%s: %v", what, err)
}
