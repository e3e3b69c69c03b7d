package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A result set is a directory of run outputs, one file per run, named
// <workload>-<seed>.txt and holding the run's standard output; the last
// line is the result line. sweep writes one; compare reads two.

// sweepMain runs every workload once per seed and writes a result set.
func sweepMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runs := fs.Int("runs", 10, "seeds per workload")
	first := fs.Int64("first-seed", 1, "first seed")
	out := fs.String("out", "", "result-set directory")
	only := fs.String("workloads", "", "comma-separated workloads (default: those BENCHMARK.json declares)")
	seconds := fs.Int("seconds", 0, "run length (0 = run_seconds in BENCHMARK.json)")
	self := fs.String("bench", os.Args[0], "benchmark binary")
	flowd := fs.String("flowd", "", "flowd binary")
	scratch := fs.String("scratch", os.TempDir(), "scratch directory")
	if err := fs.Parse(args); err != nil || *out == "" {
		fmt.Fprintln(stderr, "usage: e2ebench sweep --out <dir> [--runs n] [--first-seed s] [--workloads a,b]")
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *only == "" {
		var names []string
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
		*only = strings.Join(names, ",")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}
	for _, w := range strings.Split(*only, ",") {
		for i := range *runs {
			seed := *first + int64(i)
			cmd := exec.Command(*self, "-flowd", *flowd, "-scratch", *scratch, "--workload", w,
				"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(*seconds), "--trace", "0")
			cmd.Stderr = stderr
			b, err := cmd.Output()
			path := filepath.Join(*out, fmt.Sprintf("%s-%d.txt", w, seed))
			if werr := os.WriteFile(path, b, 0o644); werr != nil {
				fmt.Fprintln(stderr, "sweep:", werr)
				return 1
			}
			if err != nil {
				fmt.Fprintf(stderr, "sweep: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			fmt.Fprintf(stdout, "%s seed %d done\n", w, seed)
		}
	}
	return 0
}

// benchSpec is the part of BENCHMARK.json sweep and compare need.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// resultSet maps workload → metric → values, one per run.
type resultSet map[string]map[string][]float64

// loadResults reads a result-set directory.
func loadResults(dir string) (resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return nil, err
	}
	rs := resultSet{}
	for _, p := range paths {
		base := strings.TrimSuffix(filepath.Base(p), ".txt")
		i := strings.LastIndex(base, "-")
		if i < 0 {
			continue
		}
		line, err := lastLine(p)
		if err != nil {
			return nil, err
		}
		var r resultLine
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: last line: %w", p, err)
		}
		w := base[:i]
		if rs[w] == nil {
			rs[w] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			rs[w][name] = append(rs[w][name], m.Value)
		}
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("%s holds no results", dir)
	}
	return rs, nil
}

func lastLine(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	last := ""
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	return last, sc.Err()
}

// compareMain prints, per workload and end-to-end metric, each set's
// median and quartiles, each set's spread (interquartile distance over
// the median), and whether the two agree: the second median is not
// worse than the first by more than the metric's bound, and, setup_s
// aside, both spreads are within it. It exits 1 when any pair does not
// agree.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: e2ebench compare [--spec BENCHMARK.json] <set-a> <set-b>")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	a, err := loadResults(fs.Arg(0))
	if err == nil {
		var b resultSet
		b, err = loadResults(fs.Arg(1))
		if err == nil {
			if !compareSets(stdout, spec, a, b) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(stderr, "compare:", err)
	return 1
}

// compareSets writes the comparison table and reports whether every
// pair agrees.
func compareSets(w io.Writer, spec *benchSpec, a, b resultSet) bool {
	var names []string
	for wl := range a {
		names = append(names, wl)
	}
	sort.Strings(names)
	ok := true
	fmt.Fprintf(w, "%-12s %-20s %8s | %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %s\n",
		"workload", "metric", "bound", "A q1", "A median", "A q3", "spread", "B q1", "B median", "B q3", "spread", "change", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			av, bv := a[wl][m.Name], b[wl][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-12s %-20s missing in one set\n", wl, m.Name)
				ok = false
				continue
			}
			a1, a2, a3 := quartiles(av)
			b1, b2, b3 := quartiles(bv)
			sa, sb := (a3-a1)/a2, (b3-b1)/b2
			change := (b2 - a2) / a2
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "agree"
			switch {
			case worse > m.Bound:
				verdict = "B worse beyond bound"
			case sa > m.Bound || sb > m.Bound:
				verdict = "spread beyond bound"
			}
			if verdict != "agree" {
				ok = false
			}
			fmt.Fprintf(w, "%-12s %-20s %8.2f | %12.4f %12.4f %12.4f %7.3f | %12.4f %12.4f %12.4f %7.3f | %+6.1f%% %s\n",
				wl, m.Name, m.Bound, a1, a2, a3, sa, b1, b2, b3, sb, 100*change, verdict)
		}
	}
	return ok
}
