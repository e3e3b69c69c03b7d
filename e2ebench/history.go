package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/exec"
	"repro/internal/flow"
	"repro/internal/hercules"
	"repro/internal/history"
	"repro/internal/provenance"
)

const (
	// cyclesPerDesign is how many edit→check→retrace cycles each design
	// goes through; as one design opens each round, it is also how many
	// are open at once.
	cyclesPerDesign = 8
	// sessionSetups is how many times a run sets up a session; setup_s is
	// the median. A set-up takes about 2 ms, so a few dozen would all fall
	// in the same fraction of a second and read that moment's machine
	// speed; 400 spread over about a second.
	sessionSetups = 400
)

// design is one designer's design in the shared session.
type design struct {
	k          int
	perf       history.ID // the newest Performance result
	net        history.ID // the newest netlist version
	cycles     int
	firstBuilt int // constructions the design's first retrace rebuilt
}

// historyHooks lets the traced run time the calls the workload makes
// without a second copy of the workload; every hook may be nil.
type historyHooks struct {
	run       func(name string, fn func())
	observeDB func(db *history.DB)
}

func (h *historyHooks) time(name string, fn func()) {
	if h == nil || h.run == nil {
		fn()
		return
	}
	h.run(name, fn)
}

// historySession bootstraps one designer's session and warms it up
// with a throwaway design; it returns the session and the set-up time.
func historySession(h *historyHooks, t *tally) (*hercules.Session, float64, error) {
	t0 := time.Now()
	s := hercules.NewSession("designer")
	if h != nil && h.observeDB != nil {
		h.observeDB(s.DB)
	}
	if err := s.Bootstrap(); err != nil {
		return nil, 0, err
	}
	d := &design{k: -1}
	if err := startDesign(s, d, nil); err != nil {
		return nil, 0, err
	}
	if _, err := cycle(s, d, nil, t); err != nil {
		return nil, 0, err
	}
	return s, time.Since(t0).Seconds(), nil
}

// startDesign runs a design's simulate-netlist flow over its own
// netlist (its own editor instance).
func startDesign(s *hercules.Session, d *design, h *historyHooks) error {
	ed, err := s.Import("NetlistEditor", fmt.Sprintf("design %d netlist editor", d.k), fmt.Sprintf("generate fulladder design-%d", d.k))
	if err != nil {
		return err
	}
	f, err := s.Catalogs.StartFromPlan("simulate-netlist")
	if err != nil {
		return err
	}
	for typ, id := range map[string]history.ID{
		"Simulator": s.Must("sim"), "Stimuli": s.Must("stim.exhaustive3"),
		"NetlistEditor": ed, "DeviceModelEditor": s.Must("dmEd.default"),
	} {
		if err := bindLeaf(f, typ, id); err != nil {
			return err
		}
	}
	var res *exec.Result
	h.time("exec.run", func() { res, err = s.Run(f) })
	if err != nil {
		return err
	}
	for _, ids := range res.Created {
		for _, id := range ids {
			switch s.DB.Get(id).Type {
			case "Performance":
				d.perf = id
			case "EditedNetlist":
				d.net = id
			}
		}
	}
	if d.perf == "" || d.net == "" {
		return fmt.Errorf("design %d: flow created no Performance or netlist", d.k)
	}
	return nil
}

func bindLeaf(f *flow.Flow, typeName string, id history.ID) error {
	for _, n := range f.Leaves() {
		if f.Node(n).Type == typeName && !f.Node(n).IsBound() {
			return f.Bind(n, id)
		}
	}
	return fmt.Errorf("no unbound %s leaf", typeName)
}

// cycleTimes are one cycle's timed calls.
type cycleTimes struct {
	stale, retrace time.Duration
	rebuilt        int
}

// cycle edits the newest version of the design's netlist, checks that the Performance
// result went out of date, retraces it, and checks that it is current
// again and that the retrace rebuilt no more than the design's first.
func cycle(s *hercules.Session, d *design, h *historyHooks, t *tally) (cycleTimes, error) {
	var ct cycleTimes
	base, err := s.DB.NewestVersion(d.net)
	if err != nil {
		return ct, err
	}
	f := s.NewFlow()
	n := f.MustAdd("EditedNetlist")
	if err := f.ExpandDown(n, false); err != nil {
		return ct, err
	}
	if err := f.ExpandOptional(n, "Netlist"); err != nil {
		return ct, err
	}
	tn, _ := f.Node(n).Dep("fd")
	bn, _ := f.Node(n).Dep("Netlist")
	if err := f.Bind(tn, s.Must("netEd.retouch")); err != nil {
		return ct, err
	}
	if err := f.Bind(bn, base); err != nil {
		return ct, err
	}
	var res *exec.Result
	h.time("exec.run", func() { res, err = s.Run(f) })
	if err != nil {
		return ct, err
	}
	if d.net, err = res.One(n); err != nil {
		return ct, err
	}

	var stale bool
	t0 := time.Now()
	h.time("history.out_of_date", func() { stale, err = s.OutOfDate(d.perf) })
	ct.stale = time.Since(t0)
	t.check(err == nil && stale, "design %d cycle %d: Performance %s not out of date after the edit (%v)", d.k, d.cycles, d.perf, err)
	var si []history.Stale
	h.time("history.stale", func() { si, err = s.DB.StaleInputs(d.perf) })
	t.check(err == nil && len(si) > 0, "design %d cycle %d: no stale inputs (%v)", d.k, d.cycles, err)
	if h != nil {
		h.time("history.plan_retrace", func() { _, err = s.DB.PlanRetrace(d.perf) })
		if err != nil {
			return ct, err
		}
	}

	var rr *exec.RetraceResult
	t0 = time.Now()
	h.time("exec.retrace", func() { rr, err = s.Retrace(d.perf) })
	ct.retrace = time.Since(t0)
	if err != nil {
		return ct, err
	}
	ct.rebuilt = len(rr.Rebuilt)
	d.perf = rr.NewTarget(d.perf)
	stale, err = s.OutOfDate(d.perf)
	t.check(err == nil && !stale, "design %d cycle %d: Performance %s still out of date after the retrace (%v)", d.k, d.cycles, d.perf, err)
	if d.cycles == 0 {
		d.firstBuilt = ct.rebuilt
	}
	d.cycles++
	return ct, nil
}

// designs is the history workload's size: 1000 retraces in a 30-second
// run.
func (e *env) designs() int { return max(2, e.seconds*1000/(30*cyclesPerDesign)) }

// historyResult is the history workload's raw measurements.
type historyResult struct {
	s                       *hercules.Session
	designs                 []*design
	cycles, stale, retraces samples
	rebuilt                 samples
	overbuilt               int
}

// historyLoop runs every design through its cycles, the designs
// interleaved so the shared history grows throughout. The open designs
// form a pipeline: each round one design opens and every open design
// gets one cycle, in a seeded order. Once the pipeline is full each
// round holds one cycle of every cycle number, whatever the seed, so
// seeds change the order of the work but not what runs at which size
// of the history. A seeded pick per cycle would let designs race ahead
// or lag, which moves the cycle times of whole runs by ~10% from seed
// to seed.
func historyLoop(e *env, s *hercules.Session, rng *rand.Rand, h *historyHooks, t *tally) (*historyResult, error) {
	hr := &historyResult{s: s}
	var active []*design
	for next := 0; next < e.designs() || len(active) > 0; {
		if next < e.designs() {
			d := &design{k: next}
			next++
			if err := startDesign(s, d, h); err != nil {
				return nil, err
			}
			active = append(active, d)
			hr.designs = append(hr.designs, d)
		}
		for _, i := range rng.Perm(len(active)) {
			d := active[i]
			c0 := time.Now()
			ct, err := cycle(s, d, h, t)
			if err != nil {
				return nil, err
			}
			hr.cycles.addDur(time.Since(c0))
			hr.stale.addDur(ct.stale)
			hr.retraces.addDur(ct.retrace)
			hr.rebuilt.add(float64(ct.rebuilt))
			if ct.rebuilt > d.firstBuilt {
				hr.overbuilt++
			}
		}
		open := active[:0]
		for _, d := range active {
			if d.cycles < cyclesPerDesign {
				open = append(open, d)
			}
		}
		active = open
	}
	return hr, nil
}

// historyQueries runs a closed loop of chaining queries through the
// session's history walkers for d. The answers are checked once the
// loop is done, against a provenance index: the history does not change
// while the loop runs, and the timed calls then follow one another with
// no index work between them.
func historyQueries(s *hercules.Session, ds []*design, rng *rand.Rand, d time.Duration, t *tally) samples {
	type query struct {
		root       history.ID
		back       bool
		depth, got int
		err        error
	}
	var qs []query
	var out samples
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		g := ds[rng.Intn(len(ds))]
		q := query{root: g.perf, back: rng.Intn(2) == 0}
		if !q.back {
			q.root = g.net
		}
		q.depth = queryDepths[rng.Intn(len(queryDepths))]
		var got *history.Derivation
		t0 := time.Now()
		if q.back {
			got, q.err = s.DB.Backchain(q.root, q.depth)
		} else {
			got, q.err = s.DB.Forwardchain(q.root, q.depth)
		}
		out.addDur(time.Since(t0))
		if q.err == nil {
			q.got = len(got.Nodes)
		}
		qs = append(qs, q)
	}
	idx := provenance.NewIndex()
	s.DB.Observe(idx)
	for _, q := range qs {
		var want *history.Derivation
		var werr error
		if q.back {
			want, werr = idx.Backchain(q.root, q.depth)
		} else {
			want, werr = idx.Forwardchain(q.root, q.depth)
		}
		t.check(q.err == nil && werr == nil && q.got == len(want.Nodes),
			"chaining %s back=%v depth %d: %v/%v", q.root, q.back, q.depth, q.err, werr)
	}
	return out
}

// runHistory is the history workload: one designer's closed loop of
// edit→check→retrace cycles over many designs in one long-lived
// session, then chaining queries, then a save and reload.
func runHistory(e *env) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(e.seed))
	var s *hercules.Session
	var times samples
	for range sessionSetups {
		var d float64
		var err error
		s = nil
		runtime.GC() // each set-up starts on the same heap
		s, d, err = historySession(nil, &rep.tally)
		if err != nil {
			return nil, err
		}
		times.add(d)
	}
	rep.set("setup_s", times.pct(50), fmt.Sprintf("median of %d", sessionSetups))

	runtime.GC() // the set-up sessions' garbage is not the loop's
	hr, err := historyLoop(e, s, rng, nil, &rep.tally)
	if err != nil {
		return nil, err
	}
	rep.setDist("retrace_p50_ms", "retrace_p99_ms", hr.retraces)
	rep.setDist("stale_p50_ms", "", hr.stale)
	rep.setDist("run_p50_ms", "run_p99_ms", hr.cycles)
	rep.notes["run_p50_ms"] += " edit→check→retrace cycles"
	rep.set("units_per_s", hr.rebuilt.sum()/(hr.retraces.sum()/1000), fmt.Sprintf("%.0f rebuilt constructions", hr.rebuilt.sum()))
	fmt.Fprintf(e.log, "history: %d designs, %d retraces, %d rebuilt more than their design's first (max %.0f), %d instances\n",
		len(hr.designs), len(hr.retraces), hr.overbuilt, hr.rebuilt.pct(100), s.DB.Len())

	queries := historyQueries(s, hr.designs, rng, e.phase(0.2), &rep.tally)
	rep.setDist("query_p50_ms", "query_p99_ms", queries)
	// Freed memory goes back to the OS first, so the figure is the design
	// state the process holds, not how far the scavenger has got.
	debug.FreeOSMemory()
	rep.set("rss_mb", rssOf(os.Getpid()), "benchmark process")

	dir := filepath.Join(e.scratch, "session")
	if err := s.Save(dir); err != nil {
		return nil, err
	}
	n := s.DB.Len()
	// A session is loaded back the way a restarted hercules loads it: with
	// no other session resident.
	s, hr.s = nil, nil
	rec, err := reload(dir, n, hr.designs, &rep.tally)
	if err != nil {
		return nil, err
	}
	rep.set("recover_s", rec, fmt.Sprintf("median of %d loads, %d instances", reloads, n))
	return rep, nil
}

// reloads is how many times the saved session is loaded back;
// recover_s is the median.
const reloads = 21

// reload times loading the session saved in dir back, checking that
// the loaded history holds all n instances and every design is current.
func reload(dir string, n int, ds []*design, t *tally) (float64, error) {
	var times samples
	var s2 *hercules.Session
	for range reloads {
		s2 = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		s2, err = hercules.Load(dir, "designer")
		times.add(time.Since(t0).Seconds())
		if err != nil {
			return 0, err
		}
	}
	t.check(s2.DB.Len() == n, "reloaded session holds %d instances, want %d", s2.DB.Len(), n)
	for _, g := range ds {
		stale, err := s2.OutOfDate(g.perf)
		t.check(err == nil && !stale, "reloaded design %d: Performance %s out of date (%v)", g.k, g.perf, err)
	}
	return times.pct(50), nil
}
