package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// The interactive ladder: fixed offered rates, never derived from
// measured capacity. runs_p50/p99 are taken at the nominal rate, whose
// step offers nominalRuns runs; every other step offers rungRuns runs,
// or what its rate offers in rungSpan if that is fewer. Every run stays
// in flowd's memory to the end (the service never prunes its run
// registry), so the other steps are kept short.
var ladder = []float64{25, 50, 400}

const (
	nominalRate = 50.0
	nominalRuns = 1000
	rungRuns    = 150
	rungSpan    = 2 * time.Second
	// latencyLimit is the fixed limit on a step's upper percentile.
	latencyLimit = 150 * time.Millisecond
)

// step is one ladder rung: an offered rate held for a duration.
type step struct {
	rate float64
	dur  time.Duration
}

// ladderSteps sizes the ladder's steps.
func (e *env) ladderSteps() []step {
	var out []step
	for _, r := range ladder {
		n := e.nominalRuns()
		if r != nominalRate {
			n = min(n*rungRuns/nominalRuns, int(r*rungSpan.Seconds()))
		}
		out = append(out, step{r, time.Duration(float64(n) / r * float64(time.Second))})
	}
	return out
}

// outcome is one offered run as the load generator saw it.
type outcome struct {
	sub     submission
	id      string
	due     time.Time
	lag     time.Duration // how late the submission left
	latency time.Duration // due → first poll that saw a terminal state
	view    runView
	err     error
}

// stepResult is what one rung measured.
type stepResult struct {
	step
	outcomes    []*outcome
	inflightMax int
	inflightEnd int // runs in flight when the step's offered window closed
}

// ok reports whether the rung met the limit: every run succeeded and
// matched its expectation, the upper percentile is within the limit,
// the generator kept its schedule and the in-flight count did not grow.
func (r *stepResult) ok() bool {
	var lat, lag samples
	for _, o := range r.outcomes {
		if o.err != nil {
			return false
		}
		lat.addDur(o.latency)
		lag.addDur(o.lag)
	}
	limit := float64(latencyLimit.Milliseconds())
	_, hi := lat.upper()
	_, lagHi := lag.upper()
	return hi <= limit && lagHi <= limit && r.inflightEnd <= r.backlog()
}

// backlog is the most runs a rung meeting the limit can have in
// flight (Little's law at the limit, plus the one being submitted).
func (r *stepResult) backlog() int { return int(math.Ceil(r.rate*latencyLimit.Seconds())) + 1 }

// upper returns the rung's upper latency and lag percentiles, for the log.
func (r *stepResult) upper() (lat, lag float64) {
	var l, g samples
	for _, o := range r.outcomes {
		l.addDur(o.latency)
		g.addDur(o.lag)
	}
	_, lat = l.upper()
	_, lag = g.upper()
	return lat, lag
}

// openLoop offers subs at the step's rate from one submission
// connection while one status connection polls every run in flight,
// one round of polls every pollGap.
func openLoop(base string, st step, subs []submission, rec *recorder, parent int) *stepResult {
	res := &stepResult{step: st}
	submitA, pollA := newAPI(base), newAPI(base)
	submitA.rec, submitA.parent, pollA.rec, pollA.parent = rec, parent, rec, parent
	defer submitA.close()
	defer pollA.close()
	var (
		mu       sync.Mutex
		inflight []*outcome
		done     bool
	)
	start := time.Now()
	windowEnd := start.Add(st.dur)
	go func() {
		for i, sub := range subs {
			o := &outcome{sub: sub, due: start.Add(time.Duration(float64(i) / st.rate * float64(time.Second)))}
			if w := time.Until(o.due); w > 0 {
				time.Sleep(w)
			}
			o.lag = time.Since(o.due)
			v, err := submitA.submit(sub.body)
			mu.Lock()
			res.outcomes = append(res.outcomes, o)
			if err != nil {
				o.err, o.latency = err, time.Since(o.due)
			} else {
				o.id = v.ID
				inflight = append(inflight, o)
			}
			mu.Unlock()
		}
		mu.Lock()
		done = true
		mu.Unlock()
	}()
	drainBy := windowEnd.Add(30 * time.Second)
	ended := false
	for {
		mu.Lock()
		batch := append([]*outcome(nil), inflight...)
		fin := done && len(inflight) == 0
		mu.Unlock()
		if fin {
			break
		}
		if !ended && time.Now().After(windowEnd) {
			ended, res.inflightEnd = true, len(batch)
		}
		res.inflightMax = max(res.inflightMax, len(batch))
		if time.Now().After(drainBy) {
			mu.Lock()
			for _, o := range inflight {
				o.err, o.latency = fmt.Errorf("%s still running 30s after the step", o.id), time.Since(o.due)
			}
			inflight = nil
			mu.Unlock()
			continue
		}
		time.Sleep(pollGap)
		if len(batch) == 0 {
			continue
		}
		finished := map[*outcome]bool{}
		for _, o := range batch {
			v, err := pollA.status(o.id)
			now := time.Now()
			if err != nil || v.State != "running" {
				o.latency, o.view, o.err = now.Sub(o.due), v, err
				if err == nil {
					o.err = o.sub.check(v)
				}
				finished[o] = true
			}
		}
		mu.Lock()
		kept := inflight[:0]
		for _, o := range inflight {
			if !finished[o] {
				kept = append(kept, o)
			}
		}
		inflight = kept
		mu.Unlock()
	}
	if !ended {
		res.inflightEnd = 0
	}
	return res
}

// pollGap spaces the status poll rounds, as a client watching its runs
// would; without it the poller would spin on one of the box's cores.
const pollGap = 500 * time.Microsecond

// drawSteps draws every rung's submissions before any is offered.
func drawSteps(m *mix, steps []step) ([][]submission, error) {
	out := make([][]submission, len(steps))
	for i, st := range steps {
		n := int(math.Ceil(st.rate * st.dur.Seconds()))
		for range n {
			s, err := m.next()
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], s)
		}
	}
	return out, nil
}

// smallQueryTargets follows the trace of up to n finished generated
// runs to learn their committed instances, so chaining queries over
// them can be checked against the generator's graph.
func smallQueryTargets(a *api, steps []*stepResult, n int) ([]*bulkInput, error) {
	var out []*bulkInput
	for _, r := range steps {
		for _, o := range r.outcomes {
			if len(out) == n {
				return out, nil
			}
			if o.err != nil {
				continue
			}
			g := generatedGraph(o.sub)
			if g == nil {
				continue
			}
			b := &bulkInput{sub: o.sub, model: newChainModel(g), id: o.id, insts: make([]string, len(g.Cells))}
			_, _, err := a.follow(o.id, func(line []byte) {
				var ev streamEvent
				if bytes.Contains(line, []byte(`"kind":"UnitCommitted"`)) && json.Unmarshal(line, &ev) == nil &&
					len(ev.Nodes) == 1 && len(ev.Insts) == 1 && ev.Nodes[0]%2 == 1 {
					b.insts[(ev.Nodes[0]-1)/2] = ev.Insts[0]
				}
			})
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no generated run finished")
	}
	return out, nil
}

// runInteractive is the interactive workload: an open loop of small
// submissions at each rate of the fixed ladder, then a closed loop of
// provenance queries over the small runs, then a restart.
func runInteractive(e *env) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(e.seed))
	fd, setup, err := setupFlowd(e, &rep.tally)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup, fmt.Sprintf("median of %d", setups))
	a := newAPI(fd.base)
	defer a.close()
	flows, err := a.flows()
	if err != nil {
		return nil, err
	}
	corpus, err := corpusSubmissions(e.corpus)
	if err != nil {
		return nil, err
	}
	m, err := newMix(rng.Int63(), flows, corpus)
	if err != nil {
		return nil, err
	}
	steps := e.ladderSteps()
	subs, err := drawSteps(m, steps)
	if err != nil {
		return nil, err
	}

	var results []*stepResult
	var nominal *stepResult
	best := 0.0
	for i, st := range steps {
		r := openLoop(fd.base, st, subs[i], nil, -1)
		results = append(results, r)
		for _, o := range r.outcomes {
			rep.checkErr(o.err, "interactive run "+o.sub.label)
		}
		pass := r.ok()
		hi, lag := r.upper()
		fmt.Fprintf(e.log, "interactive: %.0f runs/s for %v: %d runs, upper %.1fms, lag %.1fms, in flight max %d at end %d, pass %v\n",
			st.rate, st.dur, len(r.outcomes), hi, lag, r.inflightMax, r.inflightEnd, pass)
		if st.rate == nominalRate {
			nominal = r
		}
		if pass {
			best = st.rate
		} else if st.rate >= nominalRate {
			break
		}
	}
	if nominal == nil {
		return nil, fmt.Errorf("ladder stopped before the nominal rate")
	}
	var runs samples
	var units, secs float64
	for _, o := range nominal.outcomes {
		runs.addDur(o.latency)
		units += float64(o.view.TasksRun)
		secs += o.latency.Seconds()
	}
	rep.setDist("run_p50_ms", "run_p99_ms", runs)
	rep.set("units_per_s", units/secs, fmt.Sprintf("%.0f units at the nominal rate", units))
	rep.set("max_rate_runs_per_s", best, fmt.Sprintf("limit %v on the upper percentile", latencyLimit))

	targets, err := smallQueryTargets(a, results, 64)
	if err != nil {
		return nil, err
	}
	queries, _ := queryLoop(a, rng, targets, e.phase(0.1), &rep.tally)
	rep.setDist("query_p50_ms", "query_p99_ms", queries)
	rep.set("rss_mb", fd.rssMB(), "flowd")

	total := 0
	for _, r := range results {
		total += len(r.outcomes)
	}
	fd2, rec, lost, err := restart(e, fd, &rep.tally)
	if err != nil {
		return nil, err
	}
	rep.set("recover_s", rec, fmt.Sprintf("median of %d restarts, %d runs, %d listed without tasks_run", restarts, total+1, lost))
	return rep, fd2.stop()
}
