package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/flowgen"
)

// bulkRuns is how many large scenarios the bulk workload submits.
const bulkRuns = 4

// setups is how many times a flowd workload starts flowd before its
// timed operations; setup_s is their median.
const setups = 25

// setupFlowd starts flowd `setups` times on fresh data directories, each
// time until /healthz answers and one warm-up run has finished, and
// reports the median set-up time. The last process is returned running.
func setupFlowd(e *env, t *tally) (*flowdProc, float64, error) {
	var times samples
	var fd *flowdProc
	for i := range setups {
		if fd != nil {
			if err := fd.stop(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		fd, err = startFlowd(e.flowd, filepath.Join(e.scratch, fmt.Sprintf("flowd-%d", i)), e.workers)
		if err != nil {
			return nil, 0, err
		}
		a := newAPI(fd.base)
		v, err := a.submit([]byte(`{"flow":"perf","user":"warmup"}`))
		if err == nil {
			v, err = waitTerminal(a, v.ID)
		}
		a.close()
		if err != nil {
			fd.kill()
			return nil, 0, fmt.Errorf("warm-up run: %w", err)
		}
		t.check(v.State == "succeeded", "warm-up run %s: %s %s", v.ID, v.State, v.Error)
		times.add(time.Since(t0).Seconds())
	}
	return fd, times.pct(50), nil
}

// waitTerminal polls a run's status until it leaves "running".
func waitTerminal(a *api, id string) (runView, error) {
	for {
		v, err := a.status(id)
		if err != nil || v.State != "running" {
			return v, err
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// bulkInput is one large generated scenario with its reference model.
type bulkInput struct {
	sub   submission
	model *chainModel
	// filled in by the run:
	id    string
	insts []string // insts[cell] = the committed instance
}

func bulkInputs(e *env, rng *rand.Rand, n int) ([]*bulkInput, error) {
	var in []*bulkInput
	for range n {
		spec := flowgen.Spec{Cells: e.bulkCells(), Shape: flowgen.Layered, Seed: rng.Int63n(1 << 30)}
		g, err := flowgen.Generate(spec)
		if err != nil {
			return nil, err
		}
		sub, err := generatedSubmission(spec)
		if err != nil {
			return nil, err
		}
		in = append(in, &bulkInput{sub: sub, model: newChainModel(g)})
	}
	return in, nil
}

// bulkSubmit submits each large scenario in turn and follows its trace
// to the end; it returns the submit→end-of-trace times and the trace
// bytes received. Committed instance IDs are read from the stream once
// the clock has stopped.
func bulkSubmit(a *api, in []*bulkInput, t *tally) (runs samples, units int, streamBytes int64) {
	for _, b := range in {
		cells := len(b.model.g.Cells)
		var committed [][]byte
		t0 := time.Now()
		v, err := a.submit(b.sub.body)
		if err != nil {
			t.checkErr(err, "bulk submit "+b.sub.label)
			continue
		}
		lines, size, err := a.follow(v.ID, func(line []byte) {
			if bytes.Contains(line, []byte(`"kind":"UnitCommitted"`)) {
				committed = append(committed, append([]byte(nil), line...))
			}
		})
		d := time.Since(t0)
		t.checkErr(err, "bulk trace "+v.ID)
		t.check(lines == 3*cells+2, "bulk trace %s: %d lines, want %d", v.ID, lines, 3*cells+2)
		st, err := a.status(v.ID)
		t.checkErr(err, "bulk status "+v.ID)
		t.checkErr(b.sub.check(st), "bulk outcome")
		b.id = v.ID
		b.insts = make([]string, cells)
		for _, l := range committed {
			var ev streamEvent
			if json.Unmarshal(l, &ev) == nil && len(ev.Nodes) == 1 && len(ev.Insts) == 1 && ev.Nodes[0]%2 == 1 && (ev.Nodes[0]-1)/2 < cells {
				b.insts[(ev.Nodes[0]-1)/2] = ev.Insts[0]
			}
		}
		runs.addDur(d)
		units += st.TasksRun
		streamBytes += size
	}
	return runs, units, streamBytes
}

// provenanceQuery is one seeded chaining query with its expected size.
type provenanceQuery struct {
	run, inst, dir string
	depth, want    int
}

// drawQuery picks a seeded query over the finished bulk runs.
func drawQuery(rng *rand.Rand, in []*bulkInput) provenanceQuery {
	b := in[rng.Intn(len(in))]
	cell := rng.Intn(len(b.insts))
	back := rng.Intn(2) == 0
	depth := queryDepths[rng.Intn(len(queryDepths))]
	q := provenanceQuery{run: b.id, inst: b.insts[cell], dir: "fwd", depth: depth, want: b.model.count(cell, back, depth)}
	if back {
		q.dir = "back"
	}
	return q
}

// queryLoop runs a closed loop of provenance queries for d, checking
// every answer. It returns the query round trips and the answer sizes.
func queryLoop(a *api, rng *rand.Rand, in []*bulkInput, d time.Duration, t *tally) (queries, sizes samples) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		q := drawQuery(rng, in)
		t0 := time.Now()
		n, size, err := a.provenance(q.run, q.inst, q.dir, q.depth)
		queries.addDur(time.Since(t0))
		sizes.add(float64(size))
		t.check(err == nil && n == q.want, "provenance %s %s %s depth %d: %d nodes (err %v), want %d", q.run, q.inst, q.dir, q.depth, n, err, q.want)
	}
	return queries, sizes
}

// restarts is how many times a run restarts flowd on its data
// directory; recover_s is the median.
const restarts = 5

// restart stops flowd with SIGTERM and starts it again on the same data
// directory, `restarts` times, timing each until /healthz answers and
// GET /v1/runs lists every run; it returns the median time and the last
// process, running. Each run must come back in its pre-restart state
// with its pre-restart committed count. A recovered run's status view
// carries no tasks_run (the service keeps no result for it), so after
// the last restart the count is read from the RunFinished event of its
// recovered trace; lost counts the runs listed without tasks_run.
func restart(e *env, fd *flowdProc, t *tally) (last *flowdProc, secs float64, lost int, err error) {
	a := newAPI(fd.base)
	before, err := a.list()
	a.close()
	if err != nil {
		return nil, 0, 0, err
	}
	var times samples
	var after []runView
	for range restarts {
		if err := fd.stop(); err != nil {
			return nil, 0, 0, err
		}
		t0 := time.Now()
		if fd, err = startFlowd(e.flowd, fd.dataDir, e.workers); err != nil {
			return nil, 0, 0, err
		}
		a = newAPI(fd.base)
		after, err = a.list()
		times.add(time.Since(t0).Seconds())
		a.close()
		if err != nil {
			return fd, 0, 0, err
		}
		t.check(len(after) == len(before), "after restart: %d runs listed, was %d", len(after), len(before))
	}
	a = newAPI(fd.base)
	defer a.close()
	got := make(map[string]runView, len(after))
	for _, v := range after {
		got[v.ID] = v
	}
	for _, v := range before {
		w, ok := got[v.ID]
		t.check(ok && w.State == v.State, "after restart %s: listed %v state %q, was %q", v.ID, ok, w.State, v.State)
		if !ok || w.TasksRun == v.TasksRun {
			continue
		}
		lost++
		var fin struct {
			Kind      string `json:"kind"`
			Committed int    `json:"committed"`
		}
		_, _, err := a.follow(v.ID, func(line []byte) {
			if bytes.Contains(line, []byte(`"kind":"RunFinished"`)) {
				_ = json.Unmarshal(line, &fin)
			}
		})
		t.check(err == nil && fin.Kind == "RunFinished" && fin.Committed == v.TasksRun,
			"after restart %s: recovered trace commits %d (%v), was %d", v.ID, fin.Committed, err, v.TasksRun)
	}
	return fd, times.pct(50), lost, nil
}

// runBulk is the bulk workload: a durable flowd receives a few large
// generated scenarios one after another, each followed on its trace
// stream and then queried, in a closed loop of provenance queries
// against the runs finished so far; last, flowd is restarted on its data
// directory. Each run's queries follow it, rather than all queries
// following the last run, so the run and query samples are spread over
// the whole run length and a few slow seconds of the machine weigh on
// them less.
func runBulk(e *env) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(e.seed))
	in, err := bulkInputs(e, rng, bulkRuns)
	if err != nil {
		return nil, err
	}
	warm, err := bulkInputs(e, rng, 1)
	if err != nil {
		return nil, err
	}
	fd, setup, err := setupFlowd(e, &rep.tally)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup, fmt.Sprintf("median of %d", setups))
	a := newAPI(fd.base)
	defer a.close()
	// One untimed large run grows flowd to its working size first. The
	// first large run of a fresh flowd can take up to 1.5 times as long
	// as the others, on some runs and not others, and would then set
	// run_p99_ms (the slowest of four).
	if r, _, _ := bulkSubmit(a, warm, &rep.tally); len(r) == 0 {
		return nil, fmt.Errorf("warm-up bulk run did not finish")
	}

	var runs, queries samples
	var units int
	var done []*bulkInput
	for _, b := range in {
		r, u, _ := bulkSubmit(a, []*bulkInput{b}, &rep.tally)
		runs, units = append(runs, r...), units+u
		if len(r) > 0 {
			done = append(done, b)
		}
		if len(done) > 0 {
			q, _ := queryLoop(a, rng, done, e.phase(0.5)/bulkRuns, &rep.tally)
			queries = append(queries, q...)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no bulk run finished")
	}
	rep.set("units_per_s", float64(units)/(runs.sum()/1000), fmt.Sprintf("%d units in %d runs", units, len(runs)))
	rep.setDist("run_p50_ms", "run_p99_ms", runs)
	rep.setDist("query_p50_ms", "query_p99_ms", queries)
	rep.set("rss_mb", fd.rssMB(), "flowd")

	fd2, rec, lost, err := restart(e, fd, &rep.tally)
	if err != nil {
		return nil, err
	}
	rep.set("recover_s", rec, fmt.Sprintf("median of %d restarts, %d runs, %d listed without tasks_run", restarts, len(in)+len(warm)+1, lost))
	return rep, fd2.stop()
}
