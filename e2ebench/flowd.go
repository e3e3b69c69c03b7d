package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// flowdProc is one flowd process serving on a loopback port over a
// durable data directory.
type flowdProc struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	exited  chan struct{}
	waitErr error
}

var (
	procsMu sync.Mutex
	procs   = map[*flowdProc]bool{}
)

// startFlowd launches flowd on a free loopback port and returns once
// /healthz answers.
func startFlowd(bin, dataDir string, workers int) (*flowdProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir,
		"-workers", strconv.Itoa(workers), "-drain", "60s")
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting flowd: %w", err)
	}
	p := &flowdProc{cmd: cmd, base: "http://" + addr, dataDir: dataDir, exited: make(chan struct{})}
	procsMu.Lock()
	procs[p] = true
	procsMu.Unlock()
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := hc.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.exited:
			p.forget()
			return nil, fmt.Errorf("flowd exited before answering /healthz: %v", p.waitErr)
		default:
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("flowd did not answer /healthz within 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

func (p *flowdProc) forget() {
	procsMu.Lock()
	delete(procs, p)
	procsMu.Unlock()
}

// stop sends SIGTERM — flowd drains and checkpoints — and waits for the
// process to exit; after 90s it is killed.
func (p *flowdProc) stop() error {
	defer p.forget()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(90 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return fmt.Errorf("flowd did not exit within 90s of SIGTERM")
	}
	if p.waitErr != nil {
		return fmt.Errorf("flowd exit: %v", p.waitErr)
	}
	return nil
}

// kill ends the process at once and waits for it.
func (p *flowdProc) kill() {
	defer p.forget()
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// stopAllFlowd kills every flowd still running; the benchmark calls it
// on every exit path.
func stopAllFlowd() {
	procsMu.Lock()
	ps := make([]*flowdProc, 0, len(procs))
	for p := range procs {
		ps = append(ps, p)
	}
	procsMu.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// rssMB is the process's resident set.
func (p *flowdProc) rssMB() float64 { return rssOf(p.cmd.Process.Pid) }

// rssOf reads VmRSS of a process from /proc, in MB.
func rssOf(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// api is an HTTP client of one flowd. Each api holds at most one
// connection, so a workload's connection count is its api count.
type api struct {
	base string
	hc   *http.Client
	// rec, when set, records a service.* span around every call, under
	// parent (the traced run).
	rec    *recorder
	parent int
}

// span opens a span for one HTTP call (a no-op without a recorder).
func (a *api) span(name string) int {
	if a.rec == nil {
		return -1
	}
	return a.rec.begin(name, "", a.parent, lvRun, false)
}

func (a *api) endSpan(id int, err error) {
	if a.rec == nil {
		return
	}
	a.rec.end(id)
	var he *httpError
	if errors.As(err, &he) && (he.code == http.StatusTooManyRequests || he.code == http.StatusServiceUnavailable) {
		a.rec.add("service.refused", 1)
	}
}

// spanName names the service span of a request.
func spanName(method, path string) string {
	switch {
	case method == http.MethodPost:
		return "service.submit"
	case strings.Contains(path, "/provenance"):
		return "service.query"
	case strings.HasPrefix(path, "/v1/runs/"):
		return "service.status"
	default:
		return "service.list"
	}
}

func newAPI(base string) *api {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &api{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (a *api) close() { a.hc.CloseIdleConnections() }

// runView mirrors the service's JSON view of one run.
type runView struct {
	ID        string `json:"id"`
	Flow      string `json:"flow"`
	State     string `json:"state"`
	TasksRun  int    `json:"tasks_run"`
	CacheHits int    `json:"cache_hits"`
	Error     string `json:"error"`
}

// httpError is a non-2xx answer.
type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.code, strings.TrimSpace(e.body))
}

// do sends one request and decodes a JSON answer into out (when not
// nil), returning the body size.
func (a *api) do(method, path string, body []byte, out any) (n int, err error) {
	id := a.span(spanName(method, path))
	defer func() { a.endSpan(id, err) }()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(b), err
	}
	if resp.StatusCode/100 != 2 {
		return len(b), &httpError{resp.StatusCode, string(b)}
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return len(b), fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return len(b), nil
}

func (a *api) submit(body []byte) (runView, error) {
	var v runView
	_, err := a.do(http.MethodPost, "/v1/runs", body, &v)
	return v, err
}

func (a *api) status(id string) (runView, error) {
	var v runView
	_, err := a.do(http.MethodGet, "/v1/runs/"+id, nil, &v)
	return v, err
}

func (a *api) list() ([]runView, error) {
	var v []runView
	_, err := a.do(http.MethodGet, "/v1/runs", nil, &v)
	return v, err
}

// flowSpec mirrors one entry of GET /v1/flows.
type flowSpec struct {
	Name  string `json:"name"`
	Units int    `json:"units"`
}

func (a *api) flows() ([]flowSpec, error) {
	var v []flowSpec
	_, err := a.do(http.MethodGet, "/v1/flows", nil, &v)
	return v, err
}

// streamEvent is the part of a trace line the benchmark reads.
type streamEvent struct {
	Kind  string   `json:"kind"`
	Nodes []int    `json:"nodes"`
	Insts []string `json:"insts"`
}

// follow reads a run's trace stream to its end, the way a designer
// watches a run, handing each line to fn (which may be nil). It returns
// the line and byte counts.
func (a *api) follow(id string, fn func(line []byte)) (lines int, size int64, err error) {
	sp := a.span("service.stream")
	defer func() { a.endSpan(sp, err) }()
	resp, err := a.hc.Get(a.base + "/v1/runs/" + id + "/trace")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return 0, 0, &httpError{resp.StatusCode, string(b)}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		lines++
		size += int64(len(sc.Bytes())) + 1
		if fn != nil {
			fn(sc.Bytes())
		}
	}
	return lines, size, sc.Err()
}

// provenanceAnswer is the part of a provenance answer the benchmark
// checks.
type provenanceAnswer struct {
	Nodes []string `json:"nodes"`
}

// provenance runs one chaining query and returns the answer's node
// count and byte size.
func (a *api) provenance(id, inst, dir string, depth int) (nodes, size int, err error) {
	q := url.Values{"inst": {inst}, "dir": {dir}, "depth": {strconv.Itoa(depth)}}
	var v provenanceAnswer
	size, err = a.do(http.MethodGet, "/v1/runs/"+id+"/provenance?"+q.Encode(), nil, &v)
	return len(v.Nodes), size, err
}
