package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/storage"
)

// TestCrashRecoveryE2E is the whole-process durability gate (CI crash
// job, `make crash`): build the real flowd binary, kill -9 it in the
// middle of a run, restart it over the same data directory and require
// the resumed run's final masked trace to be byte-identical to the
// trace of an uninterrupted golden instance, and its WAL to pass
// -verify-provenance (and a tampered copy to fail it). Gated behind
// CRASH_E2E=1 so plain `go test ./...` stays fast.
func TestCrashRecoveryE2E(t *testing.T) {
	if os.Getenv("CRASH_E2E") == "" {
		t.Skip("set CRASH_E2E=1 to run the kill -9 crash/recovery round trip")
	}
	bin := filepath.Join(t.TempDir(), "flowd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building flowd: %v\n%s", err, out)
	}

	// Golden: an uninterrupted run of the slow flow, then a graceful
	// SIGTERM drain that must exit 0 and leave a checkpoint behind.
	goldenDir := t.TempDir()
	g := startFlowd(t, bin, goldenDir)
	id := submitRun(t, g.base, "slow")
	waitState(t, g.base, id, "succeeded")
	golden := traceLines(t, g.base, id)
	if err := g.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := g.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown exited nonzero: %v", err)
	}
	if _, err := os.Stat(filepath.Join(goldenDir, "store.json")); err != nil {
		t.Fatalf("no datastore checkpoint after graceful shutdown: %v", err)
	}

	// Crash: same flow, same id, but kill -9 mid-run. The slow flow
	// spends 100ms per unit over a depth-3 diamond, so 150ms lands
	// between the first committed units and the end.
	crashDir := t.TempDir()
	c := startFlowd(t, bin, crashDir)
	if id2 := submitRun(t, c.base, "slow"); id2 != id {
		t.Fatalf("crash instance assigned id %s, golden got %s", id2, id)
	}
	time.Sleep(150 * time.Millisecond)
	if err := c.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = c.cmd.Wait()

	// Restart over the same data dir: the run must come back — resumed
	// from its last committed unit or, if the kill lost the race with
	// the finish, replayed — and its trace must equal the golden.
	r := startFlowd(t, bin, crashDir)
	waitState(t, r.base, id, "succeeded")
	resumed := traceLines(t, r.base, id)
	if len(resumed) != len(golden) {
		t.Fatalf("resumed trace has %d events, golden %d\nresumed: %v\ngolden:  %v",
			len(resumed), len(golden), resumed, golden)
	}
	for i := range resumed {
		if resumed[i] != golden[i] {
			t.Fatalf("resumed trace diverges at event %d:\nresumed: %s\ngolden:  %s",
				i, resumed[i], golden[i])
		}
	}

	// The resumed WAL is one hash chain: -verify-provenance accepts the
	// drained data dir...
	if err := r.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := r.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown after resume exited nonzero: %v", err)
	}
	if out, err := exec.Command(bin, "-data-dir", crashDir, "-verify-provenance").CombinedOutput(); err != nil {
		t.Fatalf("-verify-provenance on the resumed data dir: %v\n%s", err, out)
	}

	// ...and refuses a copy with one record rewritten (and re-framed, so
	// only the links can tell), naming the first record whose link fails.
	tamperDir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(tamperDir, "runs"), 0o755); err != nil {
		t.Fatal(err)
	}
	src, err := storage.OpenFile(filepath.Join(crashDir, "runs", id+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := src.Committed()
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	bad := len(recs) / 2
	recs[bad] = append(recs[bad][:len(recs[bad])-1], `,"tampered":true}`...)
	dst, err := storage.OpenFile(filepath.Join(tamperDir, "runs", id+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := dst.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-data-dir", tamperDir, "-verify-provenance").CombinedOutput()
	if want := fmt.Sprintf("record %d:", bad+1); err == nil || !strings.Contains(string(out), want) {
		t.Fatalf("-verify-provenance on a tampered WAL: err %v, want non-zero naming %s\n%s", err, want, out)
	}

	// A raw byte flip inside that record, not re-framed, fails its
	// frame CRC with intact frames after it — damage, not a crash tail.
	// -verify-provenance and boot both refuse it, naming the record.
	data, err := os.ReadFile(filepath.Join(crashDir, "runs", id+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for _, rec := range recs[:bad] {
		off += 8 + len(rec) // frame header + payload
	}
	data[off+8+10] ^= 0x20
	if err := os.WriteFile(filepath.Join(tamperDir, "runs", id+".wal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("record %d:", bad)
	out, err = exec.Command(bin, "-data-dir", tamperDir, "-verify-provenance").CombinedOutput()
	if err == nil || !strings.Contains(string(out), want) {
		t.Fatalf("-verify-provenance on a WAL with a flipped byte: err %v, want non-zero naming %s\n%s", err, want, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel() // a boot that accepts the log serves until killed
	out, err = exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-data-dir", tamperDir).CombinedOutput()
	if err == nil || !strings.Contains(string(out), want) {
		t.Fatalf("flowd boot over a WAL with a flipped byte: err %v, want non-zero naming %s\n%s", err, want, out)
	}
}

type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startFlowd launches the built binary on a loopback port with the
// given data directory and waits until it serves.
func startFlowd(t *testing.T, bin, dataDir string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "serving on "); i >= 0 {
			addr := strings.Fields(line[i+len("serving on "):])[0]
			go func() {
				for sc.Scan() {
				}
			}()
			d := &daemon{cmd: cmd, base: "http://" + addr}
			waitHealthy(t, d.base)
			return d
		}
	}
	t.Fatalf("flowd exited before serving (scan err %v)", sc.Err())
	return nil
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("flowd at %s never became healthy: %v", base, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func submitRun(t *testing.T, base, flow string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json",
		strings.NewReader(`{"flow":"`+flow+`","user":"crash"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || v.ID == "" {
		t.Fatalf("submit: status %d, decode err %v", resp.StatusCode, err)
	}
	return v.ID
}

func waitState(t *testing.T, base, id, want string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var v struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	for {
		resp, err := http.Get(base + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State == want {
			return
		}
		if v.State != "running" || time.Now().After(deadline) {
			t.Fatalf("run %s is %q (error %q), want %q", id, v.State, v.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func traceLines(t *testing.T, base, id string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	return lines
}
