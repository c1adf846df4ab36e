package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark builds or scratches lives,
// relative to the repository root (the driver's CARGO_TARGET_DIR
// convention); it is in .gitignore.
const buildDir = ".bench_build"

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares `module logan`. The benchmark is a
// nested module (benchmark/go.mod), so `go -C benchmark run .` starts one
// level below it and benchmark/run.sh starts in it.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			first, _, _ := strings.Cut(string(b), "\n")
			if strings.TrimSpace(first) == "module logan" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod declaring `module logan` above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildServers compiles logan-serve and logan-worker from the checkout
// into .bench_build/bin and returns that directory. Build time is not part
// of any metric.
func buildServers(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/logan-serve", "./cmd/logan-worker")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/logan-serve ./cmd/logan-worker: %w\n%s", err, out)
	}
	return bin, nil
}

// freeAddr reserves a loopback port by listening on :0 and closing; the
// server is then told to listen there with -addr.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// proc is one child process. exited is closed once Wait has returned, so
// a crash during start-up is seen without polling the PID.
type proc struct {
	name   string
	cmd    *exec.Cmd
	log    string
	exited chan struct{}
}

// procUsage is what /proc reports about a process.
type procUsage struct {
	CPUSeconds float64 // utime + stime
	RSSMB      float64 // VmRSS
	PeakRSSMB  float64 // VmHWM
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
// It is 100 on every Linux ABI Go supports.
const clockTick = 100

// parseProcStat extracts utime+stime from the text of /proc/<pid>/stat.
// The command name (field 2) may contain spaces and parentheses, so the
// numbered fields are counted from the last ')'.
func parseProcStat(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat %q: no command field", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat has %d fields after the command", len(f))
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat utime/stime %q %q not numeric", f[11], f[12])
	}
	return (ut + st) / clockTick, nil
}

// parseStatusMB extracts a "<key>:   <n> kB" line (VmRSS, the resident
// set; VmHWM, its peak) from /proc/<pid>/status, in MB.
func parseStatusMB(status, key string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s line %q: %w", key, line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc status has no %s line", key)
}

func (p *proc) usage() (procUsage, error) {
	pid := strconv.Itoa(p.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procUsage{}, err
	}
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return procUsage{}, err
	}
	var u procUsage
	if u.CPUSeconds, err = parseProcStat(string(stat)); err != nil {
		return u, err
	}
	if u.RSSMB, err = parseStatusMB(string(status), "VmRSS"); err != nil {
		return u, err
	}
	u.PeakRSSMB, err = parseStatusMB(string(status), "VmHWM")
	return u, err
}

// harness owns the children and the temp dir of one server set. Every
// child it starts is killed and waited for by close, whatever path the
// run takes; reapAll covers SIGINT/SIGTERM. Children are only ever
// signalled by PID — never by name pattern.
type harness struct {
	dir   string
	mu    sync.Mutex // close may race a start when a signal arrives
	procs []*proc
}

// live tracks open harnesses so a signal can reap their children.
var live struct {
	sync.Mutex
	set map[*harness]struct{}
}

// newHarness makes a fresh directory under base for one server set.
func newHarness(base string) (*harness, error) {
	dir, err := os.MkdirTemp(base, "servers-")
	if err != nil {
		return nil, err
	}
	h := &harness{dir: dir}
	live.Lock()
	if live.set == nil {
		live.set = map[*harness]struct{}{}
	}
	live.set[h] = struct{}{}
	live.Unlock()
	return h, nil
}

// start launches a child with its output in <dir>/<name>.log.
func (h *harness) start(name, bin string, args ...string) (*proc, error) {
	logPath := filepath.Join(h.dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = h.dir
	cmd.Stdout, cmd.Stderr = logf, logf
	err = cmd.Start()
	logf.Close() // the child holds its own descriptor
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logPath, exited: make(chan struct{})}
	go func() {
		cmd.Wait() // reaps the child; its exit status is not a result
		close(p.exited)
	}()
	h.mu.Lock()
	h.procs = append(h.procs, p)
	h.mu.Unlock()
	return p, nil
}

// logTail returns the end of a child's log for error messages.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(bytes.TrimSpace(b))
}

// waitReady polls url until it answers 200, the child exits, or the
// deadline passes.
func (p *proc) waitReady(client *http.Client, url string) error {
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := client.Get(url)
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited during start-up:\n%s", p.name, p.logTail())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 90s (%s):\n%s", p.name, url, p.logTail())
		}
	}
}

// usage sums CPU time and peak RSS over the harness's live children.
func (h *harness) usage() (procUsage, error) {
	var total procUsage
	h.mu.Lock()
	procs := h.procs
	h.mu.Unlock()
	for _, p := range procs {
		u, err := p.usage()
		if err != nil {
			return total, fmt.Errorf("%s: %w", p.name, err)
		}
		total.CPUSeconds += u.CPUSeconds
		total.RSSMB += u.RSSMB
		total.PeakRSSMB += u.PeakRSSMB
	}
	return total, nil
}

// close kills every child, waits until each has been reaped, and removes
// the temp dir. The servers hold nothing the benchmark needs after the
// /proc and /statz reads, so they are not asked to drain.
func (h *harness) close() {
	h.mu.Lock()
	procs := h.procs
	h.procs = nil
	h.mu.Unlock()
	for _, p := range procs {
		p.cmd.Process.Signal(syscall.SIGKILL)
	}
	for _, p := range procs {
		<-p.exited
	}
	os.RemoveAll(h.dir)
	live.Lock()
	delete(live.set, h)
	live.Unlock()
}

// reapAll closes every open harness; the signal handler calls it before
// the process exits.
func reapAll() {
	live.Lock()
	hs := make([]*harness, 0, len(live.set))
	for h := range live.set {
		hs = append(hs, h)
	}
	live.Unlock()
	for _, h := range hs {
		h.close()
	}
}
