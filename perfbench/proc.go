package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one histserved process started by the benchmark.
type serverProc struct {
	cmd    *exec.Cmd
	url    string
	logged chan struct{} // closed once stderr is drained
}

// startServer runs the histserved binary on a loopback port chosen by
// the kernel, with its log in dir, and returns once it listens. The
// child is killed if the benchmark dies, so an aborted run leaves no
// server behind.
func startServer(bin, dir string, args ...string) (*serverProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "histserved.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, logged: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.logged)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !sent {
				a, _, _ := strings.Cut(rest, " ")
				addr <- a
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			p.stop()
			return nil, fmt.Errorf("histserved exited before listening (log in %s)", dir)
		}
		p.url = "http://" + a
		return p, nil
	case <-time.After(10 * time.Second):
		p.stop()
		return nil, errors.New("histserved did not listen within 10s")
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks the server to shut down, kills it if it has not exited
// within five seconds, and reaps it. Its stderr reaches EOF only once
// the process is gone, so the log is drained before Wait closes the
// pipe.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.logged:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.logged
	}
	_ = p.cmd.Wait()
}

// foreignCPU records, for each window of the timed phase, the CPU time
// the machine gave to anything but this process and its servers: the
// hypervisor's steal and every other process. The end-to-end figures
// leave out the windows where that was large, so a neighbour that takes
// the CPUs for a few seconds does not move them. Where /proc cannot be
// read it records nothing and every window counts.
type foreignCPU struct {
	pids  []int
	limit float64 // the most foreign ticks a quiet window has
	quit  chan struct{}
	done  chan struct{}

	mu    sync.Mutex
	ticks []float64 // foreign clock ticks in each completed window
}

// sampleForeignCPU starts sampling at the window boundaries after
// start until stop is called. A window that ended before stop is
// sampled even if stop came first.
func sampleForeignCPU(pids []int, start time.Time) *foreignCPU {
	f := &foreignCPU{pids: pids, limit: quietShare * clockTicks * window.Seconds() * float64(runtime.NumCPU()),
		quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		prev, ok := f.read()
		for k := 1; ok; k++ {
			end := start.Add(time.Duration(k) * window)
			select {
			case <-f.quit:
				if time.Now().Before(end) {
					return
				}
			case <-time.After(time.Until(end)):
			}
			var cur float64
			if cur, ok = f.read(); ok {
				f.mu.Lock()
				f.ticks = append(f.ticks, cur-prev)
				f.mu.Unlock()
				prev = cur
			}
		}
	}()
	return f
}

func (f *foreignCPU) stop() {
	close(f.quit)
	<-f.done
}

// counts returns how many of the windows sampled so far were quiet and
// how many were not.
func (f *foreignCPU) counts() (quiet, noisy int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, t := range f.ticks {
		if t > f.limit {
			noisy++
		}
	}
	return len(f.ticks) - noisy, noisy
}

// read returns the machine's busy ticks, steal included, less the
// ticks this process and the servers used.
func (f *foreignCPU) read() (float64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	var busy float64
	// user nice system idle iowait irq softirq steal: user, nice, system
	// and steal. Interrupt time is left out, as the servers' own disk and
	// network traffic causes most of it.
	for _, i := range []int{1, 2, 3, 8} {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return 0, false
		}
		busy += v
	}
	for _, pid := range append([]int{os.Getpid()}, f.pids...) {
		own, err := processTicks(pid)
		if err != nil {
			return 0, false
		}
		busy -= own
	}
	return busy, true
}

// processTicks is the user and system time of a process, all its
// threads, in clock ticks.
func processTicks(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	_, rest, ok := strings.Cut(string(b), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return utime + stime, nil
}

// quiet marks the windows, of the first n, in which others took at
// most quietShare of the machine's CPU; when fewer than half qualify,
// the quieter half (the earlier window first among equals). Without
// samples for all n windows every window is marked.
func (f *foreignCPU) quiet(n int) []bool {
	keep := make([]bool, n)
	if len(f.ticks) < n {
		for i := range keep {
			keep[i] = true
		}
		return keep
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return f.ticks[order[a]] < f.ticks[order[b]] })
	for k, i := range order {
		if k >= (n+1)/2 && f.ticks[i] > f.limit {
			break
		}
		keep[i] = true
	}
	return keep
}

// quietShare is the most foreign CPU, as a share of the machine's, a
// window may see and still count as quiet. /proc's tick accounting
// alone makes an idle machine read within ±2%.
const quietShare = 0.05

// share is the mean foreign CPU of the marked windows as a share of
// the machine's capacity.
func (f *foreignCPU) share(keep []bool) float64 {
	var sum float64
	var n int
	for i, k := range keep {
		if k && i < len(f.ticks) {
			sum += f.ticks[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / (clockTicks * window.Seconds() * float64(runtime.NumCPU()))
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100
