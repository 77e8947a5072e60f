package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark builds; the root .gitignore
// lists it.
const buildDir = ".bench_build"

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// buildDaemon compiles cmd/heax-serve from the checkout's source.
func buildDaemon() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "heax-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/heax-serve")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/heax-serve: %w", err)
	}
	return bin, nil
}

// daemon is one heax-serve child process on loopback.
type daemon struct {
	cmd         *exec.Cmd
	addr        string // protocol listener
	metricsAddr string // empty unless started with metrics
	started     time.Time

	logMu sync.Mutex
	log   bytes.Buffer
	exit  chan struct{} // closed once the process has been waited for
	err   error         // Wait's result, valid after exit closes
}

var (
	listenRe  = regexp.MustCompile(` on (127\.0\.0\.1:\d+) \(`)
	metricsRe = regexp.MustCompile(`metrics on http://(127\.0\.0\.1:\d+)/metrics`)
)

// startDaemon execs the daemon with the parameter set and extra flags,
// and returns once its protocol listener is up. started is taken just
// before exec, so set-up time includes process start and parameter
// generation.
func startDaemon(bin, paramSet string, traced bool, extra []string) (*daemon, error) {
	args := []string{"-params", paramSet, "-addr", "127.0.0.1:0", "-drain", "10s",
		"-trace-steps=" + strconv.FormatBool(traced)}
	if traced {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	args = append(args, extra...)
	d := &daemon{cmd: exec.Command(bin, args...), exit: make(chan struct{})}
	d.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))
	// Should the benchmark process die without stopping it, the kernel
	// kills the daemon too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting heax-serve: %w", err)
	}
	ready := make(chan struct{})
	go d.readLog(stderr, traced, ready)
	go func() {
		d.err = d.cmd.Wait()
		close(d.exit)
	}()
	select {
	case <-ready:
		return d, nil
	case <-d.exit:
		return nil, fmt.Errorf("heax-serve exited during start-up (%v):\n%s", d.err, d.logText())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("heax-serve did not start listening within 60s:\n%s", d.logText())
	}
}

// readLog keeps the daemon's stderr drained (so it never blocks on a
// full pipe), and signals ready once the listen addresses are known.
func (d *daemon) readLog(r io.Reader, traced bool, ready chan struct{}) {
	sc := bufio.NewScanner(r)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		d.logMu.Lock()
		d.log.WriteString(line + "\n")
		if m := metricsRe.FindStringSubmatch(line); m != nil {
			d.metricsAddr = m[1]
		}
		if m := listenRe.FindStringSubmatch(line); m != nil {
			d.addr = m[1]
		}
		up := d.addr != "" && (!traced || d.metricsAddr != "")
		d.logMu.Unlock()
		if up && !signalled {
			signalled = true
			close(ready)
		}
	}
	_, _ = io.Copy(io.Discard, r)
}

func (d *daemon) logText() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

// stop drains the daemon with SIGTERM and waits for it to exit; a
// daemon that does not finish draining is killed. It reports a drain
// that did not end clean.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return err
	}
	select {
	case <-d.exit:
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("heax-serve did not drain within 30s")
	}
	if d.err != nil {
		return fmt.Errorf("heax-serve exited with %v:\n%s", d.err, d.logText())
	}
	return nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exit
}

// cpuSeconds is the daemon's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB is the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape reads the daemon's Prometheus exposition into series → value,
// keyed by the full series text (name plus labels).
func (d *daemon) scrape(client *http.Client) (series, error) {
	resp, err := client.Get("http://" + d.metricsAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping metrics: %s", resp.Status)
	}
	return parseExposition(resp.Body)
}

type series map[string]float64

func parseExposition(r io.Reader) (series, error) {
	out := make(series)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// family sums every series of one metric name (all label values).
func (s series) family(name string) float64 {
	total := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}
