package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/wire"
)

// daemon is one reapd process launched by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done

	mu   sync.Mutex
	tail []string // last stderr lines, for failure reports
}

const daemonBootTimeout = 20 * time.Second

// startDaemon execs reapd on a loopback port chosen by the kernel and
// returns once it has announced its address on stderr. GOMAXPROCS=1 pins
// the daemon to one core so throughput measures the daemon, not the
// scheduler.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			if i := strings.Index(line, " at http://"); i >= 0 && strings.Contains(line, "serving") {
				select {
				case addrc <- line[i+len(" at http://"):]:
				default:
				}
			}
		}
		d.err = cmd.Wait()
		close(d.done)
	}()
	// Pin before and after the boot: threads the runtime starts in
	// between inherit the CPU from the thread that creates them, and the
	// second pass catches any created before the first.
	if err := pinDaemon(d.pid()); err != nil {
		d.kill()
		return nil, err
	}
	select {
	case d.addr = <-addrc:
		if err := pinDaemon(d.pid()); err != nil {
			d.kill()
			return nil, err
		}
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("reapd exited during boot (%v): %s", d.err, d.stderrTail())
	case <-time.After(daemonBootTimeout):
		d.kill()
		return nil, fmt.Errorf("reapd did not announce an address within %v: %s", daemonBootTimeout, d.stderrTail())
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

// stop drains the daemon with SIGTERM, escalating to SIGKILL after 10 s,
// and waits for it to exit.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return d.err
	case <-time.After(10 * time.Second):
		d.kill()
		return fmt.Errorf("reapd ignored SIGTERM for 10s: %s", d.stderrTail())
	}
}

// control is the benchmark's client for health and stats probes — kept
// apart from the load connections.
var control = &http.Client{Timeout: 5 * time.Second}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(ctx context.Context, base string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := control.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s/healthz: %w (last error %v)", base, ctx.Err(), err)
		case <-time.After(time.Millisecond):
		}
	}
}

// fetchStats reads GET /v1/stats.
func fetchStats(base string) (*wire.StatsResponse, error) {
	resp, err := control.Get(base + "/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	var st wire.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return &st, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTimes is a process's cumulative user and system CPU time.
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }
func (c cpuTimes) total() time.Duration    { return c.user + c.sys }

// procCPU reads utime and stime (fields 14 and 15) of /proc/<pid>/stat.
func procCPU(pid int) (cpuTimes, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis, starting with field 3.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return cpuTimes{}, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return cpuTimes{}, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return cpuTimes{}, err
	}
	return cpuTimes{time.Duration(ut) * clockTick, time.Duration(st) * clockTick}, nil
}

// selfCPU reads the benchmark process's own CPU time via getrusage,
// which has microsecond resolution.
func selfCPU() cpuTimes {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return cpuTimes{
		time.Duration(ru.Utime.Nano()),
		time.Duration(ru.Stime.Nano()),
	}
}

// peakRSSMB reads VmHWM, the peak resident set, of /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
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
	return 0, errors.New("no VmHWM in /proc status")
}
