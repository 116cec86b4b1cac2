package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Placement. On the small VMs this benchmark runs on, where a process
// runs moves its numbers more than most code changes would: the host
// charges steal time for waking an idle vCPU on every cross-process
// hand-off, and where the kernel places the daemon relative to the load
// generator changes from run to run. The benchmark therefore
//
//   - pins itself (the load clients, the stream follower and, on
//     fleet-sim, sim.Run) to the first allowed CPU and reapd to the
//     second, so throughput measures the daemon and not the scheduler;
//   - keeps every CPU busy with a SCHED_IDLE spinner for the whole run.
//     The kernel runs a SCHED_IDLE thread only when nothing else is
//     runnable and preempts it on every wake-up, so the spinner takes no
//     time from the daemon, the clients or sim.Run.
//
// With one allowed CPU nothing is pinned.

// schedIdle is Linux's SCHED_IDLE policy number.
const schedIdle = 5

// cpuSet is a Linux cpu_set_t.
type cpuSet [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var set cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for i := 0; i < len(set)*64; i++ {
		if set[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// pinThread restricts one thread (0: the calling thread) to cpus.
func pinThread(tid int, cpus ...int) error {
	var set cpuSet
	for _, cpu := range cpus {
		set[cpu/64] |= 1 << (cpu % 64)
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 && errno != syscall.ESRCH {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	return nil
}

// pinProcess restricts every thread of pid to cpus. Threads the process
// creates later inherit the setting from their creator.
func pinProcess(pid int, cpus ...int) error {
	tasks, err := os.ReadDir("/proc/" + strconv.Itoa(pid) + "/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := pinThread(tid, cpus...); err != nil {
			return err
		}
	}
	return nil
}

// placement is where the benchmark and the daemon run; daemon -1 leaves
// everything unpinned.
type placement struct {
	all           []int
	bench, daemon int
}

var place = placement{bench: -1, daemon: -1}

// pinSelf pins this process to the first allowed CPU and reserves the
// second for reapd.
func pinSelf() error {
	cpus, err := allowedCPUs()
	if err != nil || len(cpus) < 2 {
		return err
	}
	place = placement{all: cpus, bench: cpus[0], daemon: cpus[1]}
	return pinProcess(os.Getpid(), place.bench)
}

// unpinSelf lets this process use every allowed CPU again: the traced
// window serves the service in-process, on the daemon's CPU as well.
func unpinSelf() error {
	if place.daemon < 0 {
		return nil
	}
	return pinProcess(os.Getpid(), place.all...)
}

// pinDaemon moves a freshly started reapd to its CPU.
func pinDaemon(pid int) error {
	if place.daemon < 0 {
		return nil
	}
	return pinProcess(pid, place.daemon)
}

// startSpinner re-executes this binary in spin mode. The caller stops it
// with stopSpinner.
func startSpinner() (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-spin")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the CPU spinner: %w", err)
	}
	return cmd, nil
}

// stopSpinner kills the spinner and waits for it to exit.
func stopSpinner(cmd *exec.Cmd) {
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
}

// spin is the spinner process: one SCHED_IDLE thread pinned to each
// allowed CPU, spinning until the process is killed.
func spin() {
	cpus, err := allowedCPUs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: spinner: %v\n", err)
		os.Exit(1)
	}
	runtime.GOMAXPROCS(len(cpus) + 1)
	for _, cpu := range cpus {
		go func(cpu int) {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			// Thread id 0 is the calling thread: this goroutine's own.
			var err error
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
				err = fmt.Errorf("sched_setscheduler: %w", errno)
			} else if len(cpus) > 1 {
				err = pinThread(0, cpu)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: spinner: %v\n", err)
				os.Exit(1)
			}
			for {
			}
		}(cpu)
	}
	select {}
}
