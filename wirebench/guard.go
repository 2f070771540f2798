package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
)

// idleGuardArg makes the binary run as one idle-guard spinner.
const idleGuardArg = "--idle-guard-spinner"

// idleGuard keeps every CPU busy with a lowest-priority spinner process
// while the benchmark runs. On a virtual machine each time a CPU halts and
// wakes, the hypervisor may run another tenant first; runs without the
// guard measured that steal (wall-clock metrics moved by 20–40% with it),
// while with every CPU spinning at nice 19 steal stays near zero and the
// program's goroutines still preempt the spinners at once. The spinners'
// CPU time is their own: it is not in this process's rusage.
type idleGuard struct {
	cmds []*exec.Cmd
}

// startIdleGuard starts n spinners. The kernel kills each one if this
// process dies first.
func startIdleGuard(n int) (*idleGuard, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("idle guard: %w", err)
	}
	g := &idleGuard{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, idleGuardArg)
		// One thread, never preempted by signal: the loop allocates
		// nothing, so no collection ever needs it to stop.
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1", "GODEBUG=asyncpreemptoff=1")
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			g.stop()
			return nil, fmt.Errorf("idle guard: %w", err)
		}
		g.cmds = append(g.cmds, cmd)
	}
	return g, nil
}

// stop kills the spinners and waits for them.
func (g *idleGuard) stop() {
	for _, cmd := range g.cmds {
		cmd.Process.Kill() //nolint:errcheck // it may be gone already
		cmd.Wait()         //nolint:errcheck // killed on purpose
	}
	g.cmds = nil
}

// runSpinner is one spinner: every thread of the process drops to nice
// 19, and the main thread spins until the parent kills it.
func runSpinner() int {
	runtime.LockOSThread()
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench: idle guard:", err)
		return 1
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err == nil {
			err = syscall.Setpriority(syscall.PRIO_PROCESS, tid, 19)
		}
		if err != nil && !errors.Is(err, syscall.ESRCH) { // ESRCH: the thread has exited
			fmt.Fprintln(os.Stderr, "wirebench: idle guard:", err)
			return 1
		}
	}
	for {
	}
}
