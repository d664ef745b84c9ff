package main

import (
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// A guest CPU that goes idle halts, and waking it for the next request
// costs the hypervisor's scheduling latency, which on a shared host swings
// from run to run. Open-loop workloads at tens of requests per second idle
// between requests, so their latencies measured those swings more than the
// program. The spinner keeps every CPU busy at the lowest scheduling
// class (SCHED_IDLE), which any other thread preempts at once.

// schedIdle is Linux's SCHED_IDLE policy.
const schedIdle = 5

// spin runs one SCHED_IDLE busy loop per CPU until the process is killed.
func spin() {
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			runtime.LockOSThread()
			var param [1]int32
			// Best effort: without it the loop runs at normal priority
			// only in the unlikely case the kernel refuses a lower one.
			_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(syscall.Gettid()), schedIdle,
				uintptr(unsafe.Pointer(&param[0])))
			for {
			}
		}()
	}
	select {}
}

// startSpinner starts this binary as the spinner. The kernel kills it
// should this process die first; stop kills it and waits.
func startSpinner() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-spin")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() {
		_ = cmd.Process.Kill() // an error means it already exited
		_ = cmd.Wait()         // the kill is the expected exit status
	}, nil
}
