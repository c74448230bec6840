package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// confine binds this process to one CPU, the highest-numbered one it may
// run on: every thread it has now, and so every thread and every child
// process it starts later, which inherit the binding. It returns that CPU.
// The Go runtime of a child sees one CPU and sets GOMAXPROCS to 1.
func confine() (int, error) {
	var mask [16]uint64 // 1024 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return -1, fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i, w := range mask {
		for b := 0; b < 64; b++ {
			if w&(1<<b) != 0 {
				cpu = i*64 + b
			}
		}
	}
	if cpu < 0 {
		return -1, fmt.Errorf("sched_getaffinity: empty mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	// Twice, so that a thread the runtime started during the first pass
	// from a thread not yet bound is bound by the second.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return -1, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
			if e != 0 && e != syscall.ESRCH { // a thread may have exited since the listing
				return -1, fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	return cpu, nil
}
