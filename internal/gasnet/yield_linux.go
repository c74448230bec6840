package gasnet

import "syscall"

// osYield is sched_yield(2); raw, or sysmon retakes the P of a waiter it thinks blocked.
func osYield() { syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
