package main

import (
	"syscall"
	"time"
	"unsafe"
)

// processCPU is the CPU time all threads of the process have used.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return -1
	}
	return time.Duration(ts.Nano())
}
