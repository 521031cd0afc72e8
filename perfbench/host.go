package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark shares a virtual machine's two vCPUs with whatever else the
// hypervisor runs. When the host is busy it stalls the VM's vCPUs ("steal"
// time) for minutes at a time, and every wall-clock latency measured
// meanwhile grows by an amount that has nothing to do with the code under
// test: between calm and stolen stretches the same workload's search p50
// moved by 2x and the highest rate meeting a 25 ms p99 by more than 10x.
// The kernel keeps stolen time out of a process's CPU clock (paravirtual
// steal accounting), so the serving process's CPU time per operation is
// what the benchmark gates on, and the wall-clock figures are printed
// beside it. The host's load still moves that CPU time by about ±10%, as
// other tenants slow the same work down through shared caches and cores.

// processCPU returns the CPU time the process pid has used, all threads
// together, from its scheduler clock (clock_gettime on the clock
// clock_getcpuclockid(pid) names); 0 if the clock cannot be read.
func processCPU(pid int) time.Duration {
	// MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) from the kernel's
	// posix-timers.h; the kernel reads the clock ID as a 32-bit int.
	clock := int64(int32(^pid<<3 | 2))
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTicks is a reading of the kernel's cumulative CPU accounting.
type cpuTicks struct {
	busy, steal int64
	ok          bool
}

// readCPUTicks reads the aggregate "cpu" line of /proc/stat; ok is false
// where it is unavailable.
func readCPUTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]int64
	for i := range v {
		n, err := strconv.ParseInt(fields[i+1], 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		v[i] = n
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7], ok: true}
}

// stealFrac is the share of the CPU time demanded between readings a and b
// that the host stole; 0 when either reading is missing.
func stealFrac(a, b cpuTicks) float64 {
	if !a.ok || !b.ok {
		return 0
	}
	ticks := b.steal - a.steal
	return ratio(float64(ticks), float64(ticks+b.busy-a.busy))
}
