package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// The benchmark times ops in CPU time scaled to a reference host speed.
//
// On a shared virtual machine the speed of a core drifts by tens of percent
// within minutes (noisy neighbours, steal), so wall-clock latency of the
// same op differs far more between runs than any change worth detecting.
// Two measures remove most of that: an op's cost is the CPU time the whole
// process spends on it (all threads, garbage collection included, steal
// excluded), and that CPU time is divided by the CPU time a fixed reference
// kernel, run between ops, takes around the op (see window.scale), then
// multiplied by refNominal. The reported milliseconds are therefore CPU
// milliseconds on a host where the reference kernel takes refNominal; the
// wall-clock figures are kept in the run's detail line.

// refNominal is the reference kernel's CPU time on the reference host (a
// 2-vCPU Intel Xeon virtual machine, Go 1.24).
const refNominal = 0.003

// refTable is the reference kernel's working set: 1 MiB, larger than the
// core-private caches, like the simulator's per-machine state across a fleet.
var refTable [1 << 17]uint64

// refKernel is the reference work: a pseudo-random read-modify-write walk
// over refTable with data-dependent branches and floating point, the mix of
// the simulator's tick loop. Its result feeds refSink so it cannot be
// optimised away.
func refKernel() {
	x := uint64(88172645463325252)
	f := 0.0
	for i := 0; i < 350_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (uint64(len(refTable)) - 1)
		refTable[j] += x
		if refTable[(j*7)&(uint64(len(refTable))-1)]&3 == 0 {
			f = f*0.5 + float64(x&1023)
		}
	}
	refSink += x + uint64(f)
}

var refSink uint64

// refSeconds runs the reference kernel once on a locked thread and returns
// the CPU time that thread spent on it.
func refSeconds() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := cpuSeconds(clockThreadCPU)
	refKernel()
	return cpuSeconds(clockThreadCPU) - t0
}

// CPU-time clocks of clock_gettime(2). Unlike getrusage, whose per-thread
// figures follow the scheduler tick, they count nanoseconds actually run.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuSeconds reads one of the CPU-time clocks.
func cpuSeconds(clock int) float64 {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return float64(ts.Nano()) / 1e9
}
