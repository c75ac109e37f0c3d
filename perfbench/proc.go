package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSnap is the process's resource counters at one instant; the
// difference of two bounds a measurement window.
type procSnap struct {
	wall    time.Time
	cpu     time.Duration // user + system
	mallocs uint64
	numGC   uint32
}

func takeSnap() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{wall: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, numGC: ms.NumGC}
}

// window is the difference between two snapshots.
type window struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
}

func (a procSnap) to(b procSnap) window {
	return window{wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, mallocs: b.mallocs - a.mallocs, gcs: b.numGC - a.numGC}
}

// cpuUtil is CPU time over the wall time the available cores offer.
func (w window) cpuUtil() float64 {
	return w.cpu.Seconds() / (w.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
