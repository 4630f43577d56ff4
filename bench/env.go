package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envInfo records where a set of numbers was taken; it is printed with every
// result so two sets from different boxes are never compared by accident.
type envInfo struct {
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
}

func readEnv() envInfo {
	e := envInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// processCPU returns the user+system CPU time this process has consumed.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// resetPeakRSS sets the process's RSS high-water mark back to its current
// RSS (clear_refs "5", Linux 4.0 and later), so that the next peakRSSMiB
// reads the peak since this call.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// sample is what one timed batch cost the whole process.
type sample struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	// peakRSS is the RSS high-water mark reached during the batch, in MiB.
	peakRSS float64
}

// meter brackets the timed region of a batch. The workload calls start and
// stop itself, because only it knows which part of a batch is set-up (a
// fresh fleet store, say) and which part is the work being measured.
type meter struct {
	t0   time.Time
	cpu0 time.Duration
	m0   uint64
	last sample
}

// start collects garbage first, so a batch never pays for the previous
// batch's allocations, resets the RSS high-water mark, then takes the
// readings.
func (m *meter) start() error {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if err := resetPeakRSS(); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	cpu, err := processCPU()
	if err != nil {
		return err
	}
	m.m0, m.cpu0, m.t0 = ms.Mallocs, cpu, time.Now()
	return nil
}

func (m *meter) stop() error {
	wall := time.Since(m.t0)
	cpu, err := processCPU()
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.last = sample{wall: wall, cpu: cpu - m.cpu0, mallocs: ms.Mallocs - m.m0, peakRSS: rss}
	return nil
}
