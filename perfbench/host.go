package main

import (
	"crypto/sha256"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostRecord describes the machine a run measured on. None of it is
// compared between commits: it exists so that a run which lost a core
// (calib2 near twice calib1) is recognised as a host event and not
// mistaken for a program regression.
type hostRecord struct {
	NumCPU     int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	LoadAvg    [3]float64 `json:"loadavg"`
	// Calib1Ms and Calib2Ms time a fixed sha256 loop on one and on two
	// goroutines, before and after the workload.
	Calib1Ms [2]float64 `json:"host.calib1_ms"`
	Calib2Ms [2]float64 `json:"host.calib2_ms"`
}

func newHostRecord() *hostRecord {
	return &hostRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LoadAvg:    loadAvg(),
	}
}

// calibrate fills slot i (0 before the workload, 1 after).
func (h *hostRecord) calibrate(i int) {
	h.Calib1Ms[i] = ms(calibLoop(1))
	h.Calib2Ms[i] = ms(calibLoop(2))
}

// calibBlocks is the per-goroutine work of one calibration: about
// 100 ms of hashing on one core of a current x86 server.
const calibBlocks = 40000

// calibLoop hashes calibBlocks 4 KiB blocks on each of n goroutines and
// returns the wall time. With n free cores it takes as long as n = 1.
func calibLoop(n int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var block [4096]byte
			for i := 0; i < calibBlocks; i++ {
				sum := sha256.Sum256(block[:])
				block[i%len(block)] ^= sum[0]
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// loadAvg reads the 1, 5 and 15 minute load averages (zeros where
// /proc is unavailable).
func loadAvg() [3]float64 {
	var out [3]float64
	blob, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return out
	}
	for i, f := range strings.Fields(string(blob)) {
		if i >= 3 {
			break
		}
		out[i], _ = strconv.ParseFloat(f, 64)
	}
	return out
}

// residentBytes reads the process's current resident set (VmRSS), or 0
// where /proc is unavailable.
func residentBytes() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb * 1024
			}
		}
	}
	return 0
}
