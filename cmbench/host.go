package main

import (
	"os"
	"runtime"
	"strings"
	"time"
)

// hostStamp records the machine a result came from, so figures are only
// compared between like hosts.
type hostStamp struct {
	Time            string  `json:"time"`
	CPUModel        string  `json:"cpu_model"`
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	LoadAvg         string  `json:"loadavg"`
	MemAvailableMiB float64 `json:"mem_available_mib"`
	// LowMemory flags a run that started with less free memory than the
	// workload's recorded daemon peak RSS.
	LowMemory bool `json:"low_memory,omitempty"`
}

func stampHost() hostStamp {
	h := hostStamp{
		Time:       time.Now().UTC().Format(time.RFC3339),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.Join(strings.Fields(string(data))[:3], " ")
	}
	if kb, err := procStatusKB("/proc/meminfo", "MemAvailable:"); err == nil {
		h.MemAvailableMiB = kb / 1024
	}
	return h
}
