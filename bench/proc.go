package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// procKB reads a "Vm...:   N kB" line of /proc/<pid>/status ("self" for
// this process), in kB.
func procKB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%s/status %s: %w", pid, field, err)
		}
		return v, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/%s/status: no %s", pid, field)
}

// peakRSSMB is this process's peak resident set (VmHWM) in MB, or 0 when
// /proc is unavailable (report() then fails the run).
func peakRSSMB() float64 {
	kb, err := procKB("self", "VmHWM")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 0
	}
	return kb / 1024
}
