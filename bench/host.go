package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// host is the stamp every result document carries: without it a number
// cannot be compared with one taken elsewhere.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Commit     string `json:"git_commit"`
}

func (h host) String() string {
	return fmt.Sprintf("%d cpu (GOMAXPROCS %d), %s, %s, %s, commit %s", h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.OS, h.GoVersion, h.Commit)
}

func hostStamp() host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", OS: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.OS += " " + strings.TrimSpace(string(rel))
	}
	// The commit is stamped into the binary when it was built inside a
	// git checkout; otherwise ask git, and accept that an exported tree
	// has no commit to report.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}
