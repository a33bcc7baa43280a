package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostStamp records what a result was measured on and of: CPU count and
// model, Go toolchain, the commit when the checkout is a git work tree,
// and a digest of the Go sources and module files (which identifies the
// code under test in a checkout without git metadata).
func hostStamp(root string) map[string]any {
	st := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "",
		"source":     sourceDigest(root),
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		st["commit"] = strings.TrimSpace(string(out))
	}
	return st
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// sourceDigest hashes every .go, go.mod and go.sum file under root,
// skipping hidden directories and build output, in path order.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just drops out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		n := d.Name()
		if !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTicks is the host's aggregate CPU time from /proc/stat: all ticks,
// the busy ones (every tick but idle and iowait, steal included), and
// the ticks the hypervisor gave to other guests (steal).
type cpuTicks struct{ total, busy, steal float64 }

func hostSteal() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += x
		switch i { // user nice system idle iowait irq softirq steal
		case 3, 4:
			continue
		case 7:
			t.steal = x
		}
		t.busy += x
	}
	return t
}

// since returns the share of CPU time stolen between two readings.
func (t cpuTicks) since(before cpuTicks) float64 {
	return ratio(t.steal-before.steal, t.total-before.total)
}

// stolen returns the share of the time the VM's CPUs wanted to run
// between two readings that the hypervisor gave to other guests. A
// CPU-bound task took 1/(1 − stolen) times as long as it would have on
// a host of its own: an idle CPU accrues no steal, so this is the share
// of busy time, not of all time.
func (t cpuTicks) stolen(before cpuTicks) float64 {
	return ratio(t.steal-before.steal, t.busy-before.busy)
}
