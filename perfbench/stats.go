package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs,
// which it sorts in place. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(p*float64(len(xs))+0.999999999) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// quartiles returns the first quartile, median and third quartile of
// xs by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads computed here agree with a script
// that checks the benchmark from its printed results. One value is its
// own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		lo := s[min(max(j-1, 0), n-1)]
		hi := s[min(j, n-1)]
		return (lo*float64(4-delta) + hi*float64(delta)) / 4
	}
	mid := s[n/2]
	if n%2 == 0 {
		mid = (s[n/2-1] + s[n/2]) / 2
	}
	return cut(1), mid, cut(3)
}

// host is the provenance every result records: what machine and which
// source tree produced the numbers.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DataFS     string `json:"data_fs"`
	GitRev     string `json:"git_rev"`
	GitDirty   string `json:"git_dirty"`
	SourceHash string `json:"source_sha256"`
}

func probeHost(root, dataDir string) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		DataFS:     fsType(dataDir),
		GitRev:     "none (not a git checkout)",
		GitDirty:   "unknown",
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
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if out, err := gitOutput(root, "rev-parse", "HEAD"); err == nil {
		h.GitRev = strings.TrimSpace(out)
		if st, err := gitOutput(root, "status", "--porcelain", "--untracked-files=no"); err == nil {
			h.GitDirty = "clean"
			if strings.TrimSpace(st) != "" {
				h.GitDirty = "dirty"
			}
		}
	}
	h.SourceHash = sourceHash(root)
	return h
}

func gitOutput(root string, args ...string) (string, error) {
	cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
	cmd.Stderr = io.Discard
	out, err := cmd.Output()
	return string(out), err
}

// sourceHash digests every Go source and module file under root (the
// build directory excluded), so a result identifies the code it
// measured even where the checkout carries no git metadata.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	sum := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(sum, rel)
		sum.Write([]byte{0})
		sum.Write(b)
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x9123683E: "btrfs",
		0x2FC12FC1: "zfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x858458f6: "ramfs",
		0x01021997: "9p",
		0xf2f52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
