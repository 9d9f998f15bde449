package main

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"syscall"
)

// env is what a result was measured on. Two results are comparable only
// when their environments are equal.
type env struct {
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	CPU            string `json:"cpu"`
	GoVersion      string `json:"go_version"`
	Kernel         string `json:"kernel"`
	StoreFS        string `json:"store_fs"` // "none" unless the workload writes a store
	LevelsPerShard int    `json:"levels_per_shard"`
	BlockBytes     int    `json:"block_bytes"`
	Seed           uint64 `json:"seed"`
}

func hostEnv(seed uint64) env {
	return env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		StoreFS:    "none",
		BlockBytes: blockBytes,
		Seed:       seed,
	}
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794C7630: "overlay", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// compareEnv refuses to compare results measured on different
// environments, naming every field that differs.
func compareEnv(a, b env) error {
	var diffs []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if x, y := va.Field(i).Interface(), vb.Field(i).Interface(); x != y {
			name, _, _ := strings.Cut(va.Type().Field(i).Tag.Get("json"), ",")
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", name, x, y))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("environments differ: %s", strings.Join(diffs, "; "))
	}
	return nil
}
