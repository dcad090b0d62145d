package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// The stamp printed with every result, so that a ratio such as
// fotf.prog_over_memcpy is never read across machines.

// llcBytes reports the size of cpu0's highest-level cache, 0 if the
// kernel does not say.
func llcBytes() int64 {
	var best, bestLevel int64
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, err := readInt(filepath.Join(d, "level"), "")
		if err != nil || level <= bestLevel {
			continue
		}
		size, err := readInt(filepath.Join(d, "size"), "K")
		if err != nil {
			continue
		}
		best, bestLevel = size<<10, level
	}
	return best
}

func readInt(path, suffix string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(string(b)), suffix), 10, 64)
}

// fsName names the filesystem dir lives on.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("fs-0x%x", st.Type)
}

func stamp(tmp string) string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s LLC=%dKiB tmpdir_fs=%s ranks=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), llcBytes()>>10, fsName(tmp), ranks)
}
