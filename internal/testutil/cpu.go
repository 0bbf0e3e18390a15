package testutil

import (
	"os"
	"runtime"
	"strings"
)

// HostAVX2 reports whether this host can run tensor's AVX2 tiles, read from
// the kernel's /proc/cpuinfo flags rather than from the tiles' own CPUID
// check, so a test that pins the dispatch also catches a detection bug.
// known is false on amd64 hosts without a readable /proc/cpuinfo; other
// architectures have no tiles at all.
func HostAVX2() (has, known bool) {
	if runtime.GOARCH != "amd64" {
		return false, true
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false, false
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(flags) {
				if f == "avx2" {
					return true, true
				}
			}
			return false, true
		}
	}
	return false, false
}
