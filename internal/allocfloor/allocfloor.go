// Package allocfloor reads the allocation ratchet, scripts/allocs_floor.txt:
// named allocs/op ceilings that the TestAllocsCeiling* tests of several
// packages enforce with testing.AllocsPerRun.
package allocfloor

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
)

// path locates the ratchet from a package test's working directory, its
// package directory, which sits two levels below the repository root
// (internal/<pkg>).
const path = "../../scripts/allocs_floor.txt"

// Ceiling returns the ceiling named name, failing tb when the file has
// no such entry or the entry does not parse.
func Ceiling(tb testing.TB, name string) float64 {
	tb.Helper()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				tb.Fatalf("allocs_floor.txt: bad ceiling %q: %v", line, err)
			}
			return v
		}
	}
	tb.Fatalf("allocs_floor.txt: no ceiling named %q", name)
	return 0
}
