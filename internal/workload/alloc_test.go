package workload_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/guest"
)

// TestIncludeSearchAllocatesNothing: an #include line costs the compiler
// no allocation once its header name is memoized, whether the search path
// misses it everywhere or finds it. A unit with 400 include lines is
// compiled against the same unit with none; each is compiled once to warm
// the path memo and the kernel's descriptor list, then measured as the
// least of three compiles. The object of the missing-header unit is larger
// and may grow its buffer once or twice, which 400 lines amortize.
func TestIncludeSearchAllocatesNothing(t *testing.T) {
	const lines = 400
	body := "int f(void) { return 1; }\n"
	var found, missing strings.Builder
	files := map[string]string{"/tmp/none.c": body}
	for i := range lines {
		fmt.Fprintf(&found, "#include <f%03d.h>\n", i)
		fmt.Fprintf(&missing, "#include <m%03d.h>\n", i)
		files[fmt.Sprintf("/usr/include/f%03d.h", i)] = fmt.Sprintf("#define F%03d 1\n", i)
	}
	files["/tmp/found.c"] = found.String() + body
	files["/tmp/missing.c"] = missing.String() + body

	perLine := map[string]float64{}
	boot(t, 1, files, func(p *guest.Proc) int {
		p.Chdir("/tmp")
		compile := func(unit string) int { return spawnTool(p, "/bin/cc", "cc", "-o", "unit.o", unit) }
		mallocs := func(unit string) float64 {
			if compile(unit) != 0 {
				t.Errorf("cc %s failed", unit)
			}
			least := uint64(1 << 63)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				compile(unit)
				runtime.ReadMemStats(&after)
				least = min(least, after.Mallocs-before.Mallocs)
			}
			return float64(least)
		}
		none := mallocs("none.c")
		for _, kind := range []string{"missing", "found"} {
			perLine[kind] = (mallocs(kind+".c") - none) / lines
		}
		return 0
	})
	for _, kind := range []string{"missing", "found"} {
		if got := perLine[kind]; got >= 0.05 {
			t.Errorf("%s headers: %.3f mallocs per include line, want < 0.05", kind, got)
		} else {
			t.Logf("%s headers: %.3f mallocs per include line", kind, got)
		}
	}
}
