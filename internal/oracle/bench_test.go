package oracle

import (
	"testing"

	"fppc/internal/assays"
	"fppc/internal/core"
)

// serviceConfig is the compile service's sequence configuration: auto-grow
// with the pin program emitted at its default 12 rotations per step.
func serviceConfig() core.Config {
	cfg := VerifyConfig(core.TargetFPPC)
	cfg.Router.RotationsPerStep = 12
	return cfg
}

// BenchmarkOracleVerifyProtein3 measures one oracle replay of the
// Protein Split 3 program the service emits: the verify stage of a
// served compile, minus the simulator cross-check. Tracked by
// scripts/benchjson (BENCH.json) so benchdiff watches its allocations.
func BenchmarkOracleVerifyProtein3(b *testing.B) {
	res, err := core.Compile(assays.ProteinSplit(3, assays.DefaultTiming()), serviceConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := Verify(res.Chip, res.Routing.Program, res.Routing.Events, Options{}); !rep.Ok() {
			b.Fatal(rep.Err())
		}
	}
}
