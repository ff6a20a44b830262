package experiments

import (
	"sort"
	"testing"
)

// expectedExperiments is the full catalogue every build must register.
var expectedExperiments = []string{
	"bigworld", "chaos", "churn", "cpuusage", "fig10", "fig11", "fig12",
	"fig2", "fig5", "fig6", "fig7", "fig7mtu", "fig8", "fig9", "incast",
	"loadsweep", "multiclient", "table1", "table2",
}

func TestRegistryCatalogue(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range expectedExperiments {
		if !have[want] {
			t.Errorf("experiment %q not registered", want)
		}
	}
	if len(names) != len(expectedExperiments) {
		t.Errorf("registered %d experiments, want %d: %v", len(names), len(expectedExperiments), names)
	}
}

func TestRegistryLookup(t *testing.T) {
	e, ok := Lookup("fig6")
	if !ok {
		t.Fatal("fig6 not registered")
	}
	if e.Name() != "fig6" || e.Describe() == "" {
		t.Errorf("fig6 metadata wrong: name=%q desc=%q", e.Name(), e.Describe())
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup(fig99) should fail")
	}
	all := All()
	if len(all) != len(Names()) {
		t.Errorf("All() returned %d, Names() %d", len(all), len(Names()))
	}
	for i, n := range Names() {
		if all[i].Name() != n {
			t.Errorf("All()[%d] = %q, want %q", i, all[i].Name(), n)
		}
	}
}

// TestRegistryPoints checks every experiment's decomposition contract:
// contiguous indexes, unique keys, and a stable point list.
func TestRegistryPoints(t *testing.T) {
	for _, e := range All() {
		pts := e.Points()
		if len(pts) == 0 {
			t.Errorf("%s: no points", e.Name())
			continue
		}
		keys := map[string]bool{}
		for i, p := range pts {
			if p.Index != i {
				t.Errorf("%s: point %d has Index %d", e.Name(), i, p.Index)
			}
			if p.Key == "" {
				t.Errorf("%s: point %d has empty key", e.Name(), i)
			}
			if keys[p.Key] {
				t.Errorf("%s: duplicate point key %q", e.Name(), p.Key)
			}
			keys[p.Key] = true
		}
		again := e.Points()
		if len(again) != len(pts) {
			t.Errorf("%s: Points() unstable: %d then %d", e.Name(), len(pts), len(again))
			continue
		}
		for i := range pts {
			if again[i] != pts[i] {
				t.Errorf("%s: Points()[%d] unstable: %+v then %+v", e.Name(), i, pts[i], again[i])
			}
		}
	}
}

// TestRegistryPointCounts pins every registry decomposition to the
// exported sweep grids and lineup lists that the bench module and the
// shape tests also iterate, so the two cannot drift apart.
func TestRegistryPointCounts(t *testing.T) {
	lineup := len(DefaultLineup())
	want := map[string]int{
		"bigworld":    len(BigWorldLineup()),
		"chaos":       len(ChaosLevels) * len(Stacks()),
		"fig6":        len(Fig6Sizes) * lineup,
		"fig7":        len(Fig7Sizes) * len(Fig7Concurrency) * lineup,
		"fig7mtu":     len(Fig7MTUConcurrency) * len(Fig7MTUs) * 2,
		"cpuusage":    len(CPUUsageLineup()),
		"fig8":        len(Fig8Values) * len(Fig8Workloads) * len(RedisLineup()),
		"fig9":        len(Fig9Depths) * lineup,
		"fig10":       len(Fig10Sizes) * 3,
		"fig11":       len(Fig11Sizes) * 2,
		"fig12":       len(Fig12Sizes) * len(Fig12Modes),
		"fig2":        len(fig2Scenarios),
		"fig5":        len(Fig5()),
		"table1":      len(Table1()),
		"table2":      1,
		"incast":      len(IncastClients) * len(IncastSizes) * lineup,
		"loadsweep":   len(LoadSweepLoads) * lineup,
		"multiclient": len(MulticlientCounts) * lineup,
	}
	for name, n := range want {
		e, ok := Lookup(name)
		if !ok {
			t.Errorf("%s not registered", name)
			continue
		}
		if got := len(e.Points()); got != n {
			t.Errorf("%s: %d points, want %d (registry out of sync with its grid)", name, got, n)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate register did not panic")
		}
	}()
	register("fig6", "dup", func([]StackSpec) []pointSpec { return nil })
}

func TestRunOutOfRangePoint(t *testing.T) {
	e, _ := Lookup("fig2")
	res := e.Run(Point{Index: 99, Key: "bogus"})
	if res.Err == "" {
		t.Error("out-of-range point should report an error")
	}
	if res.Experiment != "fig2" {
		t.Errorf("error result should carry the experiment name, got %q", res.Experiment)
	}
}

// TestRunRecoversPanic checks that a panicking point surfaces as
// Result.Err rather than killing the worker pool.
func TestRunRecoversPanic(t *testing.T) {
	e := &specExperiment{name: "boom", desc: "test", build: func([]StackSpec) []pointSpec {
		return []pointSpec{{Key: "p0", Run: func() (Values, error) { panic("kaboom") }}}
	}}
	res := Run(e, RunOptions{Workers: 2})
	if len(res) != 1 || res[0].Err != "kaboom" {
		t.Errorf("want recovered panic in Err, got %+v", res)
	}
}
