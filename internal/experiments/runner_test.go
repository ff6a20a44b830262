package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var hit [37]int32
		ForEach(len(hit), workers, func(i int) { atomic.AddInt32(&hit[i], 1) })
		for i, n := range hit {
			if n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak int32
	var mu sync.Mutex
	ForEach(50, workers, func(i int) {
		n := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
		atomic.AddInt32(&cur, -1)
	})
	if peak > workers {
		t.Errorf("observed %d concurrent invocations, want <= %d", peak, workers)
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("panic in fn should propagate")
		}
	}()
	ForEach(10, 4, func(i int) {
		if i == 7 {
			panic("worker failure")
		}
	})
}

// stripTiming zeroes the wall-clock field so runs can be compared.
func stripTiming(rs []Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		r.ElapsedMs = 0
		out[i] = r
	}
	return out
}

// TestParallelMatchesSerial is the core determinism contract: the same
// experiment run serially and with a wide worker pool yields identical
// results in identical order, because every point owns its world and
// results are slotted by point index.
func TestParallelMatchesSerial(t *testing.T) {
	e, _ := Lookup("fig2")
	serial := Run(e, RunOptions{Workers: 1})
	parallel := Run(e, RunOptions{Workers: 8})
	if !reflect.DeepEqual(stripTiming(serial), stripTiming(parallel)) {
		t.Errorf("fig2 parallel != serial:\n%+v\n%+v", parallel, serial)
	}

	if testing.Short() {
		return
	}
	// A simulation-heavy slice: the six 64 B points of fig6 exercise
	// engine scheduling, RNG streams and the full protocol stack.
	f6, _ := Lookup("fig6")
	pts := f6.Points()[:6]
	serial = RunPoints(f6, pts, RunOptions{Workers: 1})
	parallel = RunPoints(f6, pts, RunOptions{Workers: 6})
	if !reflect.DeepEqual(stripTiming(serial), stripTiming(parallel)) {
		t.Errorf("fig6 parallel != serial:\n%+v\n%+v", parallel, serial)
	}
	for _, r := range serial {
		if r.Err != "" {
			t.Errorf("point %s failed: %s", r.Key, r.Err)
		}
		if r.Values["mean_rtt_ns"] <= 0 {
			t.Errorf("point %s: non-positive RTT", r.Key)
		}
	}
}

// TestRunNamedConcurrentLineups runs fig6 on two lineups at once: the
// lineup is a value of each run, so neither run may see the other's
// stacks, and a stack both runs share must measure identically.
func TestRunNamedConcurrentLineups(t *testing.T) {
	custom := []StackSpec{mustStack("TCPLS"), mustStack("SMT-hw")}
	lineups := [][]StackSpec{custom, nil}
	runs := make([][]ExperimentRun, len(lineups))
	errs := make([]error, len(lineups))
	var wg sync.WaitGroup
	for i, l := range lineups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], errs[i] = RunNamed([]string{"fig6"}, RunOptions{Workers: 2, Lineup: l})
		}()
	}
	wg.Wait()

	values := map[string]Values{}
	for i, want := range [][]StackSpec{custom, DefaultLineup()} {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		var wantKeys []string
		for _, size := range Fig6Sizes {
			for _, s := range want {
				wantKeys = append(wantKeys, fmt.Sprintf("sys=%s/size=%d", s.Name, size))
			}
		}
		res := runs[i][0].Results
		if len(res) != len(wantKeys) {
			t.Fatalf("run %d: %d results, want %d", i, len(res), len(wantKeys))
		}
		for j, r := range res {
			if r.Err != "" || r.Key != wantKeys[j] {
				t.Fatalf("run %d point %d: key %q err %q, want key %q", i, j, r.Key, r.Err, wantKeys[j])
			}
			if prev, ok := values[r.Key]; ok && !reflect.DeepEqual(prev, r.Values) {
				t.Errorf("%s measured %v on one lineup, %v on the other", r.Key, prev, r.Values)
			}
			values[r.Key] = r.Values
		}
	}
}

func TestRunNamedUnknown(t *testing.T) {
	if _, err := RunNamed([]string{"fig2", "nope"}, RunOptions{}); err == nil {
		t.Error("unknown name should error")
	}
}

func TestRunNamedOnResultOrder(t *testing.T) {
	var n int32
	runs, err := RunNamed([]string{"fig5", "table1"}, RunOptions{
		Workers:  4,
		OnResult: func(Result) { atomic.AddInt32(&n, 1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].Name != "fig5" || runs[1].Name != "table1" {
		t.Fatalf("runs out of order: %+v", runs)
	}
	want := int32(len(runs[0].Results) + len(runs[1].Results))
	if n != want {
		t.Errorf("OnResult called %d times, want %d", n, want)
	}
	for _, run := range runs {
		for i, r := range run.Results {
			if r.Index != i {
				t.Errorf("%s results not in point order at %d", run.Name, i)
			}
		}
	}
}

// TestArtifactRoundTrip checks that a JSON artifact survives an
// encode/decode cycle bit-for-bit at the struct level.
func TestArtifactRoundTrip(t *testing.T) {
	runs, err := RunNamed([]string{"fig2", "fig5"}, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := &Artifact{
		Version:     ArtifactVersion,
		Tool:        "test",
		GoVersion:   "go-test",
		CreatedAt:   "2026-01-01T00:00:00Z",
		Workers:     4,
		Experiments: runs,
	}
	path := filepath.Join(t.TempDir(), "artifact.json")
	if err := WriteArtifact(path, a); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back := new(Artifact)
	if err := json.Unmarshal(img, back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Errorf("artifact did not round-trip:\nwrote %+v\nread  %+v", a, back)
	}
}
