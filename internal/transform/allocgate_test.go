//go:build !race

// The race detector instruments allocations, so allocs/op under -race
// overstate the real figure; the budgets are measured in non-race builds
// only (make bench-smoke runs this file without -race).

package transform

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/parallel"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// TestAllocBudget is the CI allocation gate (run by `make bench-smoke`):
// it replays the BENCH_maintain.json workloads at workers=1 and fails
// when allocs/op regress more than 20% past the recorded budget. The
// budgets live in the benchmark baseline file so re-baselining perf and
// tightening the gate are the same edit.
const allocBudgetSlack = 1.20

func allocBudgets(t *testing.T) map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_maintain.json"))
	if err != nil {
		t.Fatalf("read alloc budgets: %v", err)
	}
	var doc struct {
		AllocsPerOp map[string]float64 `json:"allocs_per_op"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parse BENCH_maintain.json: %v", err)
	}
	if len(doc.AllocsPerOp) == 0 {
		t.Fatal("BENCH_maintain.json has no allocs_per_op budgets")
	}
	return doc.AllocsPerOp
}

func checkAllocBudget(t *testing.T, budgets map[string]float64, key string, run func()) {
	t.Helper()
	budget, ok := budgets[key]
	if !ok {
		t.Fatalf("BENCH_maintain.json has no allocs_per_op budget for %q", key)
	}
	run() // warm pools and the page heap outside the measured runs
	got := testing.AllocsPerRun(3, run)
	limit := budget * allocBudgetSlack
	if got > limit {
		t.Errorf("%s: %.0f allocs/op exceeds budget %.0f (+20%% = %.0f); if intentional, re-baseline BENCH_maintain.json",
			key, got, budget, limit)
	} else {
		t.Logf("%s: %.0f allocs/op (budget %.0f, limit %.0f)", key, got, budget, limit)
	}
}

func TestAllocBudget(t *testing.T) {
	budgets := allocBudgets(t)

	srcStd := dataset.Dense([]int{256, 256}, 1)
	checkAllocBudget(t, budgets, "ChunkedStandard/workers=1", func() {
		tiling := tile.NewStandard([]int{8, 8}, 2)
		st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ChunkedStandardOpts(srcStd, 5, st, parallel.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})

	srcNon := dataset.Dense([]int{256, 256}, 2)
	checkAllocBudget(t, budgets, "ChunkedNonStandard/workers=1", func() {
		tiling := tile.NewNonStandard(8, 2, 2)
		st, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ChunkedNonStandardOpts(srcNon, 5, st,
			NonStdOptions{ZOrderCrest: true}, parallel.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
}
