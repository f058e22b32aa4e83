package shiftsplit

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// TestVersionedStoreMatchesPlain proves the epoch layer is transparent to
// the maintenance and query semantics: a versioned store and a plain store
// driven through the identical pipeline agree bit-for-bit at every step.
func TestVersionedStoreMatchesPlain(t *testing.T) {
	for _, form := range []Form{Standard, NonStandard} {
		t.Run(form.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			src := randArray(rng, 16, 16)
			mk := func(versioned bool) *Store {
				st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: form, TileBits: 1, Versioned: versioned})
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			ver, plain := mk(true), mk(false)
			defer ver.Close()
			defer plain.Close()
			if !ver.Versioned() || plain.Versioned() {
				t.Fatal("Versioned() flag wrong")
			}

			step := func(name string) {
				t.Helper()
				a, err := ver.ReadTransform()
				if err != nil {
					t.Fatalf("%s: versioned read: %v", name, err)
				}
				b, err := plain.ReadTransform()
				if err != nil {
					t.Fatalf("%s: plain read: %v", name, err)
				}
				if !equalExact(a, b) {
					t.Fatalf("%s: versioned and plain transforms diverge", name)
				}
			}

			if err := ver.TransformChunked(src, 2); err != nil {
				t.Fatal(err)
			}
			if err := plain.TransformChunked(src, 2); err != nil {
				t.Fatal(err)
			}
			step("chunked transform")
			if got := ver.CurrentEpoch(); got != 1 {
				t.Fatalf("epoch after transform = %d, want 1", got)
			}

			delta := randArray(rng, 4, 4)
			blk := CubeBlock(2, 1, 2)
			dh := Transform(delta, form)
			if err := ver.MergeBlock(blk, dh); err != nil {
				t.Fatal(err)
			}
			if err := plain.MergeBlock(blk, dh); err != nil {
				t.Fatal(err)
			}
			step("merge block")
			if got := ver.CurrentEpoch(); got != 2 {
				t.Fatalf("epoch after merge = %d, want 2", got)
			}

			if err := ver.Materialize(src); err != nil {
				t.Fatal(err)
			}
			if err := plain.Materialize(src); err != nil {
				t.Fatal(err)
			}
			for _, p := range [][]int{{0, 0}, {7, 3}, {15, 15}} {
				va, ia, err := ver.Point(p...)
				if err != nil {
					t.Fatal(err)
				}
				vb, ib, err := plain.Point(p...)
				if err != nil {
					t.Fatal(err)
				}
				if va != vb || ia != ib {
					t.Fatalf("point %v: versioned (%g, %d) != plain (%g, %d)", p, va, ia, vb, ib)
				}
			}
			sa, _, err := ver.RangeSum([]int{2, 2}, []int{8, 4})
			if err != nil {
				t.Fatal(err)
			}
			sb, _, err := plain.RangeSum([]int{2, 2}, []int{8, 4})
			if err != nil {
				t.Fatal(err)
			}
			// RangeSum's summation order is not deterministic run to run
			// (last-ulp wobble), so this comparison is tolerance-based.
			if d := sa - sb; d > 1e-9 || d < -1e-9 {
				t.Fatalf("range sum: versioned %g != plain %g", sa, sb)
			}
		})
	}
}

// TestVersionedStoreReopen exercises the on-disk epoch format end to end:
// transform + merge on a durable versioned store, reopen, verify state and
// epoch, and require a clean fsck that reports the superblock.
func TestVersionedStoreReopen(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src := randArray(rng, 16, 16)
	path := filepath.Join(t.TempDir(), "epoch.wav")
	st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: Standard, Path: path, Durable: true, Versioned: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.TransformChunked(src, 2); err != nil {
		t.Fatal(err)
	}
	delta := randArray(rng, 4, 4)
	if err := st.MergeBlock(CubeBlock(2, 0, 1), Transform(delta, Standard)); err != nil {
		t.Fatal(err)
	}
	want, err := st.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	wantEpoch := st.CurrentEpoch()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Versioned() {
		t.Fatal("reopened store lost the epoch layer")
	}
	if got := st2.CurrentEpoch(); got != wantEpoch {
		t.Fatalf("reopened epoch = %d, want %d", got, wantEpoch)
	}
	got, err := st2.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	if !equalExact(got, want) {
		t.Fatal("transform changed across close/reopen")
	}
	es, ok := st2.EpochStats()
	if !ok {
		t.Fatal("EpochStats not available on a versioned store")
	}
	if es.Epoch != wantEpoch || es.Pinned != 0 {
		t.Fatalf("epoch stats = %+v", es)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck not clean: %+v", rep)
	}
	if rep.Versioned == nil {
		t.Fatal("fsck of a versioned store reported no superblock")
	}
	if rep.Versioned.Epoch != wantEpoch {
		t.Fatalf("fsck superblock epoch = %d, want %d", rep.Versioned.Epoch, wantEpoch)
	}
}

// TestSnapshotOracleUnderMaintenance is the -race acceptance test for the
// tentpole: concurrent point, range, and full-transform queries during a
// stream of SHIFT-SPLIT merge batches never observe a mid-batch state.
// The writer records the exact transform it committed at each epoch, so
// the oracle is exact: every pinned snapshot must read a transform equal —
// coefficient for coefficient — to the one committed at the epoch it
// pinned. (The writer merges a delta in and back out, but +dh then −dh is
// not bit-exact in floating point, so successive states are recorded, not
// assumed.)
func TestSnapshotOracleUnderMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	src := randArray(rng, 8, 8)
	delta := randArray(rng, 4, 4)
	blk := CubeBlock(2, 1, 1)
	dh := Transform(delta, Standard)
	neg := Transform(delta, Standard)
	for i := range neg.Data() {
		neg.Data()[i] = -neg.Data()[i]
	}

	st, err := CreateStore(StoreOptions{Shape: []int{8, 8}, Form: Standard, TileBits: 1, Versioned: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.TransformChunked(src, 2); err != nil {
		t.Fatal(err)
	}

	// committed maps each epoch to the transform the writer committed there.
	// Only the writer mutates the store, so a snapshot it takes right after
	// a merge pins exactly the epoch that merge flipped to.
	var mu sync.Mutex
	committed := make(map[uint64]*Array)
	record := func() {
		t.Helper()
		snap := st.AcquireSnapshot()
		defer snap.Release()
		got, err := snap.ReadTransform()
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		committed[snap.Epoch()] = got
		mu.Unlock()
	}
	record()

	// Each reader keeps the first transform it read at each epoch and
	// requires every later read of that epoch to match it bit for bit; the
	// first reads are checked against the writer's record once it is done.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	seen := make([]map[uint64]*Array, 6)
	for g := range seen {
		seen[g] = make(map[uint64]*Array)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := st.AcquireSnapshot()
				got, err := snap.ReadTransform()
				if err != nil {
					t.Error(err)
					snap.Release()
					return
				}
				if first, ok := seen[g][snap.Epoch()]; !ok {
					seen[g][snap.Epoch()] = got
				} else if !equalExact(got, first) {
					t.Errorf("reader %d iter %d: epoch %d read two different transforms", g, i, snap.Epoch())
					snap.Release()
					return
				}
				p := []int{i % 8, (3 * i) % 8}
				if _, _, err := snap.Point(p...); err != nil {
					t.Error(err)
					snap.Release()
					return
				}
				snap.Release()
			}
		}(g)
	}

	for round := 0; round < 31; round++ {
		if err := st.MergeBlock(blk, dh); err != nil {
			t.Fatal(err)
		}
		record()
		if err := st.MergeBlock(blk, neg); err != nil {
			t.Fatal(err)
		}
		record()
	}
	close(stop)
	wg.Wait()

	for g, byEpoch := range seen {
		for epoch, got := range byEpoch {
			want, ok := committed[epoch]
			if !ok {
				t.Fatalf("reader %d pinned epoch %d, which the writer never committed", g, epoch)
			}
			if !equalExact(got, want) {
				t.Fatalf("reader %d (epoch %d): observed a mid-batch transform", g, epoch)
			}
		}
	}

	es, ok := st.EpochStats()
	if !ok {
		t.Fatal("no epoch stats")
	}
	if es.Pinned != 0 {
		t.Fatalf("snapshot leak: %d pins outstanding after readers exited", es.Pinned)
	}
}

// writeGate blocks device writes while engaged, letting reads through — a
// stand-in for a slow medium mid-commit. It slides under the durable
// store's checksum layer via BaseWrap.
type writeGate struct {
	storage.BlockStore
	gating  atomic.Bool
	release chan struct{}
	blocked atomic.Int64
}

func (g *writeGate) WriteBlock(id int, data []float64) error {
	if g.gating.Load() {
		g.blocked.Add(1)
		<-g.release
	}
	return g.BlockStore.WriteBlock(id, data)
}

// TestReadersProgressDuringMaterialize is the regression test for the
// Locked demotion: with a maintenance commit wedged mid-batch (device
// writes blocked, write lock held), N concurrent readers on a versioned
// serving store must still complete point queries against the old epoch.
// Before the epoch layer, the durable read path shared storage.Locked with
// writers and every reader would hang here.
func TestReadersProgressDuringMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	src := randArray(rng, 16, 16)
	path := filepath.Join(t.TempDir(), "gated.wav")
	st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: Standard, Path: path, Durable: true, Versioned: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.TransformChunked(src, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	gate := &writeGate{release: make(chan struct{})}
	sv, err := OpenServingOpts(path, ServeOptions{
		CacheBlocks: 64,
		BaseWrap: func(bs storage.BlockStore) storage.BlockStore {
			gate.BlockStore = bs
			return gate
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()

	preEpoch := sv.CurrentEpoch()
	gate.gating.Store(true)
	maintDone := make(chan error, 1)
	go func() {
		// Rewrites every block and flips the epoch; wedges at the first
		// gated device write inside the commit.
		maintDone <- sv.Materialize(src)
	}()

	// Wait until the commit is provably wedged on the device.
	deadline := time.After(10 * time.Second)
	for gate.blocked.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("maintenance never reached the gated device write")
		case <-time.After(time.Millisecond):
		}
	}

	// N readers must make progress against the pinned old epoch while the
	// writer holds the write lock.
	var wg sync.WaitGroup
	readersDone := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				p := []int{(g + i) % 16, (g * i) % 16}
				v, _, err := sv.Point(p...)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if d := v - src.At(p...); d > 1e-8 || d < -1e-8 {
					t.Errorf("reader %d: point %v = %g, want %g", g, p, v, src.At(p...))
					return
				}
			}
		}(g)
	}
	go func() { wg.Wait(); close(readersDone) }()
	select {
	case <-readersDone:
	case <-time.After(30 * time.Second):
		t.Fatal("readers starved while maintenance held the write path — Locked is back on the read path")
	}
	if got := sv.CurrentEpoch(); got != preEpoch {
		t.Fatalf("epoch flipped to %d while the commit was wedged", got)
	}

	gate.gating.Store(false)
	close(gate.release)
	if err := <-maintDone; err != nil {
		t.Fatalf("materialize after release: %v", err)
	}
	if got := sv.CurrentEpoch(); got != preEpoch+1 {
		t.Fatalf("epoch after materialize = %d, want %d", got, preEpoch+1)
	}
	v, blocks, err := sv.Point(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d := v - src.At(3, 5); d > 1e-8 || d < -1e-8 {
		t.Fatalf("post-materialize point = %g, want %g", v, src.At(3, 5))
	}
	if blocks != 1 {
		t.Fatalf("materialized point query read %d blocks, want 1", blocks)
	}
}

// TestVersionedCacheNoInvalidationStorm: a maintenance flip must not evict
// cache entries for blocks the batch did not touch — the cache sits below
// the epoch layer on physical ids, so only reclaimed-and-reused blocks are
// ever dropped.
func TestVersionedCacheNoInvalidationStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	src := randArray(rng, 16, 16)
	path := filepath.Join(t.TempDir(), "storm.wav")
	st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: Standard, Path: path, Durable: true, Versioned: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.TransformChunked(src, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sv, err := OpenServing(path, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()

	// Warm every block, then confirm the whole read set is resident.
	if _, err := sv.ReadTransform(); err != nil {
		t.Fatal(err)
	}
	warm, _ := sv.CacheStats()
	if _, err := sv.ReadTransform(); err != nil {
		t.Fatal(err)
	}
	before, _ := sv.CacheStats()
	if before.Loads != warm.Loads {
		t.Fatalf("cache did not stabilize: %d extra loads on a warm re-read", before.Loads-warm.Loads)
	}

	// One merge batch: remaps a subset of blocks, flips the epoch. The old
	// epoch has no pins, so its exclusive blocks land on the free list —
	// their count is exactly how many blocks the batch remapped.
	delta := randArray(rng, 4, 4)
	if err := sv.MergeBlock(CubeBlock(2, 3, 3), Transform(delta, Standard)); err != nil {
		t.Fatal(err)
	}
	es, ok := sv.EpochStats()
	if !ok {
		t.Fatal("no epoch stats on a versioned serving store")
	}
	remapped := int64(es.FreeBlocks)
	if remapped == 0 || remapped >= int64(sv.NumBlocks()) {
		t.Fatalf("merge remapped %d of %d blocks; test needs a strict subset", remapped, sv.NumBlocks())
	}

	// Re-reading everything must reload only the remapped blocks: entries
	// for untouched blocks keep their physical ids across the flip, so the
	// flip itself invalidates nothing.
	if _, err := sv.ReadTransform(); err != nil {
		t.Fatal(err)
	}
	after, _ := sv.CacheStats()
	if loads := after.Loads - before.Loads; loads != remapped {
		t.Fatalf("flip caused %d device loads, want exactly the %d remapped blocks (invalidation storm)", loads, remapped)
	}
	if after.Evictions != before.Evictions {
		t.Fatalf("flip caused %d evictions", after.Evictions-before.Evictions)
	}
}

// TestServeCacheReuseAfterTailTrim is the regression test for a stale serve
// cache. Releasing a pin frees the old epoch's blocks; the next flips reuse
// those and free the tail, which lowers the physical high-water mark, so a
// later flip re-issues ids from the mark that the cache still holds from an
// earlier epoch. Every snapshot read through the cache must match a plain
// store that ran the same merges.
func TestServeCacheReuseAfterTailTrim(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	src := randArray(rng, 16, 16)
	path := filepath.Join(t.TempDir(), "reuse.wav")
	st, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: Standard, Path: path, Durable: true, Versioned: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.TransformChunked(src, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	plain, err := CreateStore(StoreOptions{Shape: []int{16, 16}, Form: Standard})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if err := plain.TransformChunked(src, 2); err != nil {
		t.Fatal(err)
	}
	sv, err := OpenServing(path, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()

	blk := CubeBlock(2, 1, 2)
	merge := func(step string) {
		t.Helper()
		dh := Transform(randArray(rng, 4, 4), Standard)
		if err := sv.MergeBlock(blk, dh); err != nil {
			t.Fatal(err)
		}
		if err := plain.MergeBlock(blk, dh); err != nil {
			t.Fatal(err)
		}
		got, err := sv.ReadTransform() // pins the new epoch, fills the cache
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.ReadTransform()
		if err != nil {
			t.Fatal(err)
		}
		if !equalExact(got, want) {
			t.Fatalf("%s (epoch %d): cached snapshot read differs from the plain store", step, sv.CurrentEpoch())
		}
	}
	for round := 0; round < 3; round++ {
		pin := sv.AcquireSnapshot()
		merge(fmt.Sprintf("round %d merge under pin", round))
		pin.Release()
		merge(fmt.Sprintf("round %d merge after release", round))
		merge(fmt.Sprintf("round %d merge from trimmed tail", round))
	}
}
