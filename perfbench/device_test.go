package main

import (
	"math"
	"path/filepath"
	"testing"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// seededRun builds a durable versioned store, merges seeded blocks into
// it, reopens it for serving and answers seeded queries. It returns the
// stored transform, the answers (value and blocks read, in order) and both
// stores' Stats.
func seededRun(t *testing.T, wrap func(storage.BlockStore) storage.BlockStore) (hat []float64, answers []float64, stats []shiftsplit.IOStats) {
	t.Helper()
	const n = 64
	path := filepath.Join(t.TempDir(), "store.wav")
	src := dataset.Dense([]int{n, n}, 11)
	st, err := buildStore(path, src, wrap)
	if err != nil {
		t.Fatal(err)
	}
	g := newMergeGen(11, n, 4)
	for k := 0; k < 20; k++ {
		op := g.next()
		hat := shiftsplit.Transform(shiftsplit.FromSlice(op.delta, op.edge, op.edge), shiftsplit.Standard)
		if err := st.MergeBlock(shiftsplit.CubeBlock(bitsOf(op.edge), op.pos...), hat); err != nil {
			t.Fatal(err)
		}
	}
	stats = append(stats, st.Stats())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sv, err := shiftsplit.OpenServingOpts(path, shiftsplit.ServeOptions{CacheBlocks: 64, BaseWrap: wrap})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	all, err := sv.ReadTransform()
	if err != nil {
		t.Fatal(err)
	}
	qg := newQueryGen(11, 0, n)
	for i := 0; i < 200; i++ {
		q := qg.next()
		var v float64
		var blocks int
		if q.isPoint() {
			v, blocks, err = sv.Point(q.start[:]...)
		} else {
			v, blocks, err = sv.RangeSum(q.start[:], q.extent[:])
		}
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, v, float64(blocks))
	}
	return all.Data(), answers, append(stats, sv.Stats())
}

func TestDeviceWrapperIsTransparent(t *testing.T) {
	plainHat, plainAns, plainStats := seededRun(t, nil)
	dev := &deviceStats{}
	tr := newTracer()
	wrapHat, wrapAns, wrapStats := seededRun(t, deviceWrap(dev, tr))

	for i := range plainHat {
		if math.Float64bits(plainHat[i]) != math.Float64bits(wrapHat[i]) {
			t.Fatalf("coefficient %d: unwrapped %v, wrapped %v", i, plainHat[i], wrapHat[i])
		}
	}
	// Block counts must match exactly. Values are held to the benchmark's
	// float policy: RangeSum adds its per-tile terms in an order that
	// varies from call to call, so one query on one store can differ in
	// the last bits between two calls; the stored transform above is
	// compared bit for bit instead.
	for i := 0; i < len(plainAns); i += 2 {
		if !agrees(wrapAns[i], plainAns[i], math.Abs(plainAns[i])) || wrapAns[i+1] != plainAns[i+1] {
			t.Fatalf("answer %d: unwrapped %v (%v blocks), wrapped %v (%v blocks)", i/2, plainAns[i], plainAns[i+1], wrapAns[i], wrapAns[i+1])
		}
	}
	for i := range plainStats {
		if plainStats[i] != wrapStats[i] {
			t.Fatalf("Store.Stats %d: unwrapped %+v, wrapped %+v", i, plainStats[i], wrapStats[i])
		}
	}
	// The wrapper really sat in both stacks and forwarded every kind of call.
	d := dev.snap()
	if d.readBlocks == 0 || d.writeBlocks == 0 || d.syncs == 0 {
		t.Fatalf("wrapper saw reads=%d writes=%d syncs=%d; want all non-zero", d.readBlocks, d.writeBlocks, d.syncs)
	}
	if d.writeCalls >= d.writeBlocks {
		t.Fatalf("%d write calls for %d blocks: batch writes were not forwarded as batches", d.writeCalls, d.writeBlocks)
	}
	if len(tr.byName("device.sync")) != int(d.syncs) {
		t.Fatalf("%d sync spans for %d syncs", len(tr.byName("device.sync")), d.syncs)
	}
}
