package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestVersionedOnReuseAfterTailTrim: once reclamation trims free blocks off
// the physical tail, the next allocations come from the high-water mark
// again — and those ids were handed out before, so a cache below the epoch
// layer may still hold their old contents. The reuse hook must fire for
// every re-issued id, from the free list or from the high-water mark.
func TestVersionedOnReuseAfterTailTrim(t *testing.T) {
	v, err := NewVersioned(NewMemStore(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	var hooked []int
	v.OnReuse(func(phys int) { hooked = append(hooked, phys) })

	// With one logical block and no pins, the flips alternate: the rewrite
	// takes a fresh block, the superseded one is freed, and when it is the
	// topmost block the tail trims back down.
	issued := make(map[int]bool)
	var want []int
	for round := 0; round < 6; round++ {
		if err := v.WriteBlock(0, fillSeq(4, float64(round))); err != nil {
			t.Fatal(err)
		}
		phys := v.overlay[0]
		if issued[phys] {
			want = append(want, phys)
		}
		issued[phys] = true
		if err := v.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if len(want) < 4 {
		t.Fatalf("only %d re-issued ids in 6 flips; the test no longer exercises reuse", len(want))
	}
	if !slices.Equal(hooked, want) {
		t.Fatalf("reuse hook fired for %v, want every re-issued id %v", hooked, want)
	}
}

// reclaimRef is the brute-force reclamation the epoch layer replaced: a
// full sweep of every live table and the overlay. It exists only here, as
// the differential oracle for the incremental bookkeeping.
type reclaimRef struct {
	free        []int
	next        int
	reclaimable int
	referenced  map[int]bool
}

func sweepRef(v *Versioned) reclaimRef {
	ref := reclaimRef{next: v.dataBase, referenced: make(map[int]bool)}
	mark := func(p int) {
		ref.referenced[p] = true
		if p+1 > ref.next {
			ref.next = p + 1
		}
	}
	inCur := make(map[int]bool)
	for _, t := range v.tables {
		for _, p := range t.phys {
			if p >= 0 {
				mark(int(p))
				if t == v.cur {
					inCur[int(p)] = true
				}
			}
		}
	}
	for _, p := range v.overlay {
		mark(p)
		inCur[p] = true
	}
	for p := v.dataBase; p < ref.next; p++ {
		if !ref.referenced[p] {
			ref.free = append(ref.free, p)
		}
	}
	for p := range ref.referenced {
		if !inCur[p] {
			ref.reclaimable++
		}
	}
	return ref
}

// checkAgainstSweep compares the incremental allocator state with the
// reference sweep and checks the partition invariant: free and referenced
// ids are disjoint and together exactly [dataBase, next).
func checkAgainstSweep(t *testing.T, v *Versioned, step string) {
	t.Helper()
	ref := sweepRef(v)
	v.mu.Lock()
	free := slices.Clone(v.free)
	v.mu.Unlock()
	if !slices.Equal(free, ref.free) {
		t.Fatalf("%s: free list %v, reference sweep %v", step, free, ref.free)
	}
	if got := v.PhysExtent(); got != ref.next {
		t.Fatalf("%s: PhysExtent %d, reference sweep %d", step, got, ref.next)
	}
	st := v.Stats()
	if st.FreeBlocks != len(ref.free) || st.PhysBlocks != ref.next || st.Reclaimable != ref.reclaimable {
		t.Fatalf("%s: stats %+v, reference free=%d phys=%d reclaimable=%d",
			step, st, len(ref.free), ref.next, ref.reclaimable)
	}
	for _, p := range free {
		if ref.referenced[p] {
			t.Fatalf("%s: physical %d is both free and referenced", step, p)
		}
	}
	if len(free)+len(ref.referenced) != ref.next-v.dataBase {
		t.Fatalf("%s: %d free + %d referenced != extent [%d, %d)",
			step, len(free), len(ref.referenced), v.dataBase, ref.next)
	}
}

// pin is a held snapshot plus the contents its epoch committed (the first
// coefficient of each logical block; 0 = never written).
type pin struct {
	snap *Snapshot
	want []float64
}

// TestVersionedReclaimMatchesSweep drives seeded random sequences of
// writes, batch writes, commits, rollbacks, pins and releases — old pins
// outliving many flips, releases in any order — and after every step
// requires the incremental free list, PhysExtent and Stats to equal a
// brute-force sweep. Every held snapshot must also still read exactly what
// its epoch committed, and a reopen must derive the same allocator state
// from the persisted table.
func TestVersionedReclaimMatchesSweep(t *testing.T) {
	const bs, logical = 4, 12
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			mem := NewMemStore(bs)
			v, err := NewVersioned(mem, logical)
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			committed := make([]float64, logical) // current epoch's contents
			building := slices.Clone(committed)   // overlay view
			var pins []pin
			stamp := 0.0
			write := func(id int) []float64 {
				stamp++
				building[id] = stamp
				return fillSeq(bs, stamp)
			}
			buf := make([]float64, bs)
			for step := 0; step < 400; step++ {
				var op string
				switch r := rng.Intn(100); {
				case r < 35:
					op = "write"
					id := rng.Intn(logical)
					if err := v.WriteBlock(id, write(id)); err != nil {
						t.Fatal(err)
					}
				case r < 50:
					op = "writes"
					ids := make([]int, 1+rng.Intn(logical))
					data := make([][]float64, len(ids))
					for i := range ids {
						ids[i] = rng.Intn(logical)
						data[i] = write(ids[i])
					}
					if err := v.WriteBlocks(ids, data); err != nil {
						t.Fatal(err)
					}
				case r < 68:
					op = "commit"
					if err := v.Commit(); err != nil {
						t.Fatal(err)
					}
					copy(committed, building)
				case r < 74:
					op = "rollback"
					v.Rollback()
					copy(building, committed)
				case r < 86:
					op = "acquire"
					pins = append(pins, pin{snap: v.Acquire(), want: slices.Clone(committed)})
				case r < 98:
					op = "release"
					if len(pins) > 0 {
						i := rng.Intn(len(pins))
						pins[i].snap.Release()
						pins = slices.Delete(pins, i, i+1)
					}
				default:
					op = "reopen"
					if err := v.Commit(); err != nil {
						t.Fatal(err)
					}
					copy(committed, building)
					// A second handle over the same medium loads the
					// persisted table; its scan at open must agree with a
					// sweep of that one table.
					re, err := NewVersioned(mem, logical)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstSweep(t, re, fmt.Sprintf("step %d reopen", step))
				}
				checkAgainstSweep(t, v, fmt.Sprintf("step %d %s", step, op))
				for _, p := range pins {
					for id, want := range p.want {
						if err := p.snap.ReadBlock(id, buf); err != nil {
							t.Fatal(err)
						}
						if buf[0] != want {
							t.Fatalf("step %d %s: epoch %d block %d reads %v, committed %v",
								step, op, p.snap.Epoch(), id, buf[0], want)
						}
					}
				}
			}
			for _, p := range pins {
				p.snap.Release()
			}
			checkAgainstSweep(t, v, "final release")
			if st := v.Stats(); st.Reclaimable != 0 || st.Pinned != 0 {
				t.Fatalf("after releasing every pin: %+v", st)
			}
		})
	}
}

// TestVersionedRejectsDoublyMappedBlock: reclamation assumes each physical
// block has one logical owner, so opening a table that maps one physical
// block from two logical ids fails instead of later freeing a block a
// live epoch still reads.
func TestVersionedRejectsDoublyMappedBlock(t *testing.T) {
	mem := NewMemStore(4)
	v, err := NewVersioned(mem, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.WriteBlocks([]int{0, 1}, [][]float64{fillSeq(4, 1), fillSeq(4, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	page := make([]float64, 4)
	if err := mem.ReadBlock(v.hdr, page); err != nil {
		t.Fatal(err)
	}
	page[1] = page[0] // logical 1 -> logical 0's physical block
	if err := mem.WriteBlock(v.hdr, page); err != nil {
		t.Fatal(err)
	}
	if _, err := NewVersioned(mem, 2); err == nil {
		t.Fatal("opened a table that maps one physical block twice")
	}
}
