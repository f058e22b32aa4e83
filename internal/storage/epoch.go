package storage

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// This file is the MVCC epoch layer: a per-epoch block-id remap table
// between the tile map (logical block ids) and the physical store, so
// maintenance writes go to freshly allocated physical blocks for the next
// epoch while readers keep resolving the current epoch's table through a
// refcounted Snapshot. The flip is a single Commit on the write path: the
// dirty table pages and superblock join the same journal group as the data
// blocks, so a crash recovers to exactly the old or exactly the new epoch.
//
// Physical layout (absolute block ids on the underlying store):
//
//	[0, hdr)             superblock: magic, version, epoch, logical, pages
//	[hdr, hdr+pages)     remap table, blockSize entries per page; an entry
//	                     is uint64(phys+1) as float64 bits, 0 = unmapped
//	[hdr+pages, ...)     data blocks, copy-on-write allocated
//
// All superblock and table slots hold raw uint64 bit patterns reinterpreted
// as float64 (math.Float64frombits); they round-trip through every block
// store bit-exactly and are never used arithmetically.

// versionedMagic identifies a Versioned superblock ("SSEPOCH1").
const versionedMagic uint64 = 0x5353_4550_4f43_4831

// versionedVersion is the on-media format version.
const versionedVersion uint64 = 1

// superSlots is the number of superblock value slots (magic, version,
// epoch, logical, pages).
const superSlots = 5

// ErrSnapshotReadOnly is returned by writes through a Snapshot: a pinned
// epoch is immutable by construction.
var ErrSnapshotReadOnly = errors.New("storage: snapshot is read-only")

// epochTable is one immutable committed remap: logical block id -> physical
// block id (-1 = unmapped, reads as zeros). refs counts pinned Snapshots
// and is guarded by the owning Versioned's mu.
type epochTable struct {
	epoch uint64
	phys  []int64
	refs  int
}

// Versioned interposes the epoch remap between logical block ids (what the
// tile map addresses) and a physical store. Writes are copy-on-write: the
// first write to a logical block in an epoch allocates a fresh physical
// block (from the free list, else the high-water mark), so no live
// snapshot's blocks are ever overwritten. Commit seals the building epoch —
// data, dirty table pages, and superblock in one batch on the write path —
// and atomically publishes the new table.
//
// Reads and writes through the Versioned itself resolve the building
// overlay first (read-your-writes for the maintenance engines), then the
// current table. Concurrent readers must pin an epoch with Acquire and read
// through the returned Snapshot, which resolves one immutable table against
// the read path for its whole lifetime.
type Versioned struct {
	write BlockStore // full mutation path (device, journal, staging)
	read  BlockStore // concurrent committed-read path; == write when shared

	logical  int // fixed logical block-id space
	hdr      int // superblock spread over this many physical blocks
	pages    int // remap table pages
	dataBase int // first data block id

	mu      sync.Mutex
	cur     *epochTable      // current committed table (also in tables)
	tables  []*epochTable    // live tables: cur plus pinned old epochs
	overlay map[int]int      // building epoch: logical -> phys
	dirty   map[int]struct{} // table pages touched by the overlay
	free    []int            // reclaimed physical data blocks, ascending
	next    int              // physical allocation high-water mark
	issued  int              // all-time high-water mark: ids below it may be cached
	birth   []uint64         // physical id -> first epoch whose table maps it
	pending []superseded     // remapped-away blocks some pinned old epoch may read
	onReuse func(phys int)   // invoked when a previously issued physical id is reused
	closed  bool

	batches sync.Pool // *physBatch scratch for Snapshot.ReadBlocks
}

// superseded is a physical block an epoch flip remapped away from. It is
// mapped by exactly the tables whose epoch lies in [birth[phys], death), so
// it is free once no live table falls in that range.
type superseded struct {
	phys  int
	death uint64 // the flip epoch: the first table that no longer maps phys
}

// NewVersioned builds the epoch layer over a single store used for both
// reads and writes (the maintenance configuration). logical is the fixed
// number of logical blocks (the tiling's block count). The superblock and
// remap table are loaded if present; a fresh store starts at epoch 0 with
// every logical block unmapped.
func NewVersioned(store BlockStore, logical int) (*Versioned, error) {
	return NewVersionedSplit(store, store, logical)
}

// NewVersionedSplit is NewVersioned with distinct write and read paths: all
// mutations, table I/O, and commits go through write; Snapshot reads go
// through read. Both must bottom out at the same physical medium. Close
// closes the read path only when it is distinct (the serving composition
// threads the write path through the read chain).
func NewVersionedSplit(write, read BlockStore, logical int) (*Versioned, error) {
	if logical <= 0 {
		return nil, fmt.Errorf("storage: versioned store needs a positive logical block count, got %d", logical)
	}
	bs := write.BlockSize()
	if read.BlockSize() != bs {
		return nil, fmt.Errorf("storage: versioned read block size %d != write block size %d", read.BlockSize(), bs)
	}
	v := &Versioned{
		write:   write,
		read:    read,
		logical: logical,
		hdr:     (superSlots + bs - 1) / bs,
		pages:   (logical + bs - 1) / bs,
		overlay: make(map[int]int),
		dirty:   make(map[int]struct{}),
	}
	v.dataBase = v.hdr + v.pages
	if err := v.load(); err != nil {
		return nil, err
	}
	return v, nil
}

// OnReuse registers a hook called (under the allocation lock) whenever a
// physical id this Versioned handed out before is handed out again — from
// the free list, or from the high-water mark after reclamation trimmed it.
// The serving cache drops its entry for that physical id here, which is the
// only cache invalidation the epoch layer ever needs: a physical id is never
// rebound while any live epoch still references it.
func (v *Versioned) OnReuse(fn func(phys int)) { v.onReuse = fn }

// load reads the superblock and remap table through the write path (open
// runs before any concurrency) and rebuilds the allocator state from it.
func (v *Versioned) load() error {
	bs := v.write.BlockSize()
	super := make([]float64, v.hdr*bs)
	frames := SliceFrames(super, v.hdr, bs)
	ids := make([]int, v.hdr)
	for i := range ids {
		ids[i] = i
	}
	if err := ReadBlocksOf(v.write, ids, frames); err != nil {
		return fmt.Errorf("storage: read versioned superblock: %w", err)
	}
	magic := math.Float64bits(super[0])
	phys := make([]int64, v.logical)
	var epoch uint64
	if magic == 0 {
		// Fresh store: epoch 0, everything unmapped.
		for i := range phys {
			phys[i] = -1
		}
	} else {
		if magic != versionedMagic {
			return fmt.Errorf("storage: bad versioned superblock magic %#x", magic)
		}
		if ver := math.Float64bits(super[1]); ver != versionedVersion {
			return fmt.Errorf("storage: versioned format version %d, want %d", ver, versionedVersion)
		}
		epoch = math.Float64bits(super[2])
		if l := math.Float64bits(super[3]); int(l) != v.logical {
			return fmt.Errorf("storage: versioned superblock logical %d, tiling has %d", l, v.logical)
		}
		if p := math.Float64bits(super[4]); int(p) != v.pages {
			return fmt.Errorf("storage: versioned superblock pages %d, want %d", p, v.pages)
		}
		pageIDs := make([]int, v.pages)
		for i := range pageIDs {
			pageIDs[i] = v.hdr + i
		}
		slab := make([]float64, v.pages*bs)
		pages := SliceFrames(slab, v.pages, bs)
		if err := ReadBlocksOf(v.write, pageIDs, pages); err != nil {
			return fmt.Errorf("storage: read versioned remap table: %w", err)
		}
		for i := range phys {
			raw := math.Float64bits(pages[i/bs][i%bs])
			if raw == 0 {
				phys[i] = -1
				continue
			}
			p := int64(raw) - 1
			if p < int64(v.dataBase) {
				return fmt.Errorf("storage: versioned table maps logical %d to reserved physical %d", i, p)
			}
			phys[i] = p
		}
	}
	v.cur = &epochTable{epoch: epoch, phys: phys}
	v.tables = []*epochTable{v.cur}
	return v.scanTable()
}

// scanTable derives the allocator state from the loaded table — the only
// pass over every logical block the layer makes: the high-water mark is
// one past the highest mapped block, every unmapped id below it is free,
// and every mapped block is born at the loaded epoch (no older table
// survives a reopen). A physical block mapped twice is rejected: the
// reclamation rule relies on each block having one logical owner.
func (v *Versioned) scanTable() error {
	high := v.dataBase
	for _, p := range v.cur.phys {
		if int(p) >= high {
			high = int(p) + 1
		}
	}
	used := make([]uint64, (high+63)/64)
	for l, p := range v.cur.phys {
		if p < 0 {
			continue
		}
		w, bit := p/64, uint64(1)<<(p%64)
		if used[w]&bit != 0 {
			return fmt.Errorf("storage: versioned table maps physical %d twice (logical %d)", p, l)
		}
		used[w] |= bit
	}
	v.birth = make([]uint64, high)
	v.free = v.free[:0]
	for p := v.dataBase; p < high; p++ {
		if used[p/64]&(1<<(p%64)) != 0 {
			v.birth[p] = v.cur.epoch
		} else {
			v.free = append(v.free, p)
		}
	}
	v.next, v.issued = high, high
	return nil
}

// BlockSize returns the physical store's block size (logical and physical
// blocks are the same size; only the id spaces differ).
func (v *Versioned) BlockSize() int { return v.write.BlockSize() }

// Logical returns the fixed logical block-id space.
func (v *Versioned) Logical() int { return v.logical }

// PhysExtent returns the physical block-id high-water mark — the extent a
// scrubber should walk (superblock, table pages, and allocated data).
func (v *Versioned) PhysExtent() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.next
}

// Epoch returns the current committed epoch.
func (v *Versioned) Epoch() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.cur.epoch
}

func (v *Versioned) checkLogical(id int) error {
	if id < 0 || id >= v.logical {
		return fmt.Errorf("storage: logical block id %d out of range [0, %d)", id, v.logical)
	}
	return nil
}

// resolve returns the physical id the building epoch sees for a logical id
// (overlay first, then the current table), or -1 when unmapped.
func (v *Versioned) resolve(id int) int64 {
	if phys, ok := v.overlay[id]; ok {
		return int64(phys)
	}
	return v.cur.phys[id]
}

// ReadBlock reads a logical block as the building epoch sees it: staged
// overlay writes are visible immediately (read-your-writes for the
// maintenance engines' read-modify-write), everything else resolves the
// current table. Unmapped blocks read as zeros without touching the device.
func (v *Versioned) ReadBlock(id int, buf []float64) error {
	if err := checkBlockArgs(v, id, buf); err != nil {
		return err
	}
	if err := v.checkLogical(id); err != nil {
		return err
	}
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	phys := v.resolve(id)
	v.mu.Unlock()
	if phys < 0 {
		ZeroFill(buf)
		return nil
	}
	return v.write.ReadBlock(int(phys), buf)
}

// ReadBlocks implements BatchReader: every mapped id is resolved and
// fetched from the write path as one vectored read; unmapped ids zero-fill.
func (v *Versioned) ReadBlocks(ids []int, bufs [][]float64) error {
	if err := checkBatchArgs(v, ids, bufs); err != nil {
		return err
	}
	for _, id := range ids {
		if err := v.checkLogical(id); err != nil {
			return err
		}
	}
	physIDs := make([]int, 0, len(ids))
	physBufs := make([][]float64, 0, len(ids))
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	for i, id := range ids {
		if phys := v.resolve(id); phys >= 0 {
			physIDs = append(physIDs, int(phys))
			physBufs = append(physBufs, bufs[i])
		} else {
			ZeroFill(bufs[i])
		}
	}
	v.mu.Unlock()
	if len(physIDs) == 0 {
		return nil
	}
	return ReadBlocksOf(v.write, physIDs, physBufs)
}

// allocLocked picks the physical block for a logical write in the building
// epoch: a block already written this epoch is rewritten in place (it is
// invisible until Commit), otherwise the lowest free block is reused,
// otherwise the file grows at the high-water mark. Any id handed out before
// — a free-list id, or a high-water id that reclamation trimmed off the
// tail — first lets the reuse hook drop stale cache entries. Caller holds
// mu.
func (v *Versioned) allocLocked(id int) int {
	if phys, ok := v.overlay[id]; ok {
		return phys
	}
	var phys int
	if len(v.free) > 0 {
		phys = v.free[0]
		v.free = v.free[1:]
	} else {
		phys = v.next
		v.next++
		for len(v.birth) < v.next {
			v.birth = append(v.birth, 0)
		}
	}
	if phys < v.issued {
		if v.onReuse != nil {
			v.onReuse(phys)
		}
	} else {
		v.issued = phys + 1
	}
	v.birth[phys] = v.cur.epoch + 1
	v.overlay[id] = phys
	v.dirty[id/v.write.BlockSize()] = struct{}{}
	return phys
}

// WriteBlock stages a copy-on-write write of a logical block into the
// building epoch. The data reaches a physical block no live epoch
// references, so concurrent snapshot readers are undisturbed.
func (v *Versioned) WriteBlock(id int, data []float64) error {
	if err := checkBlockArgs(v, id, data); err != nil {
		return err
	}
	if err := v.checkLogical(id); err != nil {
		return err
	}
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	phys := v.allocLocked(id)
	v.mu.Unlock()
	return v.write.WriteBlock(phys, data)
}

// WriteBlocks implements BatchWriter: the whole batch is allocated under
// one lock acquisition and forwarded as one vectored write.
func (v *Versioned) WriteBlocks(ids []int, data [][]float64) error {
	if err := checkBatchArgs(v, ids, data); err != nil {
		return err
	}
	for _, id := range ids {
		if err := v.checkLogical(id); err != nil {
			return err
		}
	}
	physIDs := make([]int, len(ids))
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	for i, id := range ids {
		physIDs[i] = v.allocLocked(id)
	}
	v.mu.Unlock()
	return WriteBlocksOf(v.write, physIDs, data)
}

// encodeSuper fills the superblock frames for the given epoch.
func (v *Versioned) encodeSuper(frames [][]float64, epoch uint64) {
	vals := [superSlots]uint64{versionedMagic, versionedVersion, epoch, uint64(v.logical), uint64(v.pages)}
	bs := v.write.BlockSize()
	for i, raw := range vals {
		frames[i/bs][i%bs] = math.Float64frombits(raw)
	}
}

// Commit seals the building epoch: the dirty remap-table pages and the
// superblock (stamped epoch+1) are written through the write path and the
// whole group — data blocks, table pages, superblock — is committed as one
// batch. Only after the medium accepted the batch is the new table
// published; the retired table's exclusive blocks return to the free list
// once no snapshot pins it.
//
// With nothing staged, Commit degenerates to forwarding the durability
// point (so idle flushes stay cheap and epoch-free).
func (v *Versioned) Commit() error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	if len(v.overlay) == 0 {
		v.mu.Unlock()
		return CommitIfAble(v.write)
	}
	bs := v.write.BlockSize()
	next := &epochTable{epoch: v.cur.epoch + 1, phys: append([]int64(nil), v.cur.phys...)}
	// Deterministic application order: the overlay and dirty sets are maps,
	// but nothing numeric is folded in map order — entries land by index,
	// and reclamation sorts what it frees.
	var gone []superseded
	for id, phys := range v.overlay {
		if old := next.phys[id]; old >= 0 {
			gone = append(gone, superseded{phys: int(old), death: next.epoch})
		}
		next.phys[id] = int64(phys)
	}
	dirtyPages := make([]int, 0, len(v.dirty))
	for p := range v.dirty {
		dirtyPages = append(dirtyPages, p)
	}
	sort.Ints(dirtyPages)
	v.mu.Unlock()

	// Serialize the dirty table pages and the superblock. This happens
	// outside the allocation lock: maintenance is the only mutator (writes
	// are externally serialized), so the overlay cannot change underneath.
	n := len(dirtyPages) + v.hdr
	slab := make([]float64, n*bs)
	frames := SliceFrames(slab, n, bs)
	ids := make([]int, 0, n)
	for i, p := range dirtyPages {
		page := frames[i]
		base := p * bs
		for s := 0; s < bs; s++ {
			l := base + s
			if l >= v.logical {
				break
			}
			raw := uint64(0)
			if phys := next.phys[l]; phys >= 0 {
				raw = uint64(phys) + 1
			}
			page[s] = math.Float64frombits(raw)
		}
		ids = append(ids, v.hdr+p)
	}
	v.encodeSuper(frames[len(dirtyPages):], next.epoch)
	for i := 0; i < v.hdr; i++ {
		ids = append(ids, i)
	}
	if err := WriteBlocksOf(v.write, ids, frames); err != nil {
		return fmt.Errorf("storage: write epoch %d remap table: %w", next.epoch, err)
	}
	if err := CommitIfAble(v.write); err != nil {
		return fmt.Errorf("storage: commit epoch %d: %w", next.epoch, err)
	}
	if _, transactional := v.write.(Committer); !transactional {
		// Non-transactional media: at least push the flip to stable storage.
		if err := SyncIfAble(v.write); err != nil {
			return fmt.Errorf("storage: sync epoch %d: %w", next.epoch, err)
		}
	}

	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.cur
	v.cur = next
	v.tables = append(v.tables, next)
	v.overlay = make(map[int]int)
	v.dirty = make(map[int]struct{})
	if old.refs == 0 {
		v.retireLocked(old)
	}
	v.pending = append(v.pending, gone...)
	v.reclaimLocked()
	return nil
}

// Rollback discards the building epoch: the overlay's allocations return
// to the free list and a transactional write path drops its staged blocks.
func (v *Versioned) Rollback() {
	v.mu.Lock()
	defer v.mu.Unlock()
	staged := make([]int, 0, len(v.overlay))
	for _, phys := range v.overlay {
		staged = append(staged, phys)
	}
	v.overlay = make(map[int]int)
	v.dirty = make(map[int]struct{})
	type rollbacker interface{ Rollback() }
	if rb, ok := v.write.(rollbacker); ok {
		rb.Rollback()
	}
	v.freeLocked(staged)
}

// retireLocked removes a table from the live set. Caller holds mu.
func (v *Versioned) retireLocked(t *epochTable) {
	for i, lt := range v.tables {
		if lt == t {
			v.tables = append(v.tables[:i], v.tables[i+1:]...)
			return
		}
	}
}

// reclaimLocked frees every pending block no live table maps any more:
// one test of [birth, death) against each live table, so a flip costs
// O(pending × live tables), never a pass over the logical space. Caller
// holds mu.
func (v *Versioned) reclaimLocked() {
	var freed []int
	kept := v.pending[:0]
	for _, s := range v.pending {
		if v.mappedLocked(s) {
			kept = append(kept, s)
		} else {
			freed = append(freed, s.phys)
		}
	}
	v.pending = kept
	v.freeLocked(freed)
}

// mappedLocked reports whether a live table still maps a superseded block.
// Caller holds mu.
func (v *Versioned) mappedLocked(s superseded) bool {
	born := v.birth[s.phys]
	for _, t := range v.tables {
		if born <= t.epoch && t.epoch < s.death {
			return true
		}
	}
	return false
}

// freeLocked merges ids into the ascending free list, then lowers the
// high-water mark past any free tail, so the free set is always exactly
// the unreferenced ids in [dataBase, next) — deterministic, which the
// crash campaigns rely on. Caller holds mu.
func (v *Versioned) freeLocked(ids []int) {
	if len(ids) == 0 {
		return
	}
	sort.Ints(ids)
	// Merge from the back, in place: only free ids above the smallest
	// freed one move.
	i, j := len(v.free)-1, len(ids)-1
	v.free = append(v.free, ids...)
	for k := len(v.free) - 1; j >= 0; k-- {
		if i >= 0 && v.free[i] > ids[j] {
			v.free[k] = v.free[i]
			i--
		} else {
			v.free[k] = ids[j]
			j--
		}
	}
	n := len(v.free)
	for n > 0 && v.free[n-1] == v.next-1 {
		n--
		v.next--
	}
	v.free = v.free[:n]
}

// Acquire pins the current committed epoch and returns a Snapshot that
// resolves it against the read path until Release.
func (v *Versioned) Acquire() *Snapshot {
	v.mu.Lock()
	t := v.cur
	t.refs++
	v.mu.Unlock()
	return &Snapshot{v: v, t: t}
}

// release unpins a table; the last release of a retired epoch returns its
// exclusive blocks to the free list.
func (v *Versioned) release(t *epochTable) {
	v.mu.Lock()
	defer v.mu.Unlock()
	t.refs--
	if t.refs == 0 && t != v.cur {
		v.retireLocked(t)
		v.reclaimLocked()
	}
}

// EpochStats is the observability surface of the epoch layer, reported by
// `shiftsplit info` and /v1/stats so operators can spot snapshot leaks
// holding back reclamation.
type EpochStats struct {
	// Epoch is the current committed epoch.
	Epoch uint64 `json:"epoch"`
	// Pinned is the number of outstanding (unreleased) snapshots.
	Pinned int `json:"pinned_snapshots"`
	// OldestPinned is the oldest epoch a snapshot still pins (== Epoch when
	// nothing older than the current epoch is held).
	OldestPinned uint64 `json:"oldest_pinned_epoch"`
	// FreeBlocks is the number of physical blocks on the free list, ready
	// for copy-on-write reuse.
	FreeBlocks int `json:"free_blocks"`
	// Reclaimable is the number of physical blocks held only by pinned
	// old epochs — they join the free list when those snapshots release.
	Reclaimable int `json:"reclaimable_blocks"`
	// PhysBlocks is the physical block high-water mark (superblock + table
	// pages + allocated data).
	PhysBlocks int `json:"phys_blocks"`
}

// Stats returns a point-in-time snapshot of the epoch layer's state.
func (v *Versioned) Stats() EpochStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	st := EpochStats{
		Epoch:        v.cur.epoch,
		OldestPinned: v.cur.epoch,
		FreeBlocks:   len(v.free),
		Reclaimable:  len(v.pending),
		PhysBlocks:   v.next,
	}
	for _, t := range v.tables {
		st.Pinned += t.refs
		if t.refs > 0 && t.epoch < st.OldestPinned {
			st.OldestPinned = t.epoch
		}
	}
	return st
}

// Sync seals the building epoch: on a versioned store the only meaningful
// durability point is an epoch flip.
func (v *Versioned) Sync() error { return v.Commit() }

// Close seals any building epoch and closes the underlying stack exactly
// once: through the read path when it is distinct (the serving composition
// threads the write path through the read chain), else through the shared
// store.
func (v *Versioned) Close() error {
	err := v.Commit()
	if errors.Is(err, ErrClosed) {
		err = nil
	}
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return err
	}
	v.closed = true
	v.mu.Unlock()
	closer := v.write
	if v.read != v.write {
		closer = v.read
	}
	if cerr := closer.Close(); err == nil {
		err = cerr
	}
	return err
}

// VersionedInfo is the decoded epoch superblock of a versioned store, as
// reported by Fsck and the CLI.
type VersionedInfo struct {
	// Epoch is the committed epoch the superblock records.
	Epoch uint64 `json:"epoch"`
	// Logical is the logical block-id space the table maps.
	Logical int `json:"logical_blocks"`
	// TablePages is the number of remap-table pages.
	TablePages int `json:"table_pages"`
	// DataBase is the first physical data block id.
	DataBase int `json:"data_base"`
	// Mapped is the number of logical blocks with a physical mapping.
	Mapped int `json:"mapped_blocks"`
}

// ReadVersionedInfo decodes the superblock and remap table a versioned
// store persisted, reading through store (which must present logical
// payloads — e.g. a ChecksumReader over the durable data file). Nothing is
// mutated; a fresh (never-committed) layout decodes as epoch 0 with no
// mappings.
func ReadVersionedInfo(store BlockStore, logical int) (*VersionedInfo, error) {
	v, err := NewVersioned(store, logical)
	if err != nil {
		return nil, err
	}
	mapped := 0
	for _, p := range v.cur.phys {
		if p >= 0 {
			mapped++
		}
	}
	return &VersionedInfo{
		Epoch:      v.cur.epoch,
		Logical:    logical,
		TablePages: v.pages,
		DataBase:   v.dataBase,
		Mapped:     mapped,
	}, nil
}

// FsckVersioned decodes the epoch superblock of a versioned durable file
// without opening the store: frames are verified through a read-only
// checksum reader, so a torn superblock surfaces as an error instead of
// garbage.
func FsckVersioned(path string, blockSize, logical int) (*VersionedInfo, error) {
	fs, err := OpenFileStore(path, blockSize+ChecksumOverhead)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	rd, err := NewChecksumReader(fs)
	if err != nil {
		return nil, err
	}
	return ReadVersionedInfo(rd, logical)
}

// Snapshot is a pinned, immutable view of one committed epoch. It
// implements BlockStore for reads (writes fail with ErrSnapshotReadOnly)
// and resolves every logical id through its pinned table against the
// Versioned's read path, so it is safe for concurrent use whenever that
// path is. Every Snapshot must reach Release on all paths — the
// snapshotrelease analyzer proves it — or its epoch's blocks are never
// reclaimed.
type Snapshot struct {
	v *Versioned
	t *epochTable

	mu       sync.Mutex
	released bool
}

// Epoch returns the pinned epoch.
func (s *Snapshot) Epoch() uint64 { return s.t.epoch }

// BlockSize returns the block size.
func (s *Snapshot) BlockSize() int { return s.v.read.BlockSize() }

// ReadBlock reads a logical block as the pinned epoch saw it.
func (s *Snapshot) ReadBlock(id int, buf []float64) error {
	if err := checkBlockArgs(s, id, buf); err != nil {
		return err
	}
	if err := s.v.checkLogical(id); err != nil {
		return err
	}
	phys := s.t.phys[id]
	if phys < 0 {
		ZeroFill(buf)
		return nil
	}
	return s.v.read.ReadBlock(int(phys), buf)
}

// ReadBlocks implements BatchReader against the pinned table: one vectored
// read for the mapped ids, zero-fill for the rest.
func (s *Snapshot) ReadBlocks(ids []int, bufs [][]float64) error {
	if err := checkBatchArgs(s, ids, bufs); err != nil {
		return err
	}
	sc := s.v.getScratch()
	defer s.v.putScratch(sc)
	for i, id := range ids {
		if err := s.v.checkLogical(id); err != nil {
			return err
		}
		if phys := s.t.phys[id]; phys >= 0 {
			sc.ids = append(sc.ids, int(phys))
			sc.bufs = append(sc.bufs, bufs[i])
		} else {
			ZeroFill(bufs[i])
		}
	}
	if len(sc.ids) == 0 {
		return nil
	}
	return ReadBlocksOf(s.v.read, sc.ids, sc.bufs)
}

// physBatch is a snapshot read's physical id and buffer lists, pooled so
// the warm read path does not allocate per batch.
type physBatch struct {
	ids  []int
	bufs [][]float64
}

func (v *Versioned) getScratch() *physBatch {
	sc, ok := v.batches.Get().(*physBatch)
	if !ok {
		return new(physBatch)
	}
	sc.ids, sc.bufs = sc.ids[:0], sc.bufs[:0]
	return sc
}

// putScratch returns a batch to the pool without keeping the caller's
// buffers reachable from it.
func (v *Versioned) putScratch(sc *physBatch) {
	clear(sc.bufs)
	v.batches.Put(sc)
}

// WriteBlock fails: snapshots are immutable.
func (s *Snapshot) WriteBlock(id int, data []float64) error { return ErrSnapshotReadOnly }

// Release unpins the epoch (idempotent). Once the last pin of a retired
// epoch drops, its exclusive physical blocks return to the free list.
func (s *Snapshot) Release() {
	s.mu.Lock()
	done := s.released
	s.released = true
	s.mu.Unlock()
	if done {
		return
	}
	s.v.release(s.t)
}

// Close implements BlockStore by releasing the pin (the Versioned owns the
// underlying stack).
func (s *Snapshot) Close() error {
	s.Release()
	return nil
}
