package storage

import (
	"sort"
	"sync"
)

// QuarantineRecord is one bad block: which block failed verification and
// why. Records are persisted in the store's meta file, so a restart still
// knows which blocks are unusable.
type QuarantineRecord struct {
	Block  int    `json:"block"`
	Reason string `json:"reason"`
}

// Quarantine is the registry of blocks known to be corrupt on the medium.
// The scrubber and the read path add blocks as corruption is detected;
// repair, scrub-heal (a quarantined block verifying clean), and full-frame
// rewrites remove them. An onChange hook lets the owning store persist the
// registry to meta on every transition.
//
// The registry is goroutine-safe; the onChange hook is invoked outside the
// lock (it typically does file I/O) with a sorted snapshot.
type Quarantine struct {
	mu       sync.Mutex
	bad      map[int]QuarantineRecord
	onChange func([]QuarantineRecord)
}

// NewQuarantine returns an empty registry.
func NewQuarantine() *Quarantine {
	return &Quarantine{bad: make(map[int]QuarantineRecord)}
}

// OnChange registers fn to be called with a sorted snapshot after every
// mutation (add, remove, replace). One hook; a later call replaces it.
func (q *Quarantine) OnChange(fn func([]QuarantineRecord)) {
	q.mu.Lock()
	q.onChange = fn
	q.mu.Unlock()
}

// snapshotLocked must be called with q.mu held.
func (q *Quarantine) snapshotLocked() []QuarantineRecord {
	out := make([]QuarantineRecord, 0, len(q.bad))
	for _, rec := range q.bad {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Block < out[j].Block })
	return out
}

// notify runs the hook outside the lock.
func (q *Quarantine) notify(fn func([]QuarantineRecord), snap []QuarantineRecord) {
	if fn != nil {
		fn(snap)
	}
}

// Add quarantines block id with the given reason, reporting whether the
// block was newly quarantined (an already-bad block keeps its first
// reason: the original diagnosis is the useful one).
func (q *Quarantine) Add(id int, reason string) bool {
	q.mu.Lock()
	if _, dup := q.bad[id]; dup {
		q.mu.Unlock()
		return false
	}
	q.bad[id] = QuarantineRecord{Block: id, Reason: reason}
	fn, snap := q.onChange, q.snapshotLocked()
	q.mu.Unlock()
	q.notify(fn, snap)
	return true
}

// Remove releases block id from quarantine, reporting whether it was held.
func (q *Quarantine) Remove(id int) bool {
	q.mu.Lock()
	if _, held := q.bad[id]; !held {
		q.mu.Unlock()
		return false
	}
	delete(q.bad, id)
	fn, snap := q.onChange, q.snapshotLocked()
	q.mu.Unlock()
	q.notify(fn, snap)
	return true
}

// Has reports whether block id is quarantined.
func (q *Quarantine) Has(id int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, held := q.bad[id]
	return held
}

// HasAny reports whether any of ids is quarantined, under one lock
// acquisition.
func (q *Quarantine) HasAny(ids []int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.bad) == 0 {
		return false
	}
	for _, id := range ids {
		if _, held := q.bad[id]; held {
			return true
		}
	}
	return false
}

// Len returns how many blocks are quarantined.
func (q *Quarantine) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.bad)
}

// Snapshot returns the records sorted by block id.
func (q *Quarantine) Snapshot() []QuarantineRecord {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.snapshotLocked()
}

// Replace loads the registry wholesale (from persisted meta on open). The
// onChange hook is NOT invoked: loading state is not a transition.
func (q *Quarantine) Replace(recs []QuarantineRecord) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.bad = make(map[int]QuarantineRecord, len(recs))
	for _, rec := range recs {
		q.bad[rec.Block] = rec
	}
}
