package storage

import (
	"fmt"
	"sync/atomic"
)

// Degraded layers quarantine-aware serving over a BlockStore. Reads of a
// quarantined block return zeros and count as degraded instead of failing,
// so a query whose support touches one bad frame still produces the rest
// of its answer — explicitly flagged, never silently wrong. The rules:
//
//   - a block already in quarantine reads as zeros (degraded, no error);
//   - a read that discovers fresh corruption quarantines the block but
//     still returns the error — the first hit must fail, because a
//     read-modify-write cycle above (tile updates, delta merges) that got
//     zeros here would fold them into a rewrite and silently destroy data;
//   - a successful full-frame write heals the block: overwriting a frame
//     replaces its bytes entirely, so the stored value is good again.
//
// DegradedReads counts zero-filled block reads; the serving layer samples
// it around a query to set the response's degraded flag.
type Degraded struct {
	inner         BlockStore
	q             *Quarantine
	degradedReads atomic.Int64
}

// NewDegraded wraps inner with quarantine-aware serving backed by q.
func NewDegraded(inner BlockStore, q *Quarantine) (*Degraded, error) {
	if q == nil {
		return nil, fmt.Errorf("storage: degraded store needs a quarantine")
	}
	return &Degraded{inner: inner, q: q}, nil
}

// DegradedReads returns how many block reads have been served as zeros
// because the block was quarantined.
func (d *Degraded) DegradedReads() int64 { return d.degradedReads.Load() }

// Quarantine returns the registry backing this store.
func (d *Degraded) Quarantine() *Quarantine { return d.q }

// BlockSize returns the wrapped block size.
func (d *Degraded) BlockSize() int { return d.inner.BlockSize() }

// ReadBlock serves a quarantined block as zeros (degraded) and forwards
// everything else, quarantining freshly discovered corruption.
func (d *Degraded) ReadBlock(id int, buf []float64) error {
	if d.q.Has(id) {
		ZeroFill(buf)
		d.degradedReads.Add(1)
		return nil
	}
	err := d.inner.ReadBlock(id, buf)
	if IsCorruption(err) {
		d.q.Add(id, fmt.Sprintf("read: %v", err))
	}
	return err
}

// ReadBlocks zero-fills the quarantined subset of the batch and forwards
// the rest as one vectored read; a batch with no quarantined block is
// forwarded as it is. When the inner read reports corruption it names only
// the first bad frame, so the miss set is re-verified to quarantine every
// corrupt block the batch touched before the error surfaces.
func (d *Degraded) ReadBlocks(ids []int, bufs [][]float64) error {
	missIDs, missBufs := ids, bufs
	if d.q.HasAny(ids) {
		missIDs, missBufs = nil, nil
		for i, id := range ids {
			if d.q.Has(id) {
				ZeroFill(bufs[i])
				d.degradedReads.Add(1)
			} else {
				missIDs = append(missIDs, id)
				missBufs = append(missBufs, bufs[i])
			}
		}
	}
	if len(missIDs) == 0 {
		return nil
	}
	err := ReadBlocksOf(d.inner, missIDs, missBufs)
	if IsCorruption(err) {
		if corrupt, verr := VerifyBlocksOf(d.inner, missIDs); verr == nil {
			for _, id := range corrupt {
				d.q.Add(id, fmt.Sprintf("read: %v", err))
			}
		}
	}
	return err
}

// WriteBlock forwards the write and heals the block on success: the frame
// bytes were fully replaced.
func (d *Degraded) WriteBlock(id int, data []float64) error {
	if err := d.inner.WriteBlock(id, data); err != nil {
		return err
	}
	d.q.Remove(id)
	return nil
}

// WriteBlocks forwards the batch and heals every written block on success.
func (d *Degraded) WriteBlocks(ids []int, data [][]float64) error {
	if err := WriteBlocksOf(d.inner, ids, data); err != nil {
		return err
	}
	for _, id := range ids {
		d.q.Remove(id)
	}
	return nil
}

// VerifyBlocks forwards: verification must see the medium, not the
// quarantine overlay.
func (d *Degraded) VerifyBlocks(ids []int) ([]int, error) {
	return VerifyBlocksOf(d.inner, ids)
}

// RepairBlock forwards and releases the block from quarantine when the
// repair lands.
func (d *Degraded) RepairBlock(id int) (bool, error) {
	ok, err := RepairBlockOf(d.inner, id)
	if ok && err == nil {
		d.q.Remove(id)
	}
	return ok, err
}

// Sync delegates.
func (d *Degraded) Sync() error { return SyncIfAble(d.inner) }

// Truncate delegates.
func (d *Degraded) Truncate() error { return TruncateIfAble(d.inner) }

// Commit delegates.
func (d *Degraded) Commit() error { return CommitIfAble(d.inner) }

// Close delegates.
func (d *Degraded) Close() error { return d.inner.Close() }

// MappedReads forwards the inner stack's mapped-read counter.
func (d *Degraded) MappedReads() int64 { return MappedReadsOf(d.inner) }
