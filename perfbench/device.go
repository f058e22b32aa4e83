package main

import (
	"sync/atomic"
	"time"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// deviceStats counts and times the calls a store stack makes on its raw
// block devices. One deviceStats may back several devices (the appender
// opens a new one per domain generation).
type deviceStats struct {
	readCalls, readBlocks   atomic.Int64
	writeCalls, writeBlocks atomic.Int64
	syncs                   atomic.Int64
	readNs, writeNs, syncNs atomic.Int64
}

// deviceSnap is a point-in-time copy of deviceStats.
type deviceSnap struct {
	readCalls, readBlocks   int64
	writeCalls, writeBlocks int64
	syncs                   int64
	readNs, writeNs, syncNs int64
}

func (d *deviceStats) snap() deviceSnap {
	return deviceSnap{
		readCalls: d.readCalls.Load(), readBlocks: d.readBlocks.Load(),
		writeCalls: d.writeCalls.Load(), writeBlocks: d.writeBlocks.Load(),
		syncs: d.syncs.Load(), readNs: d.readNs.Load(), writeNs: d.writeNs.Load(), syncNs: d.syncNs.Load(),
	}
}

func (a deviceSnap) sub(b deviceSnap) deviceSnap {
	return deviceSnap{
		readCalls: a.readCalls - b.readCalls, readBlocks: a.readBlocks - b.readBlocks,
		writeCalls: a.writeCalls - b.writeCalls, writeBlocks: a.writeBlocks - b.writeBlocks,
		syncs: a.syncs - b.syncs, readNs: a.readNs - b.readNs, writeNs: a.writeNs - b.writeNs, syncNs: a.syncNs - b.syncNs,
	}
}

// timedDevice wraps a raw block device. It forwards every capability the
// stack probes for — batch reads and writes, sync, truncate, commit and
// the mapped-read counter — through the storage package's *IfAble/*Of
// helpers, so a wrapped stack issues exactly the calls an unwrapped one
// does; it only adds counting, timing and, when traced, one span per call.
type timedDevice struct {
	inner storage.BlockStore
	st    *deviceStats
	tr    *tracer
}

// deviceWrap returns a BaseWrap hook that installs a timedDevice.
func deviceWrap(st *deviceStats, tr *tracer) func(storage.BlockStore) storage.BlockStore {
	return func(bs storage.BlockStore) storage.BlockStore {
		return &timedDevice{inner: bs, st: st, tr: tr}
	}
}

func (d *timedDevice) span(name string, start time.Time) time.Time {
	end := time.Now()
	if d.tr != nil {
		d.tr.record(d.tr.newID(), d.tr.parent.Load(), name, start, end)
	}
	return end
}

func (d *timedDevice) BlockSize() int { return d.inner.BlockSize() }

func (d *timedDevice) ReadBlock(id int, buf []float64) error {
	t := time.Now()
	err := d.inner.ReadBlock(id, buf)
	d.st.readNs.Add(int64(d.span("device.read", t).Sub(t)))
	d.st.readCalls.Add(1)
	d.st.readBlocks.Add(1)
	return err
}

func (d *timedDevice) ReadBlocks(ids []int, bufs [][]float64) error {
	t := time.Now()
	err := storage.ReadBlocksOf(d.inner, ids, bufs)
	d.st.readNs.Add(int64(d.span("device.read", t).Sub(t)))
	d.st.readCalls.Add(1)
	d.st.readBlocks.Add(int64(len(ids)))
	return err
}

func (d *timedDevice) WriteBlock(id int, data []float64) error {
	t := time.Now()
	err := d.inner.WriteBlock(id, data) //shiftsplitvet:ignore journalwrite -- forwards a write the journal layer above issued
	d.st.writeNs.Add(int64(d.span("device.write", t).Sub(t)))
	d.st.writeCalls.Add(1)
	d.st.writeBlocks.Add(1)
	return err
}

func (d *timedDevice) WriteBlocks(ids []int, data [][]float64) error {
	t := time.Now()
	err := storage.WriteBlocksOf(d.inner, ids, data)
	d.st.writeNs.Add(int64(d.span("device.write", t).Sub(t)))
	d.st.writeCalls.Add(1)
	d.st.writeBlocks.Add(int64(len(ids)))
	return err
}

func (d *timedDevice) Sync() error {
	t := time.Now()
	err := storage.SyncIfAble(d.inner)
	d.st.syncNs.Add(int64(d.span("device.sync", t).Sub(t)))
	d.st.syncs.Add(1)
	return err
}

func (d *timedDevice) Truncate() error {
	return storage.TruncateIfAble(d.inner) //shiftsplitvet:ignore journalwrite -- forwards the journal layer's own truncate
}

func (d *timedDevice) Commit() error { return storage.CommitIfAble(d.inner) }

func (d *timedDevice) MappedReads() int64 { return storage.MappedReadsOf(d.inner) }

func (d *timedDevice) Close() error { return d.inner.Close() }
