package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/ingest"
	"github.com/shiftsplit/shiftsplit/internal/server"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/transform"
)

// The maintain workload runs one pass of three phases with fixed counts,
// so every run crosses the same domain expansions and issues the same
// merges; it is not cut short or repeated to fit --seconds, so its exact
// counts stay comparable. The gated merge latency is the median over 20
// windows of 100 consecutive merges, so the pass merges 2000 blocks (about
// 40 s on a 2-vCPU Xeon @ 2.10GHz).
const (
	maintainN       = 1024 // (a) loads a maintainN² array
	maintainMerges  = 2000 // (b) closed-loop MergeBlocks
	mergeEdge       = 16   // of mergeEdge² blocks
	mergeWindow     = 100  // consecutive merges per window of the gated latency
	readBackQueries = 1000 // (b) queries after Close and OpenStore
	ingestCross     = 8    // (c) slabs are ingestCross×1 columns
	ingestSlabs     = 1000 // appended by ingestClients closed-loop clients
	ingestClients   = 2
	ingestReadBack  = 500 // cells read back through /v1/ingest/point
)

// maintainSetup is the workload's input and its empty store.
type maintainSetup struct {
	dir    string
	src    *shiftsplit.Array
	merges []mergeOp
	hats   []*shiftsplit.Array
	st     *shiftsplit.Store
}

func setupMaintain(e *env, rep int) (*maintainSetup, error) {
	s := &maintainSetup{dir: filepath.Join(e.tmp, "maintain"+strconv.Itoa(rep))}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	s.src = dataset.Dense([]int{maintainN, maintainN}, e.seed)
	g := newMergeGen(e.seed, maintainN, mergeEdge)
	for k := 0; k < maintainMerges; k++ {
		op := g.next()
		s.merges = append(s.merges, op)
		s.hats = append(s.hats, shiftsplit.Transform(shiftsplit.FromSlice(op.delta, op.edge, op.edge), shiftsplit.Standard))
	}
	var err error
	s.st, err = shiftsplit.CreateStore(shiftsplit.StoreOptions{
		Shape: []int{maintainN, maintainN}, Form: shiftsplit.Standard, TileBits: tileBits,
		Path: filepath.Join(s.dir, "store.wav"), Durable: true, Versioned: true, BaseWrap: e.wrap(),
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *maintainSetup) close() {
	if s.st != nil {
		_ = s.st.Close() // set-up or error path; a completed run closes it itself
	}
	os.RemoveAll(s.dir)
}

// maintainRun is what the three phases measured.
type maintainRun struct {
	loadWall, mergeWall, ingestWall time.Duration
	mergeLat, appendLat, mergeSelf  samples
	mergeWrites                     int64 // store-counted block writes in (b)
	flips                           uint64
	epochs                          shiftsplit.EpochStats
	diskBytes                       int64
	appended                        int
	refused                         int64
	readBack                        *replayResult
	ingest                          ingest.Stats
	devLoad, devMerge, devIngest    deviceSnap
}

// runMaintain runs the write-only workload.
func runMaintain(e *env) (*passResult, error) {
	res := &passResult{}
	s, setup, setups, err := setUp(e, func(rep int) (*maintainSetup, error) { return setupMaintain(e, rep) })
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer s.close()

	rt0 := takeRuntime()
	c, err := runPhases(e, s, res)
	if err != nil {
		return nil, err
	}
	rt1 := takeRuntime()

	ops := 1 + maintainMerges + ingestSlabs
	rss := peakRSSMB()
	res.notes = append(res.notes, fmt.Sprintf("load %d cells, %d merges of %d×%d, %d appends of %d cells",
		maintainN*maintainN, maintainMerges, mergeEdge, mergeEdge, ingestSlabs, ingestCross))

	res.e2e.add("setup_s", "s", setup, setups)
	res.e2e.add("ops_per_s", "1/s", float64(ops)/(c.loadWall+c.mergeWall+c.ingestWall).Seconds(), ops)
	res.e2e.addW("p50_ms", chunks(&c.mergeLat, mergeWindow), 0.5, &res.invalid)
	res.e2e.add("peak_rss_mb", "MB", rss, 1)

	res.named.add("setup_s", "s", setup, setups)
	res.named.add("load_cells_per_s", "cells/s", float64(maintainN*maintainN)/c.loadWall.Seconds(), 1)
	res.named.addQ("merge_p50_ms", &c.mergeLat, 0.5, &res.invalid)
	res.named.addQ("merge_p99_ms", &c.mergeLat, 0.99, &res.invalid)
	res.named.add("appends_per_s", "slabs/s", float64(c.appended)/c.ingestWall.Seconds(), c.appended)
	res.named.addQ("append_p50_ms", &c.appendLat, 0.5, &res.invalid)
	res.named.addQ("append_p99_ms", &c.appendLat, 0.99, &res.invalid)
	res.named.add("disk_bytes_per_cell", "B", float64(c.diskBytes)/float64(maintainN*maintainN), 1)
	res.named.add("peak_rss_mb", "MB", rss, 1)
	res.named.add("error_frac", "ratio", res.errorFrac(), int(res.attempted))

	if !e.traced() {
		return res, nil
	}

	L := &res.layers
	rb := c.readBack
	L.add("server.self_us_p50", "us", 0, 0)
	L.add("server.refused", "count", float64(c.refused), c.appended)
	L.add("shiftsplit.point_us_p50", "us", rb.pointUs.median(), rb.pointUs.n())
	L.add("shiftsplit.rangesum_us_p50", "us", rb.rangeUs.median(), rb.rangeUs.n())
	L.add("shiftsplit.point_allocs", "allocs/op", rb.pointAllocs, rb.pointUs.n())
	L.add("shiftsplit.rangesum_allocs", "allocs/op", rb.rangeAllocs, rb.rangeUs.n())
	L.add("shiftsplit.pin_ns", "ns", rb.pinNs.median(), rb.pinNs.n())
	L.add("shiftsplit.merge_self_ms", "ms", c.mergeSelf.median(), c.mergeSelf.n())
	addTileQueryLayers(L, rb)
	addMergeTileLayers(L, maintainN, mergeEdge, c.mergeWrites, maintainMerges)

	L.add("cache.hit_rate", "ratio", 0, 0)
	L.add("cache.loads_per_query", "count", 0, 0)
	L.add("cache.evictions", "count", 0, 0)
	L.add("cache.loads_per_flip", "count", 0, int(c.flips))

	L.add("storage.device_reads_per_query", "count", 0, 0)
	L.add("storage.device_read_us_per_query", "us", 0, 0)
	all := c.devLoad
	for _, d := range []deviceSnap{c.devMerge, c.devIngest} {
		all.writeBlocks += d.writeBlocks
		all.syncs += d.syncs
		all.syncNs += d.syncNs
	}
	cells := maintainN*maintainN + maintainMerges*mergeEdge*mergeEdge + ingestSlabs*ingestCross
	addDeviceWriteLayers(L, all, ops, cells)
	L.add("storage.flips", "count", float64(c.flips), 1)
	L.add("storage.phys_blocks", "count", float64(c.epochs.PhysBlocks), 1)
	L.add("storage.free_blocks", "count", float64(c.epochs.FreeBlocks), 1)
	L.add("storage.pinned_max", "count", float64(c.epochs.Pinned), 1)

	memRate, err := memTransformRate(e.seed)
	if err != nil {
		return nil, err
	}
	L.add("transform.mem_cells_per_s", "cells/s", memRate, 1)
	L.add("transform.writes_over_r1", "ratio", float64(c.devLoad.writeBlocks)/float64(r1Blocks(maintainN)), 1)
	L.add("wavelet.ns_per_coef", "ns", waveletNsPerCoef(), 1)
	addIngestLayers(L, &c.ingest, c.appended)
	L.addRuntime(rt0, rt1, ops)
	L.add("gen.late_p99_ms", "ms", 0, 0)

	for _, ph := range []struct {
		name string
		d    deviceSnap
		ops  int
	}{{"load", c.devLoad, 1}, {"merge", c.devMerge, maintainMerges}, {"ingest", c.devIngest, ingestSlabs}} {
		res.notes = append(res.notes, fmt.Sprintf("device in %s phase: %d block reads (%d calls), %d block writes (%d calls), %d syncs (%.1f ms), over %d ops",
			ph.name, ph.d.readBlocks, ph.d.readCalls, ph.d.writeBlocks, ph.d.writeCalls, ph.d.syncs, float64(ph.d.syncNs)/1e6, ph.ops))
	}
	res.notes = append(res.notes, fmt.Sprintf("data-device syncs are counted at the wrapper (%d in the merge phase); the journal's own fsyncs sit below no wrapper, so they are part of the unexplained merge self time (p50 %.3f ms)",
		c.devMerge.syncs, c.mergeSelf.median()))
	res.notes = append(res.notes, fmt.Sprintf("Table 1 bound per %d² merge: %d tiles; R1 bound of the load: %d blocks; written: %d",
		mergeEdge, table1Tiles(maintainN, mergeEdge), r1Blocks(maintainN), c.devLoad.writeBlocks))
	return res, nil
}

// runPhases runs phases (a), (b) and (c).
func runPhases(e *env, s *maintainSetup, res *passResult) (*maintainRun, error) {
	c := &maintainRun{}
	st := s.st
	path := filepath.Join(s.dir, "store.wav")
	snap := func() deviceSnap {
		if e.dev == nil {
			return deviceSnap{}
		}
		return e.dev.snap()
	}
	es0, _ := st.EpochStats()

	// (a) chunked transform of the source (R1).
	d0 := snap()
	phase := e.tr.newID()
	e.tr.setParent(phase)
	t := time.Now()
	err := st.TransformChunked(s.src, chunkBits)
	c.loadWall = time.Since(t)
	e.tr.record(phase, 0, "transform", t, time.Now())
	res.attempted++
	if err != nil {
		return nil, fmt.Errorf("transform: %w", err)
	}
	d1 := snap()
	c.devLoad = d1.sub(d0)

	// (b) closed-loop single-writer merges; each merge is the parent of
	// the device calls it makes.
	io0 := st.Stats()
	phase = e.tr.newID()
	begin := time.Now()
	for k, op := range s.merges {
		id := e.tr.newID()
		e.tr.setParent(id)
		t := time.Now()
		err := st.MergeBlock(shiftsplit.CubeBlock(bitsOf(op.edge), op.pos...), s.hats[k])
		end := time.Now()
		e.tr.record(id, phase, "merge", t, end)
		res.attempted++
		if err != nil {
			return nil, fmt.Errorf("merge %d: %w", k, err)
		}
		c.mergeLat.addMs(end.Sub(t))
	}
	c.mergeWall = time.Since(begin)
	e.tr.setParent(0)
	e.tr.record(phase, 0, "phase.merge", begin, time.Now())
	c.devMerge = snap().sub(d1)
	c.mergeWrites = st.Stats().Writes - io0.Writes
	if e.traced() {
		children := e.tr.byParent()
		for _, m := range e.tr.byName("merge") {
			c.mergeSelf.addMs(m.end.Sub(m.start) - covered(children[m.id], m.start, m.end))
		}
	}
	es1, _ := st.EpochStats()
	c.flips = es1.Epoch - es0.Epoch
	c.epochs = es1

	// Read back through Close and OpenStore against the oracle.
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	s.st = nil
	reopened, err := shiftsplit.OpenStore(path)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	defer reopened.Close()
	oracle := newGrid(s.src.Data(), maintainN, maintainN)
	for _, op := range s.merges {
		oracle.apply(op)
	}
	if c.readBack, err = replay(e, reopened, oracle, res, readBackQueries); err != nil {
		return nil, err
	}
	for _, p := range []string{path, storage.WalPath(path), path + ".meta.json"} {
		if fi, err := os.Stat(p); err == nil {
			c.diskBytes += fi.Size()
		}
	}

	// (c) HTTP ingest into a durable appender.
	d2 := snap()
	if err := runIngest(e, s.dir, reopened, c, res); err != nil {
		return nil, err
	}
	c.devIngest = snap().sub(d2)
	return c, nil
}

// runIngest appends ingestSlabs slabs over POST /v1/ingest from
// ingestClients closed-loop clients, then reads cells back through
// /v1/ingest/point against the values each slab's answer placed.
func runIngest(e *env, dir string, st *shiftsplit.Store, c *maintainRun, res *passResult) error {
	idir := filepath.Join(dir, "ingest")
	if err := os.MkdirAll(idir, 0o755); err != nil {
		return err
	}
	wrap := e.wrap()
	backing := func(gen, bs int) (storage.BlockStore, error) {
		return storage.CreateDurableWrapped(filepath.Join(idir, fmt.Sprintf("gen%d.wav", gen)), bs, nil, wrap)
	}
	app, err := appender.NewWithBacking([]int{ingestCross, ingestCross}, tileBits, backing)
	if err != nil {
		return err
	}
	defer func() { _ = app.Store().Close() }() // every slab was read back before this
	in, err := ingest.New(app, ingest.Config{Dim: 1})
	if err != nil {
		return err
	}
	defer in.Close()
	srv, err := startServer(st, server.Config{MaxConcurrent: 64, Ingest: in})
	if err != nil {
		return err
	}
	defer srv.stop()

	type placed struct {
		col    int
		values []float64
	}
	ctx := context.Background()
	per := ingestSlabs / ingestClients
	out := make([][]placed, ingestClients)
	lat := make([]samples, ingestClients)
	refused := make([]int64, ingestClients)
	failed := make([]int64, ingestClients)
	phase := e.tr.newID()
	e.tr.setParent(phase)
	begin := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < ingestClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			gen := newSlabGen(e.seed, k, ingestCross)
			for i := 0; i < per; i++ {
				vals := gen.next()
				body, _ := json.Marshal(map[string]any{"shape": []int{ingestCross, 1}, "values": vals}) // plain data; cannot fail
				var ans struct {
					Offset []int `json:"offset"`
				}
				id := e.tr.newID()
				t := time.Now()
				status, err := post(ctx, client, srv.url+"/v1/ingest", body, &ans)
				end := time.Now()
				e.tr.record(id, phase, "http/v1/ingest", t, end)
				switch {
				case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
					refused[k]++
				case err != nil || len(ans.Offset) != 2:
					failed[k]++
				default:
					lat[k].addMs(end.Sub(t))
					out[k] = append(out[k], placed{col: ans.Offset[1], values: vals})
				}
			}
		}(k)
	}
	wg.Wait()
	c.ingestWall = time.Since(begin)
	e.tr.setParent(0)
	e.tr.record(phase, 0, "phase.ingest", begin, time.Now())

	cols := map[int][]float64{}
	for k := range out {
		c.appendLat.v = append(c.appendLat.v, lat[k].v...)
		c.refused += refused[k]
		res.failed += refused[k] + failed[k]
		for _, p := range out[k] {
			if _, dup := cols[p.col]; dup {
				res.wrongAnswer(fmt.Errorf("ingest: two slabs placed at column %d", p.col))
			}
			cols[p.col] = p.values
		}
	}
	res.attempted += int64(ingestSlabs)
	c.appended = len(cols)

	// Read back committed cells through the HTTP API.
	client := newClient()
	defer client.CloseIdleConnections()
	r := newRNG(e.seed, "ingest-readback")
	for i := 0; i < ingestReadBack; i++ {
		col, row := r.intn(ingestSlabs), r.intn(ingestCross)
		want, ok := cols[col]
		if !ok {
			continue // a refused slab left this column unwritten
		}
		body := []byte(fmt.Sprintf(`{"point":[%d,%d]}`, row, col))
		var ans struct {
			Value float64 `json:"value"`
		}
		res.attempted++
		if _, err := post(ctx, client, srv.url+"/v1/ingest/point", body, &ans); err != nil {
			res.failed++
			continue
		}
		if !agrees(ans.Value, want[row], math.Abs(want[row])) {
			res.wrongAnswer(fmt.Errorf("ingest read-back at [%d %d]: got %.17g, want %.17g", row, col, ans.Value, want[row]))
		}
	}
	c.ingest = in.Stats()
	return nil
}

// memTransformRate is the chunked transform of the maintain source into an
// in-memory tile store with the default workers, in cells per second.
func memTransformRate(seed int64) (float64, error) {
	src := dataset.Dense([]int{maintainN, maintainN}, seed)
	tiling := tile.NewStandard([]int{bitsOf(maintainN), bitsOf(maintainN)}, tileBits)
	out, err := tile.NewStore(storage.NewMemStore(tiling.BlockSize()), tiling)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	if _, err := transform.ChunkedStandard(src, chunkBits, out); err != nil {
		return 0, err
	}
	return float64(maintainN*maintainN) / time.Since(t).Seconds(), nil
}
