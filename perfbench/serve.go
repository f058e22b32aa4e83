package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/server"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

// Every store the benchmark builds: standard form, tile_bits 2, loaded
// with chunks of 2^chunkBits cells per edge, durable and versioned.
const (
	tileBits  = 2
	chunkBits = 5
)

// serveSpec describes a query workload.
type serveSpec struct {
	n           int     // domain edge (n×n)
	cacheBlocks int     // serve cache size
	clients     int     // closed-loop HTTP clients
	mergeRate   float64 // open-loop merges per second beside the readers; 0 for none
	mergeEdge   int     // edge of each merged block
}

var (
	// readHot: the cache holds all 7225 blocks of a 256² store.
	readHot = serveSpec{n: 256, cacheBlocks: 8192, clients: 2}
	// readCold: a 1024-block cache over the 116281 blocks of a 1024² store.
	readCold = serveSpec{n: 1024, cacheBlocks: 1024, clients: 2}
	// mixed: read-hot's store and stream from one client, beside a writer
	// merging 8×8 blocks at 50 flips per second.
	mixed = serveSpec{n: 256, cacheBlocks: 8192, clients: 1, mergeRate: 50, mergeEdge: 8}
)

// replayQueries is how many queries of client 0's stream the traced pass
// replays in process; it fixes the exact per-query counts.
const replayQueries = 4000

// buildStore creates the durable versioned store of src at path and loads
// it with the chunked transform.
func buildStore(path string, src *shiftsplit.Array, wrap func(storage.BlockStore) storage.BlockStore) (*shiftsplit.Store, error) {
	st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{
		Shape: src.Shape(), Form: shiftsplit.Standard, TileBits: tileBits,
		Path: path, Durable: true, Versioned: true, BaseWrap: wrap,
	})
	if err != nil {
		return nil, err
	}
	if err := st.TransformChunked(src, chunkBits); err != nil {
		_ = st.Close() // the load error is the one to report
		return nil, err
	}
	return st, nil
}

// httpServer is a running internal/server instance on a loopback port.
type httpServer struct {
	url    string
	cancel context.CancelFunc
	done   chan error
}

func startServer(st *shiftsplit.Store, cfg server.Config) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &httpServer{url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	srv := server.New(st, cfg)
	go func() { h.done <- srv.Serve(ctx, ln) }()
	return h, nil
}

// stop shuts the server down and waits for it to exit.
func (h *httpServer) stop() error {
	h.cancel()
	return <-h.done
}

// newClient returns an HTTP client that keeps one connection per load
// source alive.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
}

// post sends a JSON body and decodes a 200 answer into out. It returns the
// HTTP status (0 on a transport error).
func post(ctx context.Context, c *http.Client, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// serveSetup is one built and warmed serving stack.
type serveSetup struct {
	dir string
	src *shiftsplit.Array
	st  *shiftsplit.Store
	srv *httpServer
}

func (s *serveSetup) close() {
	if s.srv != nil {
		s.srv.stop()
	}
	if s.st != nil {
		_ = s.st.Close() // the stack was only read; the run's checks are done
	}
	os.RemoveAll(s.dir)
}

// setupServe builds the store, opens it for serving, warms the cache with
// one full read and starts the HTTP server.
func setupServe(e *env, spec serveSpec, rep int) (*serveSetup, error) {
	s := &serveSetup{dir: filepath.Join(e.tmp, "serve"+strconv.Itoa(rep))}
	if err := s.open(e, spec); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveSetup) open(e *env, spec serveSpec) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	s.src = dataset.Dense([]int{spec.n, spec.n}, e.seed)
	path := filepath.Join(s.dir, "store.wav")
	built, err := buildStore(path, s.src, nil)
	if err != nil {
		return err
	}
	if err := built.Close(); err != nil {
		return err
	}
	if s.st, err = shiftsplit.OpenServingOpts(path, shiftsplit.ServeOptions{CacheBlocks: spec.cacheBlocks, BaseWrap: e.wrap()}); err != nil {
		return err
	}
	if _, err := s.st.ReadTransform(); err != nil {
		return err
	}
	s.srv, err = startServer(s.st, server.Config{MaxConcurrent: 64})
	return err
}

// runServe runs read-hot, read-cold or mixed.
func runServe(e *env, spec serveSpec) (*passResult, error) {
	res := &passResult{}
	s, setup, setups, err := setUp(e, func(rep int) (*serveSetup, error) { return setupServe(e, spec, rep) })
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer s.close()
	st := s.st

	oracle := newGrid(s.src.Data(), spec.n, spec.n)

	// The writer's merges are generated and transformed before timing.
	var merges []mergeOp
	var hats []*shiftsplit.Array
	if spec.mergeRate > 0 {
		g := newMergeGen(e.seed, spec.n, spec.mergeEdge)
		count := int(spec.mergeRate * e.seconds)
		for k := 0; k < count; k++ {
			op := g.next()
			merges = append(merges, op)
			hats = append(hats, shiftsplit.Transform(shiftsplit.FromSlice(op.delta, op.edge, op.edge), shiftsplit.Standard))
		}
	}

	// ---- timed phase ----
	phase := e.tr.newID()
	e.tr.setParent(phase)
	cs0, _ := st.CacheStats()
	es0, _ := st.EpochStats()
	io0 := st.Stats()
	var dev0 deviceSnap
	if e.dev != nil {
		dev0 = e.dev.snap()
	}
	rt0 := takeRuntime()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var pinnedMax int
	var samplerWG sync.WaitGroup
	stopSampler := make(chan struct{})
	if e.traced() {
		samplerWG.Add(1)
		go func() {
			defer samplerWG.Done()
			tick := time.NewTicker(250 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					if es, ok := st.EpochStats(); ok && es.Pinned > pinnedMax {
						pinnedMax = es.Pinned
					}
				}
			}
		}()
	}

	// A static store is checked as answers arrive; beside a writer, answers
	// are kept and checked afterwards against the epoch each one reports.
	static := len(merges) == 0
	oracle.rebuild()
	start := time.Now()
	deadline := start.Add(e.duration())
	windows := int(math.Ceil(e.seconds))
	logs := make([]*clientLog, spec.clients)
	var wg sync.WaitGroup
	for c := 0; c < spec.clients; c++ {
		logs[c] = newClientLog(windows, int(e.seconds*maxQueryRate)/spec.clients)
		wg.Add(1)
		go func(l *clientLog, c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			gen := newQueryGen(e.seed, c, spec.n)
			var buf []byte
			for time.Now().Before(deadline) {
				q := gen.next()
				buf = q.body(buf)
				route := "/v1/rangesum"
				if q.isPoint() {
					route = "/v1/point"
				}
				var out struct {
					Value float64 `json:"value"`
					Sum   float64 `json:"sum"`
					Epoch uint64  `json:"epoch"`
				}
				id := e.tr.newID()
				t := time.Now()
				status, err := post(ctx, client, s.srv.url+route, buf, &out)
				end := time.Now()
				e.tr.record(id, phase, "http"+route, t, end)
				got := out.Sum
				if q.isPoint() {
					got = out.Value
				}
				switch {
				case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
					l.refused++
				case err != nil:
					l.failed++
					l.failMsg = err.Error()
				case static:
					l.observe(q, end.Sub(t), end.Sub(start))
					if cerr := oracle.check(q, got); cerr != nil {
						l.wrong = append(l.wrong, cerr)
					}
				default:
					l.observe(q, end.Sub(t), end.Sub(start))
					l.records = append(l.records, record{q: q, got: got, epoch: out.Epoch})
				}
			}
		}(logs[c], c)
	}

	var writer openLoopResult
	var writerErr error
	epochs := make([]uint64, len(merges))
	if len(merges) > 0 {
		period := time.Duration(float64(time.Second) / spec.mergeRate)
		writer, writerErr = runOpenLoop(ctx, wallClock{}, start, len(merges), period, func(k int) error {
			op := merges[k]
			b := shiftsplit.CubeBlock(bitsOf(op.edge), op.pos...)
			id := e.tr.newID()
			t := time.Now()
			err := st.MergeBlock(b, hats[k])
			end := time.Now()
			e.tr.record(id, phase, "merge", t, end)
			epochs[k] = st.CurrentEpoch()
			return err
		})
	}
	wg.Wait()
	rt1 := takeRuntime()
	close(stopSampler)
	samplerWG.Wait()
	e.tr.record(phase, 0, "phase.load", start, time.Now())
	e.tr.setParent(0)
	if writerErr != nil {
		return nil, fmt.Errorf("merge writer: %w", writerErr)
	}
	cs1, _ := st.CacheStats()
	es1, _ := st.EpochStats()
	io1 := st.Stats()

	// ---- correctness: every answer against the data-domain oracle ----
	var records []record
	var lat, pointLat, rangeLat samples
	perWindow := make([]float64, windows)
	latWindows := make([]samples, max(1, int(e.seconds)))
	var refused int64
	for _, l := range logs {
		records = append(records, l.records...)
		for _, err := range l.wrong {
			res.wrongAnswer(err)
		}
		refused += l.refused
		res.failed += l.failed + l.refused
		if l.failMsg != "" {
			res.notes = append(res.notes, "client error: "+l.failMsg)
		}
		pointLat.v = append(pointLat.v, l.point.v...)
		rangeLat.v = append(rangeLat.v, l.rangeLat.v...)
		for w, n := range l.perWindow {
			perWindow[w] += float64(n)
		}
		l.windows(latWindows)
	}
	lat.v = append(append(lat.v, pointLat.v...), rangeLat.v...)
	queries := lat.n()
	res.attempted = int64(queries) + res.failed
	checkRecords(res, oracle, records, merges, epochs)
	if len(merges) > 0 {
		res.attempted += int64(writer.done)
	}

	// ---- end-to-end metrics ----
	// Throughput and latency are medians over whole one-second windows, so
	// a short stall of the host moves them less than figures pooled over
	// the run would.
	qps := medianOf(perWindow[:len(latWindows)])
	res.notes = append(res.notes, fmt.Sprintf("queries per 1 s window: %v", perWindow))
	rss := peakRSSMB()
	res.e2e.add("setup_s", "s", setup, setups)
	res.e2e.add("ops_per_s", "1/s", qps, queries)
	res.e2e.addW("p50_ms", latWindows, 0.5, &res.invalid)
	res.e2e.add("peak_rss_mb", "MB", rss, 1)

	res.named.add("setup_s", "s", setup, setups)
	res.named.add("queries_per_s", "1/s", qps, queries)
	res.named.addQ("point_p50_ms", &pointLat, 0.5, &res.invalid)
	res.named.addQ("point_p99_ms", &pointLat, 0.99, &res.invalid)
	res.named.addQ("rangesum_p50_ms", &rangeLat, 0.5, &res.invalid)
	res.named.addQ("rangesum_p99_ms", &rangeLat, 0.99, &res.invalid)
	if len(merges) > 0 {
		res.named.addQ("merge_p50_ms", &writer.latency, 0.5, &res.invalid)
		res.named.addQ("merge_p99_ms", &writer.latency, 0.99, &res.invalid)
		flipRate := float64(es1.Epoch-es0.Epoch) / writer.last.Sub(start).Seconds()
		res.named.add("flips_per_s", "1/s", flipRate, writer.done)
		res.named.addQ("gen_late_p99_ms", &writer.late, 0.99, &res.invalid)
		if flipRate < 0.95*spec.mergeRate {
			res.invalid = append(res.invalid, fmt.Sprintf("merge writer behind schedule: %.2f flips/s against %.0f", flipRate, spec.mergeRate))
		}
	}
	res.named.add("peak_rss_mb", "MB", rss, 1)
	res.named.add("error_frac", "ratio", res.errorFrac(), int(res.attempted))

	if !e.traced() {
		return res, nil
	}

	// ---- per-layer metrics (traced pass) ----
	L := &res.layers
	rep, err := replay(e, st, oracle, res, replayQueries)
	if err != nil {
		return nil, err
	}
	L.add("server.self_us_p50", "us", (lat.median()-rep.lat.median())*1e3, queries)
	L.add("server.refused", "count", float64(refused), queries)
	L.add("shiftsplit.point_us_p50", "us", rep.pointUs.median(), rep.pointUs.n())
	L.add("shiftsplit.rangesum_us_p50", "us", rep.rangeUs.median(), rep.rangeUs.n())
	L.add("shiftsplit.point_allocs", "allocs/op", rep.pointAllocs, rep.pointUs.n())
	L.add("shiftsplit.rangesum_allocs", "allocs/op", rep.rangeAllocs, rep.rangeUs.n())
	L.add("shiftsplit.pin_ns", "ns", rep.pinNs.median(), rep.pinNs.n())
	L.add("shiftsplit.merge_self_ms", "ms", 0, 0)
	addTileQueryLayers(L, rep)
	addMergeTileLayers(L, spec.n, spec.mergeEdge, io1.Writes-io0.Writes, len(merges))

	dCache := struct{ hits, misses, loads, evictions int64 }{cs1.Hits - cs0.Hits, cs1.Misses - cs0.Misses, cs1.Loads - cs0.Loads, cs1.Evictions - cs0.Evictions}
	hitRate := 0.0
	if dCache.hits+dCache.misses > 0 {
		hitRate = float64(dCache.hits) / float64(dCache.hits+dCache.misses)
	}
	L.add("cache.hit_rate", "ratio", hitRate, int(dCache.hits+dCache.misses))
	L.add("cache.loads_per_query", "count", ratio(dCache.loads, queries), queries)
	L.add("cache.evictions", "count", float64(dCache.evictions), queries)
	flips := int(es1.Epoch - es0.Epoch)
	L.add("cache.loads_per_flip", "count", ratio(dCache.loads, flips), flips)

	dev := e.dev.snap().sub(dev0)
	L.add("storage.device_reads_per_query", "count", ratio(dev.readBlocks, queries), queries)
	L.add("storage.device_read_us_per_query", "us", ratio(dev.readNs, queries)/1e3, queries)
	addDeviceWriteLayers(L, dev, len(merges), len(merges)*spec.mergeEdge*spec.mergeEdge)
	L.add("storage.flips", "count", float64(flips), flips)
	L.add("storage.phys_blocks", "count", float64(es1.PhysBlocks), 1)
	L.add("storage.free_blocks", "count", float64(es1.FreeBlocks), 1)
	L.add("storage.pinned_max", "count", float64(pinnedMax), 1)

	L.add("transform.mem_cells_per_s", "cells/s", 0, 0)
	L.add("transform.writes_over_r1", "ratio", 0, 0)
	L.add("wavelet.ns_per_coef", "ns", waveletNsPerCoef(), 1)
	addIngestLayers(L, nil, 0)
	L.addRuntime(rt0, rt1, queries+len(merges))
	late := 0.0
	if len(merges) > 0 {
		late, _ = writer.late.quantile(0.99)
	}
	L.add("gen.late_p99_ms", "ms", late, writer.late.n())
	return res, nil
}

// clientLog is what one closed-loop client measured.
type clientLog struct {
	point, rangeLat samples // ms
	all             samples // ms, points and range sums in completion order
	perWindow       []int   // answers completed in each one-second window
	records         []record
	wrong           []error
	refused, failed int64
	failMsg         string
}

// maxQueryRate is the query rate, over all clients, the latency buffers
// are sized for.
const maxQueryRate = 25000

// newClientLog sizes the latency buffers for n answers up front: the
// server shares this process's heap, and buffers that grew as the run went
// on would raise the collector's goal, and with it the throughput, over
// the course of the run.
func newClientLog(windows, n int) *clientLog {
	l := &clientLog{perWindow: make([]int, windows)}
	l.point.v = make([]float64, 0, int(pointShare*float64(n)))
	l.rangeLat.v = make([]float64, 0, n-cap(l.point.v))
	l.all.v = make([]float64, 0, n)
	return l
}

// observe records one answered query that completed at offset since the
// start of the timed phase.
func (l *clientLog) observe(q query, latency, offset time.Duration) {
	if q.isPoint() {
		l.point.addMs(latency)
	} else {
		l.rangeLat.addMs(latency)
	}
	l.all.addMs(latency)
	if w := int(offset / time.Second); w < len(l.perWindow) {
		l.perWindow[w]++
	}
}

// windows adds this client's latencies to the one-second windows they
// completed in; answers after the last window are left out.
func (l *clientLog) windows(ws []samples) {
	i := 0
	for w, n := range l.perWindow[:len(ws)] {
		ws[w].v = append(ws[w].v, l.all.v[i:i+n]...)
		i += n
	}
}

// record is one served answer kept for checking after the run.
type record struct {
	q     query
	got   float64
	epoch uint64
}

// checkRecords verifies answers served beside the writer against the state
// of the epoch each reports: the source plus every merge whose flip landed
// at or before that epoch. It leaves the oracle at the final state.
func checkRecords(res *passResult, oracle *grid, records []record, merges []mergeOp, epochs []uint64) {
	sort.SliceStable(records, func(i, j int) bool { return records[i].epoch < records[j].epoch })
	applied := 0
	for _, r := range records {
		for applied < len(merges) && epochs[applied] != 0 && epochs[applied] <= r.epoch {
			oracle.apply(merges[applied])
			applied++
		}
		if err := oracle.check(r.q, r.got); err != nil {
			res.wrongAnswer(fmt.Errorf("epoch %d: %w", r.epoch, err))
		}
	}
	for applied < len(merges) && epochs[applied] != 0 {
		oracle.apply(merges[applied])
		applied++
	}
}

// replayResult is the in-process replay of client 0's query stream.
type replayResult struct {
	lat, pointUs, rangeUs, pinNs samples
	pointAllocs, rangeAllocs     float64
	pointBlocks, pointBound      int64
	rangeBlocks, rangeBound      int64
	points, ranges               int
}

// replay sends the first count queries of client 0's stream
// through Snapshot.Point and Snapshot.RangeSum in one goroutine, timing
// each call and its pin, counting the blocks each reads against the Lemma
// 1/2 bound, and checking each answer.
func replay(e *env, st *shiftsplit.Store, oracle *grid, res *passResult, count int) (*replayResult, error) {
	n := st.Shape()[0]
	gen := newQueryGen(e.seed, 0, n)
	qs := make([]query, count)
	for i := range qs {
		qs[i] = gen.next()
	}
	tiling := tile.NewStandard([]int{bitsOf(n), bitsOf(n)}, tileBits)
	r := &replayResult{}
	phase := e.tr.newID()
	e.tr.setParent(phase)
	begin := time.Now()
	for _, q := range qs {
		id := e.tr.newID()
		t0 := time.Now()
		snap := st.AcquireSnapshot()
		t1 := time.Now()
		var got float64
		var blocks int
		var err error
		if q.isPoint() {
			got, blocks, err = snap.Point(q.start[:]...)
		} else {
			got, blocks, err = snap.RangeSum(q.start[:], q.extent[:])
		}
		t2 := time.Now()
		snap.Release()
		t3 := time.Now()
		e.tr.record(id, phase, "replay", t0, t3)
		res.attempted++
		if err != nil {
			res.failed++
			continue
		}
		if cerr := oracle.check(q, got); cerr != nil {
			res.wrongAnswer(fmt.Errorf("replay: %w", cerr))
		}
		r.lat.addMs(t3.Sub(t0))
		r.pinNs.add(float64(t1.Sub(t0) + t3.Sub(t2)))
		us := float64(t2.Sub(t1)) / 1e3
		bound := int64(lemmaBlocks(tiling, n, q))
		if q.isPoint() {
			r.pointUs.add(us)
			r.pointBlocks += int64(blocks)
			r.pointBound += bound
			r.points++
		} else {
			r.rangeUs.add(us)
			r.rangeBlocks += int64(blocks)
			r.rangeBound += bound
			r.ranges++
		}
	}
	e.tr.record(phase, 0, "phase.replay", begin, time.Now())
	e.tr.setParent(0)
	var err error
	if r.pointAllocs, err = allocsPerQuery(st, qs, true); err != nil {
		return nil, err
	}
	if r.rangeAllocs, err = allocsPerQuery(st, qs, false); err != nil {
		return nil, err
	}
	return r, nil
}

func ratio(a int64, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func bitsOf(x int) int {
	b := 0
	for 1<<b < x {
		b++
	}
	return b
}
