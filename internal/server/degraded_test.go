package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// buildDurableFile materializes a durable store on disk and returns its
// path (closed, ready to reopen for serving).
func buildDurableFile(t testing.TB, shape []int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cube.wav")
	st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{
		Shape: shape, Form: shiftsplit.Standard, TileBits: 2, Path: path, Durable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Materialize(dataset.Dense(shape, 7)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// rotWrittenFrame flips one payload byte of the first written frame in a
// durable store's data file and returns the block id.
func rotWrittenFrame(t testing.TB, path string, blockSize int) int {
	t.Helper()
	fs, err := storage.OpenFileStore(path, blockSize+storage.ChecksumOverhead)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := storage.NewChecksummed(fs)
	if err != nil {
		fs.Close()
		t.Fatal(err)
	}
	n, err := fs.NumBlocks()
	if err != nil {
		fs.Close()
		t.Fatal(err)
	}
	bad := -1
	for id := 0; id < n; id++ {
		if _, written, err := chk.ReadMeta(id); err == nil && written {
			bad = id
			break
		}
	}
	fs.Close()
	if bad < 0 {
		t.Fatal("no written frame to rot")
	}
	rotFrameAt(t, path, blockSize, bad)
	return bad
}

func getJSON(t testing.TB, url string, dst any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDegradedServingEndToEnd drives the whole degraded pipeline over HTTP:
// rot a frame, scrub it into quarantine, and watch the server keep
// answering — flagged — while healthz and stats report the damage.
func TestDegradedServingEndToEnd(t *testing.T) {
	shape := []int{16, 16}
	path := buildDurableFile(t, shape)
	st, err := shiftsplit.OpenServing(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := newTestServer(t, st, Config{})

	var h healthResponse
	getJSON(t, ts.URL+"/v1/healthz", &h)
	if h.Status != "ok" {
		t.Fatalf("healthy store reports %+v", h)
	}

	bad := rotWrittenFrame(t, path, st.BlockSize())
	if n, err := st.ScrubOnce(context.Background()); err != nil || n != 1 {
		t.Fatalf("scrub: n=%d err=%v", n, err)
	}

	getJSON(t, ts.URL+"/v1/healthz", &h)
	if h.Status != "degraded" || h.Quarantined != 1 {
		t.Fatalf("healthz after scrub = %+v", h)
	}

	// A whole-domain range sum must touch the quarantined block: it still
	// answers (200), carries the degraded flag, and is not NaN/Inf.
	resp, body := postJSON(t, ts.URL+"/v1/rangesum", `{"start":[0,0],"extent":[16,16]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded rangesum status %d: %s", resp.StatusCode, body)
	}
	var rr rangeResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Degraded {
		t.Fatalf("whole-domain answer over quarantined block %d not flagged degraded: %s", bad, body)
	}
	if math.IsNaN(rr.Sum) || math.IsInf(rr.Sum, 0) {
		t.Fatalf("degraded sum is not finite: %v", rr.Sum)
	}

	// OLAP over a degraded store is flagged and NOT cached: after a heal
	// the next load must come back clean.
	resp, body = postJSON(t, ts.URL+"/v1/olap/rollup", `{"dim":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded rollup status %d: %s", resp.StatusCode, body)
	}
	var or olapResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if !or.Degraded {
		t.Fatalf("degraded OLAP answer not flagged: %s", body)
	}

	var stats statsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Health.Status != "degraded" {
		t.Fatalf("stats health = %+v", stats.Health)
	}
	if len(stats.Quarantined) != 1 || stats.Quarantined[0].Block != bad {
		t.Fatalf("stats quarantine = %+v, want block %d", stats.Quarantined, bad)
	}
	if stats.Scrub == nil || stats.Scrub.Passes != 1 {
		t.Fatalf("stats scrub = %+v", stats.Scrub)
	}

	// Heal: repair rolls the block forward from the retained batch (the
	// serving store was freshly opened, so no batch is retained — use
	// re-materialize via a maintenance handle instead of asserting repair).
	// Here the cheap heal is a clean rewrite through the serving store's
	// write path; re-scrub releases the quarantine.
	mt, err := shiftsplit.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Materialize(dataset.Dense(shape, 7)); err != nil {
		t.Fatal(err)
	}
	if err := mt.Close(); err != nil {
		t.Fatal(err)
	}
	// The serving store's registry is its own; a scrub pass observes the
	// healed medium and releases the block.
	if n, err := st.ScrubOnce(context.Background()); err != nil || n != 0 {
		t.Fatalf("post-heal scrub: n=%d err=%v", n, err)
	}
	getJSON(t, ts.URL+"/v1/healthz", &h)
	if h.Status != "ok" {
		t.Fatalf("healthz after heal = %+v", h)
	}

	// The OLAP cache was not poisoned: a fresh load now answers clean.
	resp, body = postJSON(t, ts.URL+"/v1/olap/rollup", `{"dim":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healed rollup status %d: %s", resp.StatusCode, body)
	}
	var healed olapResponse // fresh value: omitempty would leave a stale flag on re-unmarshal
	if err := json.Unmarshal(body, &healed); err != nil {
		t.Fatal(err)
	}
	if healed.Degraded {
		t.Fatalf("healed OLAP answer still flagged degraded: %s", body)
	}
}

// TestBreakerOpenMapsTo503 wires a Faulty under a breaker-equipped serving
// store: once sustained failures trip the circuit, queries fail fast with
// 503 + Retry-After instead of hammering the dead backend.
func TestBreakerOpenMapsTo503(t *testing.T) {
	shape := []int{16, 16}
	path := buildDurableFile(t, shape)
	var faulty *storage.Faulty
	st, err := shiftsplit.OpenServingOpts(path, shiftsplit.ServeOptions{
		Breaker: &storage.BreakerOptions{Threshold: 1, Cooldown: time.Hour},
		BaseWrap: func(bs storage.BlockStore) storage.BlockStore {
			faulty = storage.NewFaulty(bs)
			return faulty
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := newTestServer(t, st, Config{})

	// Healthy first: the store answers.
	resp, body := postJSON(t, ts.URL+"/v1/point", `{"point":[3,3]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy point status %d: %s", resp.StatusCode, body)
	}

	// Kill the device. The first failing query trips the breaker (500);
	// from then on queries shed with 503 and a Retry-After hint.
	faulty.FailReadAfter(1)
	resp, body = postJSON(t, ts.URL+"/v1/point", `{"point":[3,3]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("tripping query status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/point", `{"point":[5,5]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-circuit query status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	var h healthResponse
	getJSON(t, ts.URL+"/v1/healthz", &h)
	if h.Status != "degraded" || h.Breaker != "open" {
		t.Fatalf("healthz with open breaker = %+v", h)
	}
}
