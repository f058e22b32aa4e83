package server

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

// readRecorder records the frame ids read from the raw device.
type readRecorder struct {
	storage.BlockStore
	mu  sync.Mutex
	ids []int
}

func (r *readRecorder) ReadBlock(id int, buf []float64) error {
	r.mu.Lock()
	r.ids = append(r.ids, id)
	r.mu.Unlock()
	return r.BlockStore.ReadBlock(id, buf)
}

func (r *readRecorder) ReadBlocks(ids []int, bufs [][]float64) error {
	r.mu.Lock()
	r.ids = append(r.ids, ids...)
	r.mu.Unlock()
	return storage.ReadBlocksOf(r.BlockStore, ids, bufs)
}

func (r *readRecorder) Sync() error { return storage.SyncIfAble(r.BlockStore) }

func (r *readRecorder) take() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := r.ids
	r.ids = nil
	return ids
}

// zeroFilledAnswer evaluates a coefficient set over the in-memory
// transform with every coefficient stored in logical block `lost` read as
// zero: the answer degraded serving must give.
func zeroFilledAnswer(hat *shiftsplit.Array, tiling tile.Tiling, coefs []wavelet.Coef, lost int) float64 {
	sum := 0.0
	for _, c := range coefs {
		if block, _ := tiling.Locate(c.Coords); block == lost {
			continue
		}
		sum += c.Weight * hat.At(c.Coords...)
	}
	return sum
}

// TestKernelQueriesDegradeOverRottedBlock drives root-path point and
// range-sum queries — the query kernel's one vectored read — through the
// versioned serving stack over HTTP while a block in their support rots:
// the first read of the fresh corruption fails and quarantines the block,
// and later queries zero-fill it and carry the degraded flag.
func TestKernelQueriesDegradeOverRottedBlock(t *testing.T) {
	shape := []int{16, 16}
	src := dataset.Dense(shape, 7)
	path := filepath.Join(t.TempDir(), "cube.wav")
	st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{
		Shape: shape, Form: shiftsplit.Standard, TileBits: 2, Path: path,
		Durable: true, Versioned: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A chunked load leaves the store unmaterialized, so points take the
	// root path through the kernel rather than the single-block path.
	if err := st.TransformChunked(src, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec := &readRecorder{}
	sv, err := shiftsplit.OpenServingOpts(path, shiftsplit.ServeOptions{
		CacheBlocks: 64,
		BaseWrap: func(bs storage.BlockStore) storage.BlockStore {
			rec.BlockStore = bs
			return rec
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	ts := newTestServer(t, sv, Config{})

	// A whole-domain range sum needs only the overall average, which lives
	// in logical block 0 — a block every query's support includes. The
	// cold query's single device read names its physical frame.
	rec.take()
	resp, body := postJSON(t, ts.URL+"/v1/rangesum", `{"start":[0,0],"extent":[16,16]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean rangesum status %d: %s", resp.StatusCode, body)
	}
	frames := rec.take()
	if len(frames) != 1 {
		t.Fatalf("whole-domain range sum read frames %v, want exactly one", frames)
	}
	rotFrameAt(t, path, sv.BlockSize(), frames[0])
	sv.InvalidateCache()

	resp, body = postJSON(t, ts.URL+"/v1/point", `{"point":[3,5]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first read of fresh corruption: status %d, want 500: %s", resp.StatusCode, body)
	}
	if q := sv.Quarantined(); len(q) != 1 || q[0].Block != frames[0] {
		t.Fatalf("quarantine after first hit = %+v, want frame %d", q, frames[0])
	}

	hat := shiftsplit.Transform(src, shiftsplit.Standard)
	tiling := tile.NewStandard([]int{bitutil.Log2(16), bitutil.Log2(16)}, 2)

	resp, body = postJSON(t, ts.URL+"/v1/point", `{"point":[3,5]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded point status %d: %s", resp.StatusCode, body)
	}
	var pr pointResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	want := zeroFilledAnswer(hat, tiling, wavelet.PointPathStandard(shape, []int{3, 5}), 0)
	if !pr.Degraded || math.Abs(pr.Value-want) > 1e-9 {
		t.Fatalf("degraded point = %+v, want value %v flagged degraded", pr, want)
	}

	resp, body = postJSON(t, ts.URL+"/v1/rangesum", `{"start":[2,4],"extent":[9,7]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded rangesum status %d: %s", resp.StatusCode, body)
	}
	var rr rangeResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	want = zeroFilledAnswer(hat, tiling, wavelet.RangeSumCoefsStandard(shape, []int{2, 4}, []int{9, 7}), 0)
	if !rr.Degraded || math.Abs(rr.Sum-want) > 1e-9 {
		t.Fatalf("degraded rangesum = %+v, want sum %v flagged degraded", rr, want)
	}
}

// rotFrameAt flips one payload byte of frame id in a durable store's data
// file.
func rotFrameAt(t testing.TB, path string, blockSize, id int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := int64(id)*int64(8*(blockSize+storage.ChecksumOverhead)) + 3
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}
