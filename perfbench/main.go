// Command perfbench is the repository's benchmark. It runs one named
// workload against the real system — stores built with the root shiftsplit
// package, queries and ingest over the HTTP API of internal/server — checks
// every answer against a data-domain oracle, and prints its metrics.
//
//	go build -o perfbench ./perfbench
//	./perfbench --workload read-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with tracing off.
// With --trace 1 it runs the workload twice, untraced and then traced (a
// timing device wrapper under every store and spans around every
// operation), and reports the per-layer metrics of the traced pass plus the
// tracing overhead, traced minus untraced, for every end-to-end metric.
//
// Human-readable lines come first; the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The command
// exits non-zero when any answer is wrong or the run is invalid.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// workDir holds everything a run writes: temporary stores and span files.
const workDir = ".bench_build/perfbench"

// An untraced run sets its workload up at least setupReps times, and
// keeps going until setupFor has been spent in set-up or maxSetupReps is
// reached; setup_s is the median. A quick set-up, dominated by a few
// fsyncs, needs more than five for a steady median.
const (
	setupReps    = 5
	setupFor     = 2 * time.Second
	maxSetupReps = 25
)

// metric is one reported figure with its unit and sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// metrics is an ordered list of figures.
type metrics []metric

func (m *metrics) add(name, unit string, value float64, n int) {
	*m = append(*m, metric{name: name, unit: unit, value: value, n: n})
}

// addQ adds a percentile of s, or records why it cannot be reported.
func (m *metrics) addQ(name string, s *samples, p float64, errs *[]string) {
	v, err := s.quantile(p)
	if err != nil {
		*errs = append(*errs, name+": "+err.Error())
		return
	}
	m.add(name, "ms", v, s.n())
}

// addW adds the windowed p-quantile of ws, or records why it cannot be
// reported.
func (m *metrics) addW(name string, ws []samples, p float64, errs *[]string) {
	v, n, err := windowed(ws, p)
	if err != nil {
		*errs = append(*errs, name+": "+err.Error())
		return
	}
	m.add(name, "ms", v, n)
}

func (m metrics) get(name string) (metric, bool) {
	for _, x := range m {
		if x.name == name {
			return x, true
		}
	}
	return metric{}, false
}

// passResult is what one pass over a workload measured.
type passResult struct {
	e2e     metrics // the gated figures named in BENCHMARK.json
	named   metrics // the workload's own end-to-end figures
	layers  metrics // per-layer figures (traced pass only)
	notes   []string
	invalid []string // reasons the run is invalid (too few samples, behind schedule)

	attempted int64
	failed    int64 // errors and refusals
	wrong     int64 // answers the oracle rejected
	mismatch  []string
}

func (r *passResult) wrongAnswer(err error) {
	r.wrong++
	if len(r.mismatch) < 10 {
		r.mismatch = append(r.mismatch, err.Error())
	}
}

func (r *passResult) errorFrac() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed+r.wrong) / float64(r.attempted)
}

// env is one pass's configuration.
type env struct {
	seed     int64
	seconds  float64
	reps     int           // least number of set-ups; setup_s is their median
	minSetup time.Duration // set up again until this much time is spent
	tmp      string        // temporary root of this pass
	tr       *tracer       // nil when untraced
	dev      *deviceStats  // nil when untraced
}

// wrap returns the BaseWrap hook of this pass: the timing device when
// traced, nothing otherwise.
func (e *env) wrap() func(storage.BlockStore) storage.BlockStore {
	if e.dev == nil {
		return nil
	}
	return deviceWrap(e.dev, e.tr)
}

func (e *env) traced() bool { return e.tr != nil }

func (e *env) duration() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

var workloads = map[string]func(*env) (*passResult, error){
	"read-hot":  func(e *env) (*passResult, error) { return runServe(e, readHot) },
	"read-cold": func(e *env) (*passResult, error) { return runServe(e, readCold) },
	"mixed":     func(e *env) (*passResult, error) { return runServe(e, mixed) },
	"maintain":  runMaintain,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "read-hot, read-cold, maintain or mixed")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "how long the timed phase runs")
	trace := fs.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need --seconds > 0 and --trace 0 or 1")
	}
	if err := os.MkdirAll(filepath.Join(workDir, "tmp"), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Join(workDir, "tmp"), *workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	printProvenance(*workload, *seed, *seconds, *trace, tmp)
	base := env{seed: *seed, seconds: *seconds, reps: setupReps, minSetup: setupFor}

	if *trace == 0 {
		e := base
		e.tmp = filepath.Join(tmp, "untraced")
		res, err := fn(&e)
		if err != nil {
			return err
		}
		printPass("untraced", res)
		return finish(res, res.e2e)
	}

	// Traced run: an untraced pass for the baseline, then the traced pass.
	e0 := base
	e0.reps, e0.minSetup = 1, 0
	e0.tmp = filepath.Join(tmp, "untraced")
	plain, err := fn(&e0)
	if err != nil {
		return err
	}
	printPass("untraced", plain)

	e1 := base
	e1.reps, e1.minSetup = 1, 0
	e1.tmp = filepath.Join(tmp, "traced")
	e1.tr = newTracer()
	e1.dev = &deviceStats{}
	res, err := fn(&e1)
	if err != nil {
		return err
	}
	printPass("traced", res)
	spanFile := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
	if err := e1.tr.write(spanFile); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s (%d dropped)\n", len(e1.tr.spans), spanFile, e1.tr.dropped)

	fmt.Println("tracing overhead (traced minus untraced):")
	for i, set := range []struct{ traced, plain metrics }{{res.e2e, plain.e2e}, {res.named, plain.named}} {
		for _, m := range set.traced {
			u, ok := set.plain.get(m.name)
			if !ok {
				continue
			}
			d := m.value - u.value
			fmt.Printf("  %-28s %+12.4f %s\n", m.name, d, m.unit)
			if i == 0 {
				res.layers.add("trace.overhead."+m.name, m.unit, d, m.n)
			}
		}
	}
	all := &passResult{
		attempted: plain.attempted + res.attempted,
		failed:    plain.failed + res.failed,
		wrong:     plain.wrong + res.wrong,
		mismatch:  append(plain.mismatch, res.mismatch...),
		invalid:   append(plain.invalid, res.invalid...),
	}
	return finish(all, res.layers)
}

// finish prints the final JSON line and turns a wrong answer or an invalid
// run into a non-zero exit.
func finish(all *passResult, out metrics) error {
	for _, why := range all.invalid {
		fmt.Println("INVALID:", why)
	}
	for _, m := range all.mismatch {
		fmt.Println("WRONG:", m)
	}
	correct := all.wrong == 0
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{correct, all.attempted, all.failed + all.wrong, map[string]map[string]any{}}
	for _, m := range out {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	switch {
	case !correct:
		return fmt.Errorf("%d wrong answers", all.wrong)
	case len(all.invalid) > 0:
		return fmt.Errorf("run invalid: %s", strings.Join(all.invalid, "; "))
	}
	return nil
}

func printPass(label string, r *passResult) {
	fmt.Printf("== %s pass: %d operations attempted, %d failed or refused, %d wrong answers\n",
		label, r.attempted, r.failed, r.wrong)
	for _, n := range r.notes {
		fmt.Println("  note:", n)
	}
	show := func(kind string, ms metrics) {
		for _, m := range ms {
			fmt.Printf("  %-6s %-36s %16.6g %-8s (n=%d)\n", kind, m.name, m.value, m.unit, m.n)
		}
	}
	show("e2e", r.e2e)
	show("metric", r.named)
	show("layer", r.layers)
}

// printProvenance records the host and the run's configuration.
func printProvenance(workload string, seed int64, seconds float64, trace int, tmp string) {
	fmt.Printf("workload: %s  seed: %d  seconds: %g  trace: %d\n", workload, seed, seconds, trace)
	fmt.Printf("host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("storage: tempdir filesystem=%s; stores durable+versioned, default flush policy (journal and data fsync on every commit); latencies are page-cache resident\n", fsType(tmp))
	fmt.Printf("commit: %s\n", commit())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commit names the source revision the binary was built from; a checkout
// without version control reports unknown.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	if rev == "" {
		return "unknown (not built from a version-controlled checkout)"
	}
	return rev + dirty
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setUp runs build from a collected heap as often as e asks, keeping only
// the last result, and returns it with the median set-up time and the
// number of set-ups.
func setUp[T interface{ close() }](e *env, build func(rep int) (T, error)) (T, float64, int, error) {
	var last T
	var times []float64
	var spent time.Duration
	for rep := 0; rep < e.reps || (spent < e.minSetup && rep < maxSetupReps); rep++ {
		if rep > 0 {
			last.close()
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if last, err = build(rep); err != nil {
			return last, 0, 0, err
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
	}
	debug.FreeOSMemory()
	return last, medianOf(times), len(times), nil
}

// medianOf returns the middle of a small set of values (setup times).
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runtimeSnap brackets a phase for the runtime layer metrics.
type runtimeSnap struct {
	cpu        time.Duration
	gcs        uint32
	pauseNs    uint64
	allocBytes uint64
}

func takeRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSnap{cpu: cpuTime(), gcs: ms.NumGC, pauseNs: ms.PauseTotalNs, allocBytes: ms.TotalAlloc}
}

// addRuntime adds the runtime layer over [a, b] with ops operations.
func (m *metrics) addRuntime(a, b runtimeSnap, ops int) {
	per := func(x float64) float64 {
		if ops == 0 {
			return 0
		}
		return x / float64(ops)
	}
	m.add("runtime.cpu_us_per_op", "us", per(float64(b.cpu-a.cpu)/1e3), ops)
	m.add("runtime.gc_cycles", "count", float64(b.gcs-a.gcs), ops)
	m.add("runtime.gc_pause_ms", "ms", float64(b.pauseNs-a.pauseNs)/1e6, ops)
	m.add("runtime.alloc_bytes_per_op", "B", per(float64(b.allocBytes-a.allocBytes)), ops)
}
