// Command fleetbench is the repository's end-to-end benchmark: three
// workloads drive the fl, history, unlearn, verify and server layers
// from outside, through their public Go API or over HTTP, and report
// the metrics named in BENCHMARK.json.
//
//	go run . --workload fleet-lifecycle --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it measures the same workload untraced for half
// of --seconds, then traced for the other half, and reports the
// per-layer metrics (see README.md). The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The line before it is the environment header. The process exits 1
// when an output check fails and 2 on a usage or set-up error.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupRepeats is how many times each run builds its world; setup_s
// is the median, and the last world built is the one measured.
const setupRepeats = 5

// workDir holds everything a run writes: spill files and span dumps.
const workDir = ".bench_build"

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// world is one workload's built state: everything setup_s pays for.
type world interface {
	// measure runs the workload for the given wall budget. tr is nil
	// for the untraced run.
	measure(ctx context.Context, budget time.Duration, tr *tracer) (*phase, error)
}

// workloadSpec names a workload and builds its world.
type workloadSpec struct {
	name  string
	build func(o options, acct *accounting) (world, error)
}

var workloads = []workloadSpec{
	{"fleet-lifecycle", buildFleet},
	{"unlearn-under-load", buildUnderLoad},
	{"rsu-http", buildRSU},
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	f := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	var o options
	var trace int
	f.StringVar(&o.workload, "workload", "", "workload name")
	f.Uint64Var(&o.seed, "seed", 1, "workload seed: every input is generated from it")
	f.Float64Var(&o.seconds, "seconds", 15, "measured wall time per run")
	f.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	if err := f.Parse(args); err != nil {
		return o, err
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	o.trace = trace == 1
	return o, nil
}

func run(o options) (*result, error) {
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == o.workload {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(filepath.Join(workDir, "spill"), 0o755); err != nil {
		return nil, err
	}
	printEnv(o)

	acct := &accounting{}
	setups := make([]float64, 0, setupRepeats)
	var w world
	for i := 0; i < setupRepeats; i++ {
		w = nil
		runtime.GC()
		start := time.Now()
		var err error
		w, err = spec.build(o, acct)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	ctx := context.Background()
	budget := time.Duration(o.seconds * float64(time.Second))
	// Every timed phase starts from a collected heap.
	runtime.GC()
	res := &result{Metrics: map[string]metric{}}
	if !o.trace {
		p, err := w.measure(ctx, budget, nil)
		if err != nil {
			return nil, err
		}
		p.endToEnd(res.Metrics)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	} else {
		base, err := w.measure(ctx, budget/2, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		runtime.GC()
		traced, err := w.measure(ctx, budget/2, tr)
		if err != nil {
			return nil, err
		}
		traced.checkAgainst(base, acct)
		err = tr.validate()
		acct.check(err == nil, "span trees: %v", err)
		layers := traced.layers
		layers["trace.overhead_share"] = metric{
			(traced.roundP50() - base.roundP50()) / base.roundP50(), "fraction"}
		// The tail is too unsteady on a shared 2-core host to gate, so
		// it is reported here, from the untraced half, and not gated.
		layers["fl.round_p99_ms"] = metric{Value: quantile(base.roundLat, 0.99)}
		fillLayers(layers)
		res.Metrics = layers
		if err := tr.write(filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))); err != nil {
			return nil, err
		}
		tr.summarize(os.Stderr)
	}
	res.Attempted, res.Failed = acct.totals()
	res.Correct = acct.ok()
	return res, nil
}

// accounting counts operations attempted and failed across a run.
// Output checks count as operations too: a failed check is a failed
// operation and makes the run incorrect.
type accounting struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	checkFail bool
}

// op records one operation and whether it failed.
func (a *accounting) op(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempted++
	if err != nil {
		a.failed++
	}
}

// check records one output check; a false cond is reported on stderr.
func (a *accounting) check(cond bool, format string, args ...any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempted++
	if !cond {
		a.failed++
		a.checkFail = true
		fmt.Fprintf(os.Stderr, "fleetbench: check failed: "+format+"\n", args...)
	}
}

func (a *accounting) totals() (int64, int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.attempted, a.failed
}

func (a *accounting) ok() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return !a.checkFail
}

// printEnv writes the environment header line.
func printEnv(o options) {
	env := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit(),
		"source":     sourceDigest(),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
	}
	line, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(line))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reports HEAD when the run starts in a git work tree, and
// "none" in an exported checkout (the source digest identifies it).
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under the
// working directory, so two runs of the same code carry the same
// digest with or without git.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// heapLiveMiB is the live heap after a full collection.
func heapLiveMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
