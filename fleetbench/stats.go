package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"fuiov/internal/nn"
	"fuiov/internal/telemetry"
)

// phase is what one measured (or traced) run of a workload produced.
type phase struct {
	lifecycles  []float64 // s, one per lifecycle
	roundsPerS  []float64 // one per lifecycle
	roundLat    []float64 // ms, one per committed round of every lifecycle
	unlearn     []float64 // s, one per forget request
	accuracy    []float64 // one per lifecycle
	heapLiveMiB float64
	// identity is a model the workload guarantees to be the same on
	// every run of one seed (nil when there is none).
	identity []float64
	// layers holds the per-layer metrics of a traced run.
	layers map[string]metric
}

// another reports whether a run that started at start, has done n
// lifecycles and has a wall budget should start one more: it stops at
// the count whose predicted end lies nearest the budget.
func another(start time.Time, budget time.Duration, n int) bool {
	spent := time.Since(start)
	mean := spent / time.Duration(n)
	return spent+mean <= budget+mean/2
}

// roundP50 is the median latency over the rounds of every lifecycle.
func (p *phase) roundP50() float64 { return median(p.roundLat) }

// endToEnd writes the end-to-end metrics (all but setup_s). A metric
// the workload took no samples of is left out.
func (p *phase) endToEnd(m map[string]metric) {
	put := func(name, unit string, xs []float64) {
		if len(xs) > 0 {
			m[name] = metric{median(xs), unit}
		}
	}
	put("lifecycle_s", "s", p.lifecycles)
	put("rounds_per_s", "1/s", p.roundsPerS)
	put("round_p50_ms", "ms", p.roundLat)
	put("unlearn_s", "s", p.unlearn)
	put("final_accuracy", "fraction", p.accuracy)
	m["heap_live_mb"] = metric{p.heapLiveMiB, "MiB"}
}

// checkAgainst compares a traced phase with the untraced one.
func (p *phase) checkAgainst(base *phase, acct *accounting) {
	if p.identity == nil && base.identity == nil {
		return
	}
	acct.check(bitEqual(p.identity, base.identity),
		"traced model at the request round differs from the untraced one")
}

// layerUnits lists every per-layer metric with its unit; a traced run
// reports each one, as 0 where the workload does not exercise the
// layer (README.md says which).
var layerUnits = map[string]string{
	"nn.grad_ms":                    "ms",
	"nn.madds_per_round":            "count",
	"nn.gflops":                     "GFLOP/s",
	"dataset.batch_bytes_per_round": "bytes",
	"fl.round_ms":                   "ms",
	"fl.round_p99_ms":               "ms",
	"fl.compute_ms":                 "ms",
	"fl.compute_efficiency":         "fraction",
	"fl.commit_ms":                  "ms",
	"fl.round_lag_ms":               "ms",
	"fl.stream_fold_ms":             "ms",
	"fl.stream_resolve_ms":          "ms",
	"history.record_ms":             "ms",
	"history.bytes_per_round":       "bytes",
	"history.resident_mb":           "MiB",
	"history.spilled_mb":            "MiB",
	"history.spill_miss_share":      "fraction",
	"lbfgs.hvp_per_pass":            "count",
	"unlearn.queue_wait_ms":         "ms",
	"unlearn.pass_s":                "s",
	"unlearn.recover_round_us":      "us",
	"unlearn.rounds_recovered":      "count",
	"unlearn.rounds_chased":         "count",
	"unlearn.commit_hold_ms":        "ms",
	"unlearn.passes_per_request":    "fraction",
	"verify.fit_s":                  "s",
	"verify.score_s":                "s",
	"verify.backdoor_after":         "fraction",
	"server.status_us":              "us",
	"server.model_us":               "us",
	"server.upload_ms":              "ms",
	"server.barrier_wait_ms":        "ms",
	"server.up_bytes_per_round":     "bytes",
	"server.down_bytes_per_round":   "bytes",
	"server.unlearn_submit_ms":      "ms",
	"trace.overhead_share":          "fraction",
}

// fillLayers gives every per-layer metric its unit and reports the
// ones the workload left out as 0.
func fillLayers(m map[string]metric) {
	for name, unit := range layerUnits {
		v := m[name]
		v.Unit = unit
		m[name] = v
	}
	for name := range m {
		if _, ok := layerUnits[name]; !ok {
			panic("fleetbench: unlisted per-layer metric " + name)
		}
	}
}

// setLayer stores a per-layer metric value; NaN (no samples) reads 0.
func setLayer(m map[string]metric, name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v}
}

// quantile is the q-quantile of xs with linear interpolation between
// order statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// seconds converts durations to seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// recordStats sums the program's own history and unlearn timers across
// registries.
type recordStats struct {
	recordDur, recoverDur time.Duration
	recordN, recoverN     int64
	hits, misses          int64
}

func (r *recordStats) add(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	rs := reg.Timer(telemetry.HistoryRecord).Stats()
	r.recordDur += rs.Total
	r.recordN += rs.Count
	us := reg.Timer(telemetry.UnlearnRecoverRound).Stats()
	r.recoverDur += us.Total
	r.recoverN += us.Count
	r.hits += reg.Counter(telemetry.HistorySpillHits).Value()
	r.misses += reg.Counter(telemetry.HistorySpillMisses).Value()
}

func (r *recordStats) layers(m map[string]metric) {
	setLayer(m, "history.record_ms", float64(r.recordDur)/float64(time.Millisecond)/float64(r.recordN))
	setLayer(m, "unlearn.recover_round_us", float64(r.recoverDur)/float64(time.Microsecond)/float64(r.recoverN))
	setLayer(m, "history.spill_miss_share", float64(r.misses)/float64(r.hits+r.misses))
}

// layerMadds walks a layer stack and counts forward multiply-adds per
// sample, times three.
func layerMadds(in nn.Dims, layers []nn.Layer, numParams int) (int64, error) {
	var madds int64
	params := 0
	d := in
	for _, l := range layers {
		out := l.OutputDims(d)
		switch l := l.(type) {
		case *nn.Conv2D:
			madds += int64(out.H * out.W * l.OutC * l.InC * l.K * l.K)
		case *nn.Dense:
			madds += int64(l.In * l.Out)
		}
		params += len(l.Params())
		d = out
	}
	if params != numParams {
		return 0, fmt.Errorf("layer shapes give %d params, model has %d", params, numParams)
	}
	return 3 * madds, nil
}

// timerMeanMs is a program timer's mean observation in milliseconds.
func timerMeanMs(reg *telemetry.Registry, name string) float64 {
	s := reg.Timer(name).Stats()
	if s.Count == 0 {
		return 0
	}
	return float64(s.Total) / float64(s.Count) / float64(time.Millisecond)
}
