package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fuiov/internal/dataset"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/metrics"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/telemetry"
	"fuiov/internal/unlearn"
)

// unlearn-under-load: forgetting at fleet scale with a small model.
// Vehicles pass the RSU like cars on a road: each has a seeded join
// round and dwell window. A tiny MLP trains on the streaming path with
// a K-of-N sampler, rounds are due at a fixed rate (open loop), and
// bursts of forget requests arrive at fixed round numbers.
const (
	ulVehicles   = 2000
	ulPerVehicle = 12 // samples per vehicle shard
	ulBatch      = 4
	ulImg        = 12
	ulHidden     = 16
	ulClasses    = 10
	ulK          = 64
	ulShards     = 2
	ulHistory    = 200 // rounds recorded during setup
	ulSpill      = 32  // snapshots kept in RAM
	ulLR         = 0.3
	ulDelta      = 1e-2
	ulDwellMin   = 120
	ulDwellMax   = 210
	// ulInterval is the open loop's round period.
	ulInterval = 20 * time.Millisecond
	// Forget plan: every ulBurstEvery rounds, ulBurst requests on
	// consecutive rounds, each for one vehicle that joined about
	// ulDepth rounds before.
	ulBurstEvery = 150
	ulBurst      = 3
	ulDepth      = 40
	ulAccFloor   = 0.6
)

type underLoad struct {
	o         options
	acct      *accounting
	template  *nn.Network
	clients   []*fl.Client
	sched     fl.IntervalSchedule
	test      *dataset.Dataset
	madds     int64   // per sample
	meanBatch float64 // samples per gradient, averaged over vehicles
	// The recorded world every phase starts from.
	snapshot []byte
	params   []float64
}

func buildUnderLoad(o options, acct *accounting) (world, error) {
	n := ulVehicles * ulPerVehicle
	full := dataset.SynthDigits(dataset.SynthConfig{Samples: n + n/8, Img: ulImg, Classes: ulClasses,
		Noise: 0.25, Jitter: true, Seed: o.seed})
	r := rng.New(o.seed)
	train, test := full.Split(r.Split(1), float64(n)/float64(full.Len()))
	shards, err := dataset.PartitionIID(train, r.Split(2), ulVehicles)
	if err != nil {
		return nil, err
	}
	w := &underLoad{o: o, acct: acct, test: test, sched: fl.IntervalSchedule{}}
	// Join rounds cover the pre-recorded history and a full-budget phase.
	span := ulHistory + int(time.Duration(o.seconds*float64(time.Second))/ulInterval)
	jr := r.Split(3)
	for i, shard := range shards {
		id := history.ClientID(i)
		w.clients = append(w.clients, &fl.Client{ID: id, Data: shard, BatchSize: ulBatch})
		w.meanBatch += float64(min(ulBatch, shard.Len())) / ulVehicles
		join := jr.IntN(span)
		w.sched[id] = fl.Interval{Join: join, Leave: join + ulDwellMin + jr.IntN(ulDwellMax-ulDwellMin)}
	}
	layers := []nn.Layer{nn.NewDense(ulImg*ulImg, ulHidden), nn.NewReLU(), nn.NewDense(ulHidden, ulClasses)}
	w.template = nn.MustNetwork(nn.Dims{C: ulImg * ulImg, H: 1, W: 1}, layers...)
	w.template.Init(r.Split(4))
	if w.madds, err = layerMadds(w.template.InDims, layers, w.template.NumParams()); err != nil {
		return nil, err
	}
	// Warm-up: every vehicle builds its lazy model replica.
	init := w.template.ParamVector()
	for _, c := range w.clients {
		if _, err := c.ComputeGradient(w.template, init, o.seed, 0); err != nil {
			return nil, err
		}
	}
	// Record the pre-existing history once, then keep it as a snapshot
	// every phase reloads.
	store, err := w.newStore(nil)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	sim, err := w.newSim(store, w.template, 0, w.sched, nil)
	if err != nil {
		return nil, err
	}
	if err := sim.Run(ulHistory); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		return nil, err
	}
	w.snapshot, w.params = buf.Bytes(), sim.Params()
	return w, nil
}

func (w *underLoad) newStore(from []byte) (*history.Store, error) {
	opts := []history.StoreOption{history.WithSpill(filepath.Join(workDir, "spill"), ulSpill)}
	if from == nil {
		return history.NewStore(w.template.NumParams(), ulDelta, opts...)
	}
	return history.Load(bytes.NewReader(from), opts...)
}

func (w *underLoad) newSim(store *history.Store, tmpl *nn.Network, start int, sched fl.Schedule, reg *telemetry.Registry) (*fl.Simulation, error) {
	return fl.NewSimulation(tmpl, w.clients, fl.Config{
		LearningRate: ulLR, Seed: w.o.seed, Schedule: sched, Store: store, StartRound: start,
		Streaming: true, StreamShards: ulShards, Sampler: &fl.Sampler{K: ulK}, Telemetry: reg,
	})
}

// ulRequest is one planned forget request.
type ulRequest struct {
	round   int // phase-relative round it is due before
	vehicle history.ClientID
}

// plan picks the forget requests for rounds [H, H+rounds): each burst
// names vehicles in coverage that joined closest to ulDepth rounds
// before, never the same vehicle twice. It depends only on the seeded
// schedule.
func (w *underLoad) plan(rounds int) []ulRequest {
	ids := make([]history.ClientID, 0, len(w.sched))
	for id := range w.sched {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	used := map[history.ClientID]bool{}
	var out []ulRequest
	for b := ulBurstEvery / 2; b+ulBurst <= rounds; b += ulBurstEvery {
		for k := 0; k < ulBurst; k++ {
			t := ulHistory + b + k
			best, bestGap := history.ClientID(-1), 1<<30
			for _, id := range ids {
				iv := w.sched[id]
				gap := iv.Join - (t - ulDepth)
				if gap < 0 {
					gap = -gap
				}
				if !used[id] && iv.Join < t-ulDepth/2 && iv.Leave > t+ulDepth && gap < bestGap {
					best, bestGap = id, gap
				}
			}
			if best >= 0 {
				used[best] = true
				out = append(out, ulRequest{round: b + k, vehicle: best})
			}
		}
	}
	return out
}

func (w *underLoad) measure(ctx context.Context, budget time.Duration, tr *tracer) (*phase, error) {
	rounds := int(budget / ulInterval)
	reqs := w.plan(rounds)
	// Forgotten vehicles leave the schedule at submission.
	leave := map[history.ClientID]int{}
	for _, q := range reqs {
		leave[q.vehicle] = ulHistory + q.round
	}
	sched := fl.FuncSchedule(func(id history.ClientID, t int) bool {
		if l, ok := leave[id]; ok && t >= l {
			return false
		}
		return w.sched.Participates(id, t)
	})
	var reg *telemetry.Registry
	if tr != nil {
		reg = telemetry.New()
	}
	store, err := w.newStore(w.snapshot)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	store.SetTelemetry(reg)
	tmpl := w.template.Clone()
	tmpl.SetParamVector(w.params)
	sim, err := w.newSim(store, tmpl, ulHistory, sched, reg)
	if err != nil {
		return nil, err
	}
	e := &engine{sim: sim, reg: reg}
	q, err := e.newQueue(unlearnConfig(ulLR, max(1, runtime.NumCPU()-1), reg), 4*ulBurst)
	if err != nil {
		return nil, err
	}
	defer func() {
		q.Close()
		sim.Config().Store.Close()
	}()

	p := &phase{}
	var committed atomic.Int64
	var wg sync.WaitGroup
	var forgets []*forgetReq
	var lags []float64
	lat := make([]float64, 0, rounds)
	var growth []float64
	next := 0
	start := time.Now()
	for i := 0; i < rounds; i++ {
		t := ulHistory + i
		due := start.Add(time.Duration(i) * ulInterval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		for next < len(reqs) && reqs[next].round == i {
			forgets = append(forgets, submitForget(ctx, q, []history.ClientID{reqs[next].vehicle},
				tr != nil, &committed, &wg, w.acct))
			next++
		}
		began := time.Now()
		var st0 history.StorageReport
		if tr != nil {
			st0 = sim.Config().Store.Storage()
		}
		rid := tr.begin("fl.round", -1, 0, t, "")
		e.mu.Lock()
		s0 := sim.Config().Store
		err := sim.RunRound()
		s1 := sim.Config().Store
		e.mu.Unlock()
		tr.end(rid)
		w.acct.op(err)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", t, err)
		}
		committed.Add(1)
		lat = append(lat, float64(time.Since(due))/float64(time.Millisecond))
		lags = append(lags, float64(began.Sub(due))/float64(time.Millisecond))
		if tr != nil && s0 == s1 {
			st1 := s1.Storage()
			growth = append(growth, float64(st1.DirectionBytes+st1.ModelBytes-st0.DirectionBytes-st0.ModelBytes))
		}
	}
	wg.Wait()
	p.roundLat = lat
	live := sim.Config().Store
	passes := q.Stats().Passes
	forgotten := map[history.ClientID]int{}
	for _, r := range forgets {
		ok := r.err == nil && r.info.State == unlearn.StateDone
		w.acct.check(ok, "forget request %s for %v ended %q: %v", r.id, r.clients, r.info.State, r.err)
		if ok {
			p.unlearn = append(p.unlearn, r.latency().Seconds())
			if res := r.info.Result; res != nil {
				forgotten[r.clients[0]] = res.BacktrackRound
			}
		}
	}
	w.acct.check(len(forgets) > 0 && passes <= int64(len(forgets)),
		"%d passes for %d requests", passes, len(forgets))
	w.acct.check(forgottenAbsent(live, forgotten), "a forgotten vehicle participates after its backtrack round")
	p.heapLiveMiB = heapLiveMiB()

	acc := metrics.AccuracyAt(tmpl.Clone(), sim.Params(), w.test)
	w.acct.check(acc >= ulAccFloor, "final accuracy %.3f below floor %.2f", acc, ulAccFloor)
	p.accuracy = []float64{acc}

	if tr != nil {
		m := map[string]metric{}
		holds := e.commitHolds()
		for _, r := range forgets {
			traceForget(tr, r, holds)
		}
		forgetLayers(m, forgets, holds, passes)
		// One HVP count per distinct pass result.
		var hvp []float64
		seen := map[*unlearn.Result]bool{}
		for _, r := range forgets {
			if res := r.info.Result; res != nil && !seen[res] {
				seen[res] = true
				hvp = append(hvp, float64(hvpCount(live, res.BacktrackRound, res.BacktrackRound+res.RecoveredRounds)))
			}
		}
		setLayer(m, "lbfgs.hvp_per_pass", median(hvp))
		perRound := float64(reg.Counter(telemetry.FLParticipants).Value()) / float64(rounds) * w.meanBatch
		setLayer(m, "nn.madds_per_round", float64(w.madds)*perRound)
		setLayer(m, "dataset.batch_bytes_per_round", perRound*float64(ulImg*ulImg*8))
		setLayer(m, "fl.round_ms", median(ms(tr.durations("fl.round"))))
		setLayer(m, "fl.round_lag_ms", median(lags))
		setLayer(m, "fl.stream_fold_ms", timerMeanMs(reg, telemetry.FLStreamFold))
		setLayer(m, "fl.stream_resolve_ms", timerMeanMs(reg, telemetry.FLStreamResolve))
		setLayer(m, "fl.commit_ms", timerMeanMs(reg, telemetry.FLRoundRecord)+timerMeanMs(reg, telemetry.FLStreamResolve))
		setLayer(m, "history.bytes_per_round", median(growth))
		st := live.Storage()
		setLayer(m, "history.resident_mb", float64(st.ModelBytesResident+st.DirectionBytes)/(1<<20))
		setLayer(m, "history.spilled_mb", float64(st.ModelBytesSpilled)/(1<<20))
		var rec recordStats
		rec.add(reg)
		rec.layers(m)
		p.layers = m
	}
	return p, nil
}
