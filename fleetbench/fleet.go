package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fuiov/internal/attack"
	"fuiov/internal/dataset"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/metrics"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/telemetry"
	"fuiov/internal/unlearn"
	"fuiov/internal/verify"
)

// fleet-lifecycle: the paper CNN on synthetic Digits, 40 vehicles of
// which 20% carry a backdoor and join at round 2 (§V-A). One lifecycle
// trains fleetRounds barrier-FedAvg rounds in a closed loop, submits
// one forget request for the backdoored vehicles halfway through while
// training continues, and audits the final model with verify.
const (
	fleetVehicles  = 40
	fleetSamples   = 6000
	fleetBatch     = 64
	fleetImg       = 12
	fleetClasses   = 10
	fleetRounds    = 80
	fleetJoin      = 2
	fleetLR        = 0.2
	fleetDelta     = 1e-2
	fleetMalicious = 0.2
	// fleetAccFloor is the lowest acceptable final test accuracy.
	fleetAccFloor = 0.5
)

type fleet struct {
	o         options
	acct      *accounting
	template  *nn.Network
	init      []float64
	clients   []*fl.Client
	malicious []history.ClientID
	joins     fl.IntervalSchedule
	test      *dataset.Dataset
	backdoor  *attack.Backdoor
	madds     int64 // per sample, forward + both backward products
	sampleLen int
}

func buildFleet(o options, acct *accounting) (world, error) {
	full := dataset.SynthDigits(dataset.DefaultDigits(fleetSamples, o.seed))
	r := rng.New(o.seed)
	train, test := full.Split(r.Split(1), 0.85)
	shards, err := dataset.PartitionIID(train, r.Split(2), fleetVehicles)
	if err != nil {
		return nil, err
	}
	f := &fleet{o: o, acct: acct, test: test, backdoor: attack.DefaultBackdoor(),
		joins: fl.IntervalSchedule{}, sampleLen: full.Dims.Size()}
	bad := map[int]bool{}
	for _, i := range r.Split(3).Perm(fleetVehicles)[:int(fleetMalicious*fleetVehicles)] {
		bad[i] = true
	}
	for i, shard := range shards {
		id := history.ClientID(i)
		join := 0
		if bad[i] {
			shard = f.backdoor.Poison(shard, r.Split(4, uint64(i)))
			join = fleetJoin
			f.malicious = append(f.malicious, id)
		}
		f.clients = append(f.clients, &fl.Client{ID: id, Data: shard, BatchSize: fleetBatch})
		f.joins[id] = fl.Interval{Join: join, Leave: -1}
	}
	f.template = nn.NewDigitsCNN(fleetImg, fleetClasses)
	f.template.Init(r.Split(5))
	f.init = f.template.ParamVector()
	if f.madds, err = digitsCNNMadds(fleetImg, fleetClasses, f.template.NumParams()); err != nil {
		return nil, err
	}
	// Warm-up: every vehicle builds its lazy model replica.
	for _, c := range f.clients {
		if _, err := c.ComputeGradient(f.template, f.init, o.seed, 0); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// fleetCycle is what one lifecycle leaves behind for the phase.
type fleetCycle struct {
	sim      *fl.Simulation
	pre      []float64
	req      *forgetReq
	holds    []commitHold
	passes   int64
	hvp      int
	reg      *telemetry.Registry
	backdoor float64
	samples  int64 // samples through traced gradient calls
}

func (f *fleet) measure(ctx context.Context, budget time.Duration, tr *tracer) (*phase, error) {
	p := &phase{}
	start := time.Now()
	var all []*fleetCycle
	for {
		c, err := f.lifecycle(ctx, tr, p)
		if err != nil {
			return nil, err
		}
		if len(all) > 0 {
			all[len(all)-1].sim = nil // only the last engine stays live
		}
		all = append(all, c)
		if p.identity == nil {
			p.identity = c.pre
		} else {
			f.acct.check(bitEqual(p.identity, c.pre), "lifecycles of one seed reached different models at the request round")
		}
		if !another(start, budget, len(all)) {
			break
		}
	}
	last := all[len(all)-1]
	p.heapLiveMiB = heapLiveMiB()
	runtime.KeepAlive(last.sim)
	if tr != nil {
		f.layers(p, tr, all)
	}
	return p, nil
}

// lifecycle trains, forgets under load, commits and verifies once.
func (f *fleet) lifecycle(ctx context.Context, tr *tracer, p *phase) (*fleetCycle, error) {
	lcStart := time.Now()
	tmpl := f.template.Clone()
	tmpl.SetParamVector(f.init)
	store, err := history.NewStore(tmpl.NumParams(), fleetDelta)
	if err != nil {
		return nil, err
	}
	c := &fleetCycle{}
	if tr != nil {
		c.reg = telemetry.New()
		store.SetTelemetry(c.reg)
	}
	// Forgotten vehicles leave the schedule at submission. The set is
	// written between rounds by this goroutine only.
	left := map[history.ClientID]bool{}
	sched := fl.FuncSchedule(func(id history.ClientID, t int) bool {
		return !left[id] && f.joins.Participates(id, t)
	})
	sim, err := fl.NewSimulation(tmpl, f.clients, fl.Config{
		LearningRate: fleetLR, Seed: f.o.seed, Schedule: sched, Store: store,
	})
	if err != nil {
		return nil, err
	}
	e := &engine{sim: sim, reg: c.reg}
	q, err := e.newQueue(unlearnConfig(fleetLR, 0, c.reg), 0)
	if err != nil {
		return nil, err
	}
	defer q.Close()

	var committed atomic.Int64
	var wg sync.WaitGroup
	trainStart := time.Now()
	var lastCommit time.Time
	lat := make([]float64, 0, fleetRounds)
	for t := 0; t < fleetRounds; t++ {
		if t == fleetRounds/2 {
			c.pre = sim.Params()
			for _, id := range f.malicious {
				left[id] = true
			}
			c.req = submitForget(ctx, q, f.malicious, tr != nil, &committed, &wg, f.acct)
		}
		rs := time.Now()
		if tr == nil {
			e.mu.Lock()
			err = sim.RunRound()
			e.mu.Unlock()
		} else {
			var n int64
			n, err = f.tracedRound(tr, sim, &e.mu, sched, t)
			c.samples += n
		}
		f.acct.op(err)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", t, err)
		}
		lastCommit = time.Now()
		committed.Add(1)
		lat = append(lat, float64(lastCommit.Sub(rs))/float64(time.Millisecond))
	}
	wg.Wait()
	p.roundLat = append(p.roundLat, lat...)
	p.roundsPerS = append(p.roundsPerS, fleetRounds/lastCommit.Sub(trainStart).Seconds())
	req := c.req
	c.passes = q.Stats().Passes
	f.acct.check(req.err == nil && req.info.State == unlearn.StateDone && req.info.Result != nil,
		"forget request %s did not reach done: state %q, err %v", req.id, req.info.State, req.err)
	if req.err != nil || req.info.Result == nil {
		return nil, fmt.Errorf("forget request failed: %v", req.err)
	}
	p.unlearn = append(p.unlearn, req.latency().Seconds())
	res := req.info.Result
	final := sim.Params()
	live := sim.Config().Store
	backtrack := map[history.ClientID]int{}
	for _, id := range f.malicious {
		backtrack[id] = res.BacktrackRound
	}
	f.acct.check(forgottenAbsent(live, backtrack), "a forgotten vehicle participates after its backtrack round")
	f.acct.check(!bitEqual(res.Params, c.pre), "the recovered model equals the pre-request model")
	c.hvp = hvpCount(live, res.BacktrackRound, res.BacktrackRound+res.RecoveredRounds)

	sc, err := audit(ctx, tr, f.acct, verify.Target{
		Template: tmpl, Clients: f.clients, Forgotten: f.malicious, Test: f.test,
		Before: c.pre, LearningRate: fleetLR, Seed: f.o.seed, Backdoor: f.backdoor,
	}, final)
	if err != nil {
		return nil, err
	}
	p.lifecycles = append(p.lifecycles, time.Since(lcStart).Seconds())
	c.holds = e.commitHolds()
	c.sim = sim
	if sc.BackdoorAfter != nil {
		c.backdoor = *sc.BackdoorAfter
	}
	acc := metrics.AccuracyAt(tmpl.Clone(), final, f.test)
	f.acct.check(acc >= fleetAccFloor, "final accuracy %.3f below floor %.2f", acc, fleetAccFloor)
	p.accuracy = append(p.accuracy, acc)
	traceForget(tr, req, c.holds)
	return c, nil
}

// tracedRound runs round t through the calls the RSU coordinator makes
// — per-vehicle ComputeGradient on Parallelism workers, then
// SubmitRound — with a span around each.
// It returns the number of samples the gradients were computed on.
func (f *fleet) tracedRound(tr *tracer, sim *fl.Simulation, mu *sync.Mutex, sched fl.Schedule, t int) (int64, error) {
	rid := tr.begin("fl.round", -1, 0, t, "")
	defer tr.end(rid)
	mu.Lock()
	defer mu.Unlock()
	var cohort []*fl.Client
	var samples int64
	for _, c := range f.clients {
		if sched.Participates(c.ID, t) {
			cohort = append(cohort, c)
			samples += int64(min(c.BatchSize, c.Data.Len()))
		}
	}
	params := sim.Params()
	tmpl := sim.Template()
	grads := make([][]float64, len(cohort))
	errs := make([]error, len(cohort))
	cid := tr.begin("fl.compute", rid, 0, t, "")
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 1; w <= sim.Config().Parallelism; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			wid := tr.begin("fl.worker", cid, lane, t, "")
			defer tr.end(wid)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cohort) {
					return
				}
				g := tr.begin("nn.grad", wid, lane, t, "")
				grads[i], errs[i] = cohort[i].ComputeGradient(tmpl, params, f.o.seed, t)
				tr.end(g)
			}
		}(w)
	}
	wg.Wait()
	tr.end(cid)
	gm := make(map[history.ClientID][]float64, len(cohort))
	wm := make(map[history.ClientID]float64, len(cohort))
	for i, c := range cohort {
		if errs[i] != nil {
			return 0, errs[i]
		}
		gm[c.ID] = grads[i]
		wm[c.ID] = c.Weight()
	}
	sid := tr.begin("fl.commit", rid, 0, t, "")
	err := sim.SubmitRound(gm, wm, len(cohort))
	tr.end(sid)
	return samples, err
}

// layers derives the fleet-lifecycle per-layer metrics from the spans
// and the cycles' own records.
func (f *fleet) layers(p *phase, tr *tracer, cycles []*fleetCycle) {
	m := map[string]metric{}
	grads := tr.durations("nn.grad")
	compute := tr.durations("fl.compute")
	rounds := len(tr.durations("fl.round"))
	var gradSum, computeSum time.Duration
	for _, d := range grads {
		gradSum += d
	}
	for _, d := range compute {
		computeSum += d
	}
	var samples int64
	for _, c := range cycles {
		samples += c.samples
	}
	madds := f.madds * samples
	setLayer(m, "nn.grad_ms", median(ms(grads)))
	setLayer(m, "nn.madds_per_round", float64(madds)/float64(rounds))
	setLayer(m, "nn.gflops", 2*float64(madds)/gradSum.Seconds()/1e9)
	setLayer(m, "dataset.batch_bytes_per_round", float64(samples)*float64(f.sampleLen)*8/float64(rounds))
	setLayer(m, "fl.round_ms", median(ms(tr.durations("fl.round"))))
	setLayer(m, "fl.compute_ms", median(ms(compute)))
	setLayer(m, "fl.compute_efficiency", gradSum.Seconds()/(computeSum.Seconds()*float64(runtime.GOMAXPROCS(0))))
	setLayer(m, "fl.commit_ms", median(ms(tr.durations("fl.commit"))))
	setLayer(m, "verify.fit_s", median(seconds(tr.durations("verify.fit"))))
	setLayer(m, "verify.score_s", median(seconds(tr.durations("verify.score"))))

	var reqs []*forgetReq
	var holds []commitHold
	var passes int64
	var hvp, backdoor []float64
	var rec recordStats
	for _, c := range cycles {
		reqs = append(reqs, c.req)
		holds = append(holds, c.holds...)
		passes += c.passes
		hvp = append(hvp, float64(c.hvp))
		backdoor = append(backdoor, c.backdoor)
		rec.add(c.reg)
	}
	forgetLayers(m, reqs, holds, passes)
	setLayer(m, "lbfgs.hvp_per_pass", median(hvp))
	setLayer(m, "verify.backdoor_after", median(backdoor))
	rec.layers(m)
	last := cycles[len(cycles)-1].sim.Config().Store.Storage()
	setLayer(m, "history.bytes_per_round", float64(last.DirectionBytes+last.ModelBytes)/fleetRounds)
	setLayer(m, "history.resident_mb", float64(last.ModelBytesResident+last.DirectionBytes)/(1<<20))
	setLayer(m, "history.spilled_mb", float64(last.ModelBytesSpilled)/(1<<20))
	p.layers = m
}

// digitsCNNMadds counts one sample's multiply-adds through
// nn.NewDigitsCNN: the forward product of every conv and dense layer,
// times three for forward, weight gradient and input gradient. It
// rebuilds the layer stack to read the shapes and fails if the rebuilt
// stack no longer matches the model's parameter count.
func digitsCNNMadds(img, classes, numParams int) (int64, error) {
	p := img / 2 / 2
	layers := []nn.Layer{
		nn.NewConv2D(1, 4, 3, true), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewConv2D(4, 8, 3, true), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(), nn.NewDense(8*p*p, 32), nn.NewReLU(), nn.NewDense(32, classes),
	}
	return layerMadds(nn.Dims{C: 1, H: img, W: img}, layers, numParams)
}
