package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"fuiov/internal/dataset"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/metrics"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/server"
	"fuiov/internal/telemetry"
	"fuiov/internal/unlearn"
	"fuiov/internal/verify"
)

// rsu-http: the networked RSU. A server.Coordinator serves 127.0.0.1
// in streaming mode with a telemetry registry attached; nproc
// closed-loop worker loops, each on one keep-alive connection, serve a
// seeded cohort of nproc vehicles per round over PROTOCOL.md with
// sign-compressed uploads. One lifecycle is rsuRounds rounds with one
// async forget request at round rsuUnlearnAt, polled between rounds.
const (
	rsuVehicles   = 1000
	rsuPerVehicle = 12
	rsuImg        = 12
	rsuHidden     = 16
	rsuClasses    = 10
	rsuRounds     = 1000
	rsuUnlearnAt  = rsuRounds / 2
	rsuDepth      = 200
	rsuLR         = 0.3
	rsuStoreDelta = 1e-2
	rsuSignDelta  = 1e-6
	// rsuWindow bounds a collection window; every scheduled vehicle
	// uploads well within it, so rounds resolve at the barrier.
	rsuWindow = 10 * time.Second
)

type rsuWorld struct {
	o        options
	acct     *accounting
	template *nn.Network
	init     []float64
	clients  []*fl.Client
	test     *dataset.Dataset
	madds    int64
	k        int
	// cohorts[t] is round t's cohort; forget is the planned vehicle.
	cohorts [][]history.ClientID
	forget  history.ClientID
}

func buildRSU(o options, acct *accounting) (world, error) {
	n := rsuVehicles * rsuPerVehicle
	full := dataset.SynthDigits(dataset.SynthConfig{Samples: n + n/4, Img: rsuImg, Classes: rsuClasses,
		Noise: 0.25, Jitter: true, Seed: o.seed})
	r := rng.New(o.seed)
	train, test := full.Split(r.Split(1), float64(n)/float64(full.Len()))
	shards, err := dataset.PartitionIID(train, r.Split(2), rsuVehicles)
	if err != nil {
		return nil, err
	}
	w := &rsuWorld{o: o, acct: acct, test: test, k: runtime.NumCPU()}
	for i, shard := range shards {
		w.clients = append(w.clients, &fl.Client{ID: history.ClientID(i), Data: shard})
	}
	layers := []nn.Layer{nn.NewDense(rsuImg*rsuImg, rsuHidden), nn.NewReLU(), nn.NewDense(rsuHidden, rsuClasses)}
	w.template = nn.MustNetwork(nn.Dims{C: rsuImg * rsuImg, H: 1, W: 1}, layers...)
	w.template.Init(r.Split(3))
	w.init = w.template.ParamVector()
	if w.madds, err = layerMadds(w.template.InDims, layers, w.template.NumParams()); err != nil {
		return nil, err
	}
	w.planCohorts(r.Split(4))
	// Warm-up: every vehicle builds its lazy model replica.
	for _, c := range w.clients {
		if _, err := c.ComputeGradient(w.template, w.init, o.seed, 0); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// planCohorts draws every round's cohort of k distinct vehicles and
// picks the forget target: a vehicle whose first round is as close as
// possible to rsuDepth rounds before the request. From the request on,
// the target is never drawn again.
func (w *rsuWorld) planCohorts(r *rng.RNG) {
	draw := func(t int, exclude history.ClientID) []history.ClientID {
		rr := r.Split(uint64(t))
		var c []history.ClientID
		for len(c) < w.k {
			id := history.ClientID(rr.IntN(rsuVehicles))
			dup := id == exclude
			for _, x := range c {
				dup = dup || x == id
			}
			if !dup {
				c = append(c, id)
			}
		}
		return c
	}
	w.cohorts = make([][]history.ClientID, rsuRounds)
	first := map[history.ClientID]int{}
	for t := 0; t < rsuUnlearnAt; t++ {
		w.cohorts[t] = draw(t, -1)
		for _, id := range w.cohorts[t] {
			if _, ok := first[id]; !ok {
				first[id] = t
			}
		}
	}
	w.forget = w.cohorts[rsuUnlearnAt-1][0]
	best := math.MaxInt
	for id, t := range first {
		gap := t - (rsuUnlearnAt - rsuDepth)
		if gap < 0 {
			gap = -gap
		}
		if gap < best || (gap == best && id < w.forget) {
			best, w.forget = gap, id
		}
	}
	for t := rsuUnlearnAt; t < rsuRounds; t++ {
		w.cohorts[t] = draw(t, w.forget)
	}
}

func (w *rsuWorld) scheduled(id history.ClientID, t int) bool {
	if t < 0 || t >= len(w.cohorts) {
		return false
	}
	for _, x := range w.cohorts[t] {
		if x == id {
			return true
		}
	}
	return false
}

// rsuServer is one lifecycle's coordinator on a loopback listener.
type rsuServer struct {
	sim   *fl.Simulation
	coord *server.Coordinator
	srv   *http.Server
	done  chan error
	base  string
	reg   *telemetry.Registry
}

func (w *rsuWorld) serve() (*rsuServer, error) {
	tmpl := w.template.Clone()
	tmpl.SetParamVector(w.init)
	reg := telemetry.New()
	store, err := history.NewStore(tmpl.NumParams(), rsuStoreDelta)
	if err != nil {
		return nil, err
	}
	store.SetTelemetry(reg)
	sim, err := fl.NewSimulation(tmpl, w.clients, fl.Config{
		LearningRate: rsuLR, Seed: w.o.seed, Schedule: fl.FuncSchedule(w.scheduled),
		Store: store, Streaming: true, Telemetry: reg,
	})
	if err != nil {
		return nil, err
	}
	coord, err := server.New(server.Config{
		Engine: sim, RoundWindow: rsuWindow, MaxRounds: rsuRounds,
		Unlearn: unlearnConfig(rsuLR, 0, nil), Telemetry: reg,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	s := &rsuServer{sim: sim, coord: coord, srv: &http.Server{Handler: coord}, done: make(chan error, 1),
		base: "http://" + ln.Addr().String(), reg: reg}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *rsuServer) close() {
	s.coord.Close()
	s.srv.Close()
	<-s.done
	s.sim.Config().Store.Close()
}

// rsuClient is one worker loop's HTTP client: one keep-alive
// connection, body bytes counted in both directions.
type rsuClient struct {
	base     string
	hc       *http.Client
	up, down int64
	acct     *accounting
}

func newRSUClient(base string, acct *accounting) *rsuClient {
	return &rsuClient{base: base, acct: acct, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}}
}

// do sends one request and reads the whole reply body. A non-2xx
// status is a failed operation.
func (c *rsuClient) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	c.up += int64(len(body))
	resp, err := c.hc.Do(req)
	if err != nil {
		c.acct.op(err)
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	c.down += int64(len(out))
	if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	c.acct.op(err)
	return out, err
}

type rsuStatus struct {
	Round int  `json:"round"`
	Done  bool `json:"done"`
}

type rsuUnlearnReply struct {
	RequestID       string `json:"request_id"`
	Status          string `json:"status"`
	BacktrackRound  *int   `json:"backtrack_round"`
	RecoveredRounds int    `json:"recovered_rounds"`
}

// rsuRound is one worker's view of one round.
type rsuRound struct {
	t                   int
	start, end          time.Time // first status request, upload reply
	gradStart, gradEnd  time.Time
	status, model, grad time.Duration
	upload              time.Duration
	samples             int
}

// rsuForget follows the lifecycle's forget request from worker 0.
type rsuForget struct {
	id                   string
	submitted, running   time.Time
	done                 time.Time
	submit               time.Duration
	runRound, doneRound  int
	backtrack, recovered int
	before               []float64
	state                unlearn.RequestState
}

func (w *rsuWorld) measure(ctx context.Context, budget time.Duration, tr *tracer) (*phase, error) {
	p := &phase{}
	start := time.Now()
	var all []*rsuCycle
	for {
		c, err := w.lifecycle(ctx, tr, p)
		if err != nil {
			return nil, err
		}
		all = append(all, c)
		if !another(start, budget, len(all)) {
			break
		}
	}
	if tr != nil {
		w.layers(p, tr, all)
	}
	return p, nil
}

// rsuCycle is what one lifecycle leaves for the per-layer metrics.
type rsuCycle struct {
	rounds   [][]rsuRound // per worker
	forget   *rsuForget
	up, down int64
	reg      *telemetry.Registry
	hvp      int
	storage  history.StorageReport
}

func (w *rsuWorld) lifecycle(ctx context.Context, tr *tracer, p *phase) (*rsuCycle, error) {
	s, err := w.serve()
	if err != nil {
		return nil, err
	}
	defer s.close()
	cyc := &rsuCycle{rounds: make([][]rsuRound, w.k), reg: s.reg}
	clients := make([]*rsuClient, w.k)
	for i := range clients {
		clients[i] = newRSUClient(s.base, w.acct)
		defer clients[i].hc.CloseIdleConnections()
	}
	lcStart := time.Now()
	errs := make([]error, w.k)
	var wg sync.WaitGroup
	for i := 0; i < w.k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var f *rsuForget
			if i == 0 {
				f = &rsuForget{}
				cyc.forget = f
			}
			cyc.rounds[i], errs[i] = w.workerLoop(ctx, tr, clients[i], i, f)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	trainEnd := time.Now()
	f := cyc.forget
	// The request may still be running once training ends.
	for f.done.IsZero() {
		if err := w.pollForget(ctx, clients[0], f, rsuRounds); err != nil {
			return nil, err
		}
		time.Sleep(time.Millisecond)
	}
	w.acct.check(f.state == unlearn.StateDone, "forget request %s ended %q", f.id, f.state)
	p.unlearn = append(p.unlearn, f.done.Sub(f.submitted).Seconds())
	final := s.sim.Params()
	body, err := clients[0].do(ctx, http.MethodGet, "/v1/model/"+strconv.Itoa(rsuRounds), nil)
	if err != nil {
		return nil, err
	}
	t, served, err := server.ReadModel(bytes.NewReader(body), len(final))
	w.acct.check(err == nil && t == rsuRounds && bitEqual(served, final),
		"GET /v1/model/%d differs from the engine's parameters (round %d, err %v)", rsuRounds, t, err)

	_, err = audit(ctx, tr, w.acct, verify.Target{
		Template: w.template, Clients: w.clients, Forgotten: []history.ClientID{w.forget}, Test: w.test,
		Before: f.before, LearningRate: rsuLR, Seed: w.o.seed,
	}, final)
	if err != nil {
		return nil, err
	}
	p.lifecycles = append(p.lifecycles, time.Since(lcStart).Seconds())
	p.roundsPerS = append(p.roundsPerS, rsuRounds/trainEnd.Sub(lcStart).Seconds())
	p.accuracy = append(p.accuracy, metrics.AccuracyAt(w.template.Clone(), final, w.test))
	p.roundLat = append(p.roundLat, roundLatencies(cyc.rounds)...)
	for _, c := range clients {
		cyc.up += c.up
		cyc.down += c.down
	}
	if tr != nil {
		live := s.sim.Config().Store
		cyc.hvp = hvpCount(live, f.backtrack, f.backtrack+f.recovered)
		cyc.storage = live.Storage()
	} else {
		cyc.rounds = nil // only the traced run reads them back
	}
	// The coordinator and its history are still live here.
	p.heapLiveMiB = heapLiveMiB()
	return cyc, nil
}

// workerLoop serves one cohort slot per round until the coordinator
// reports training done. Worker 0 also submits and polls the forget
// request.
func (w *rsuWorld) workerLoop(ctx context.Context, tr *tracer, c *rsuClient, i int, f *rsuForget) ([]rsuRound, error) {
	lane := i + 1
	var out []rsuRound
	for {
		r := rsuRound{start: time.Now()}
		body, err := c.do(ctx, http.MethodGet, "/v1/status", nil)
		if err != nil {
			return nil, err
		}
		r.status = time.Since(r.start)
		var st rsuStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return nil, err
		}
		if st.Done {
			return out, nil
		}
		r.t = st.Round
		if f != nil && st.Round == rsuUnlearnAt && f.id == "" {
			if err := w.submitForget(ctx, c, f, st.Round); err != nil {
				return nil, err
			}
		}
		ms := time.Now()
		body, err = c.do(ctx, http.MethodGet, "/v1/model/"+strconv.Itoa(r.t), nil)
		if err != nil {
			return nil, err
		}
		_, params, err := server.ReadModel(bytes.NewReader(body), w.template.NumParams())
		if err != nil {
			return nil, err
		}
		r.model = time.Since(ms)
		v := w.clients[w.cohorts[r.t][i]]
		r.gradStart = time.Now()
		g, err := v.ComputeGradient(w.template, params, w.o.seed, r.t)
		r.gradEnd = time.Now()
		if err != nil {
			return nil, err
		}
		r.grad = r.gradEnd.Sub(r.gradStart)
		r.samples = v.Data.Len()
		var up bytes.Buffer
		if err := server.WriteUpload(&up, v.ID, r.t, v.Weight(), server.EncodingSign, g, rsuSignDelta, meanAbs(g)); err != nil {
			return nil, err
		}
		us := time.Now()
		if _, err := c.do(ctx, http.MethodPost, "/v1/round", up.Bytes()); err != nil {
			return nil, err
		}
		r.end = time.Now()
		r.upload = r.end.Sub(us)
		if tr != nil {
			root := tr.add("http.round", -1, lane, r.t, "", r.start, r.end)
			tr.add("server.status", root, lane, r.t, "", r.start, r.start.Add(r.status))
			tr.add("server.model", root, lane, r.t, "", ms, ms.Add(r.model))
			tr.add("nn.grad", root, lane, r.t, "", r.gradStart, r.gradEnd)
			tr.add("server.upload", root, lane, r.t, "", us, r.end)
		}
		out = append(out, r)
		if f != nil && f.id != "" && f.done.IsZero() {
			if err := w.pollForget(ctx, c, f, r.t+1); err != nil {
				return nil, err
			}
		}
	}
}

// submitForget posts the async forget request at round t and fetches
// the live model it is judged against.
func (w *rsuWorld) submitForget(ctx context.Context, c *rsuClient, f *rsuForget, t int) error {
	body, err := json.Marshal(map[string]any{"clients": []history.ClientID{w.forget}, "async": true})
	if err != nil {
		return err
	}
	f.submitted = time.Now()
	out, err := c.do(ctx, http.MethodPost, "/v1/unlearn", body)
	if err != nil {
		return err
	}
	f.submit = time.Since(f.submitted)
	var rep rsuUnlearnReply
	if err := json.Unmarshal(out, &rep); err != nil {
		return err
	}
	f.id = rep.RequestID
	model, err := c.do(ctx, http.MethodGet, "/v1/model/"+strconv.Itoa(t), nil)
	if err != nil {
		return err
	}
	_, f.before, err = server.ReadModel(bytes.NewReader(model), w.template.NumParams())
	return err
}

// pollForget reads the request's state; round is the coordinator's
// round clock at the time of the poll.
func (w *rsuWorld) pollForget(ctx context.Context, c *rsuClient, f *rsuForget, round int) error {
	out, err := c.do(ctx, http.MethodGet, "/v1/unlearn/"+f.id, nil)
	if err != nil {
		return err
	}
	var rep rsuUnlearnReply
	if err := json.Unmarshal(out, &rep); err != nil {
		return err
	}
	now := time.Now()
	f.state = unlearn.RequestState(rep.Status)
	if rep.Status != string(unlearn.StatePending) && f.running.IsZero() {
		f.running, f.runRound = now, round
	}
	switch rep.Status {
	case string(unlearn.StateDone):
		f.done, f.doneRound = now, round
		f.recovered = rep.RecoveredRounds
		if rep.BacktrackRound != nil {
			f.backtrack = *rep.BacktrackRound
		}
	case string(unlearn.StateFailed):
		f.done = now
	}
	return nil
}

// roundLatencies is, per round, first status request → last upload
// reply across the workers.
func roundLatencies(perWorker [][]rsuRound) []float64 {
	first := map[int]time.Time{}
	last := map[int]time.Time{}
	for _, rs := range perWorker {
		for _, r := range rs {
			if s, ok := first[r.t]; !ok || r.start.Before(s) {
				first[r.t] = r.start
			}
			if e, ok := last[r.t]; !ok || r.end.After(e) {
				last[r.t] = r.end
			}
		}
	}
	out := make([]float64, 0, len(first))
	for t, s := range first {
		out = append(out, float64(last[t].Sub(s))/float64(time.Millisecond))
	}
	return out
}

func meanAbs(g []float64) float64 {
	var s float64
	for _, v := range g {
		s += math.Abs(v)
	}
	if s == 0 {
		return 1
	}
	return s / float64(len(g))
}

// layers derives the rsu-http per-layer metrics.
func (w *rsuWorld) layers(p *phase, tr *tracer, cycles []*rsuCycle) {
	m := map[string]metric{}
	var status, model, grad, upload, compute, lat []float64
	var gradSum, computeSum time.Duration
	var samples, up, down int64
	rounds := 0
	var rec recordStats
	var fold, resolve, record, pass, passes, hvp, recovered, chased, waits, submits []float64
	for _, c := range cycles {
		byRound := map[int][2]time.Time{}
		for _, rs := range c.rounds {
			for _, r := range rs {
				status = append(status, float64(r.status)/float64(time.Microsecond))
				model = append(model, float64(r.model)/float64(time.Microsecond))
				grad = append(grad, float64(r.grad)/float64(time.Millisecond))
				upload = append(upload, float64(r.upload)/float64(time.Millisecond))
				gradSum += r.grad
				samples += int64(r.samples)
				span, ok := byRound[r.t]
				if !ok || r.gradStart.Before(span[0]) {
					span[0] = r.gradStart
				}
				if r.gradEnd.After(span[1]) {
					span[1] = r.gradEnd
				}
				byRound[r.t] = span
			}
		}
		for _, s := range byRound {
			compute = append(compute, float64(s[1].Sub(s[0]))/float64(time.Millisecond))
			computeSum += s[1].Sub(s[0])
		}
		lat = append(lat, roundLatencies(c.rounds)...)
		rounds += len(byRound)
		up += c.up
		down += c.down
		rec.add(c.reg)
		fold = append(fold, timerMeanMs(c.reg, telemetry.FLStreamFold))
		resolve = append(resolve, timerMeanMs(c.reg, telemetry.FLStreamResolve))
		record = append(record, timerMeanMs(c.reg, telemetry.FLRoundRecord))
		pass = append(pass, timerMeanMs(c.reg, telemetry.UnlearnQueuePass)/1e3)
		passes = append(passes, float64(c.reg.Counter(telemetry.UnlearnQueuePasses).Value()))
		f := c.forget
		hvp = append(hvp, float64(c.hvp))
		recovered = append(recovered, float64(f.recovered))
		chased = append(chased, float64(f.doneRound-f.runRound))
		waits = append(waits, float64(f.running.Sub(f.submitted))/float64(time.Millisecond))
		submits = append(submits, float64(f.submit)/float64(time.Millisecond))
		root := tr.add("unlearn.request", -1, 0, -1, f.id, f.submitted, f.done)
		tr.add("server.unlearn_submit", root, 0, -1, f.id, f.submitted, f.submitted.Add(f.submit))
	}
	madds := w.madds * samples
	setLayer(m, "nn.grad_ms", median(grad))
	setLayer(m, "nn.madds_per_round", float64(madds)/float64(rounds))
	setLayer(m, "nn.gflops", 2*float64(madds)/gradSum.Seconds()/1e9)
	setLayer(m, "dataset.batch_bytes_per_round", float64(samples)*float64(rsuImg*rsuImg*8)/float64(rounds))
	setLayer(m, "fl.round_ms", median(lat))
	setLayer(m, "fl.compute_ms", median(compute))
	setLayer(m, "fl.compute_efficiency", gradSum.Seconds()/(computeSum.Seconds()*float64(runtime.GOMAXPROCS(0))))
	setLayer(m, "fl.commit_ms", median(record)+median(resolve))
	setLayer(m, "fl.stream_fold_ms", median(fold))
	setLayer(m, "fl.stream_resolve_ms", median(resolve))
	rec.layers(m)
	last := cycles[len(cycles)-1]
	st := last.storage
	setLayer(m, "history.bytes_per_round", float64(st.DirectionBytes+st.ModelBytes)/rsuRounds)
	setLayer(m, "history.resident_mb", float64(st.ModelBytesResident+st.DirectionBytes)/(1<<20))
	setLayer(m, "history.spilled_mb", float64(st.ModelBytesSpilled)/(1<<20))
	setLayer(m, "lbfgs.hvp_per_pass", median(hvp))
	setLayer(m, "unlearn.queue_wait_ms", median(waits))
	setLayer(m, "unlearn.pass_s", median(pass))
	setLayer(m, "unlearn.rounds_recovered", median(recovered))
	setLayer(m, "unlearn.rounds_chased", median(chased))
	setLayer(m, "unlearn.passes_per_request", median(passes))
	setLayer(m, "verify.fit_s", median(seconds(tr.durations("verify.fit"))))
	setLayer(m, "verify.score_s", median(seconds(tr.durations("verify.score"))))
	setLayer(m, "server.status_us", median(status))
	setLayer(m, "server.model_us", median(model))
	setLayer(m, "server.upload_ms", median(upload))
	setLayer(m, "server.barrier_wait_ms", timerMeanMs(last.reg, telemetry.ServerRoundWait))
	setLayer(m, "server.up_bytes_per_round", float64(up)/float64(rounds))
	setLayer(m, "server.down_bytes_per_round", float64(down)/float64(rounds))
	setLayer(m, "server.unlearn_submit_ms", median(submits))
	p.layers = m
}
