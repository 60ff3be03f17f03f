package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/telemetry"
	"fuiov/internal/unlearn"
	"fuiov/internal/verify"
)

// unlearnConfig is the paper scheme's recovery setting (Algorithm 1:
// s = 2 pairs, refresh every 21 rounds, clip L = 0.05).
func unlearnConfig(lr float64, par int, reg *telemetry.Registry) unlearn.Config {
	return unlearn.Config{PairSize: 2, ClipThreshold: 0.05, RefreshEvery: 21,
		LearningRate: lr, Parallelism: par, Telemetry: reg}
}

// engine serialises a Simulation with an unlearn.Queue the way the RSU
// coordinator does: rounds and the queue's commit both hold mu, so a
// pass installs its rewritten store and model between rounds.
type engine struct {
	mu  sync.Mutex
	sim *fl.Simulation
	reg *telemetry.Registry // nil in untraced runs

	holdMu sync.Mutex
	holds  []commitHold
}

// newQueue starts the engine's forget queue.
func (e *engine) newQueue(cfg unlearn.Config, maxPending int) (*unlearn.Queue, error) {
	return unlearn.NewQueue(unlearn.QueueConfig{
		Store: func() *history.Store {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.sim.Config().Store
		},
		Config:     cfg,
		MaxPending: maxPending,
		Commit:     e.commit,
	})
}

// commit is the queue's CommitFunc; it records how long it holds the
// engine lock.
func (e *engine) commit(finish func() (*unlearn.QueueCommit, error)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := commitHold{start: time.Now()}
	qc, err := finish()
	if err != nil {
		return err
	}
	qc.Store.SetTelemetry(e.reg)
	if err := e.sim.SwapStore(qc.Store); err != nil {
		return err
	}
	if err := e.sim.SetParams(qc.Result.Params); err != nil {
		return err
	}
	h.end = time.Now()
	e.holdMu.Lock()
	e.holds = append(e.holds, h)
	e.holdMu.Unlock()
	return nil
}

// commitHolds returns the commit holds so far.
func (e *engine) commitHolds() []commitHold {
	e.holdMu.Lock()
	defer e.holdMu.Unlock()
	return append([]commitHold(nil), e.holds...)
}

// audit scores the final model with the verify suite, relearn probe
// off.
func audit(ctx context.Context, tr *tracer, acct *accounting, tgt verify.Target, final []float64) (verify.Score, error) {
	vid := tr.begin("verify", -1, 0, -1, "")
	defer tr.end(vid)
	fid := tr.begin("verify.fit", vid, 0, -1, "")
	suite, err := verify.NewSuite(ctx, tgt, verify.Config{SkipRelearn: true})
	tr.end(fid)
	acct.op(err)
	if err != nil {
		return verify.Score{}, err
	}
	sid := tr.begin("verify.score", vid, 0, -1, "")
	sc, err := suite.Score(ctx, final)
	tr.end(sid)
	acct.op(err)
	return sc, err
}

// statusPoll is how often a traced run polls a queued request for the
// pending → running transition.
const statusPoll = 200 * time.Microsecond

// forgetReq follows one forget request through an unlearn.Queue.
type forgetReq struct {
	id        string
	clients   []history.ClientID
	submitted time.Time
	running   time.Time // zero in untraced runs
	done      time.Time
	// Engine rounds committed when the pass started and ended.
	runRound, doneRound int64
	info                unlearn.RequestInfo
	err                 error
}

// latency is submit → done.
func (r *forgetReq) latency() time.Duration { return r.done.Sub(r.submitted) }

// commitHold is one stretch of a Commit hook holding the engine lock.
type commitHold struct{ start, end time.Time }

// submitForget submits a request and starts a goroutine that follows
// it to completion. When poll is set the goroutine also timestamps the
// start of the request's pass. committed counts the engine's committed
// rounds. wg.Wait returns once the request has ended.
func submitForget(ctx context.Context, q *unlearn.Queue, clients []history.ClientID, poll bool,
	committed *atomic.Int64, wg *sync.WaitGroup, acct *accounting) *forgetReq {
	r := &forgetReq{clients: clients, submitted: time.Now()}
	r.id, r.err = q.Submit(clients...)
	acct.op(r.err)
	if r.err != nil {
		r.done = time.Now()
		return r
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if poll {
			for {
				info, err := q.Status(r.id)
				if err != nil || info.State != unlearn.StatePending {
					r.running = time.Now()
					r.runRound = committed.Load()
					break
				}
				time.Sleep(statusPoll)
			}
		}
		r.info, r.err = q.Wait(ctx, r.id)
		r.done = time.Now()
		r.doneRound = committed.Load()
	}()
	return r
}

// traceForget records a finished request as spans: the request, its
// queue wait, its pass, and the commit hold inside that pass.
func traceForget(tr *tracer, r *forgetReq, holds []commitHold) {
	if tr == nil || r.running.IsZero() {
		return
	}
	root := tr.add("unlearn.request", -1, 0, -1, r.id, r.submitted, r.done)
	tr.add("unlearn.queue_wait", root, 0, -1, r.id, r.submitted, r.running)
	pass := tr.add("unlearn.pass", root, 0, -1, r.id, r.running, r.done)
	for _, h := range holds {
		if !h.start.Before(r.running) && !h.end.After(r.done) {
			tr.add("unlearn.commit_hold", pass, 0, -1, r.id, h.start, h.end)
		}
	}
}

// forgetLayers summarises a traced run's requests into the unlearn.*
// per-layer metrics. passes is the queue's pass count.
func forgetLayers(m map[string]metric, reqs []*forgetReq, holds []commitHold, passes int64) {
	var wait, pass, recovered, chased []float64
	for _, r := range reqs {
		if r.running.IsZero() || r.err != nil {
			continue
		}
		wait = append(wait, float64(r.running.Sub(r.submitted))/float64(time.Millisecond))
		pass = append(pass, r.done.Sub(r.running).Seconds())
		chased = append(chased, float64(r.doneRound-r.runRound))
		if r.info.Result != nil {
			recovered = append(recovered, float64(r.info.Result.RecoveredRounds))
		}
	}
	var hold []float64
	for _, h := range holds {
		hold = append(hold, float64(h.end.Sub(h.start))/float64(time.Millisecond))
	}
	setLayer(m, "unlearn.queue_wait_ms", median(wait))
	setLayer(m, "unlearn.pass_s", median(pass))
	setLayer(m, "unlearn.rounds_recovered", median(recovered))
	setLayer(m, "unlearn.rounds_chased", median(chased))
	setLayer(m, "unlearn.commit_hold_ms", median(hold))
	if len(reqs) > 0 {
		setLayer(m, "unlearn.passes_per_request", float64(passes)/float64(len(reqs)))
	}
}

// hvpCount is the number of Hessian-vector products a pass over the
// rewritten store costs: every remaining participant of every
// recovered round [from, to) needs one.
func hvpCount(s history.Reader, from, to int) int {
	var buf []history.ClientID
	n := 0
	for t := from; t < to; t++ {
		ids, err := s.ParticipantsInto(t, buf)
		if err != nil {
			continue
		}
		n += len(ids)
		buf = ids
	}
	return n
}

// forgottenAbsent reports whether no forgotten client participates in
// any round of s from its backtrack round on.
func forgottenAbsent(s history.Reader, forgotten map[history.ClientID]int) bool {
	var buf []history.ClientID
	for t := 0; t < s.Rounds(); t++ {
		ids, err := s.ParticipantsInto(t, buf)
		if err != nil {
			return false
		}
		for _, id := range ids {
			if f, ok := forgotten[id]; ok && t >= f {
				return false
			}
		}
		buf = ids
	}
	return true
}
