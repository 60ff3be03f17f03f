// Package fl simulates federated learning in the Internet of Vehicles:
// vehicles (clients) compute stochastic gradients on private shards,
// the RSU (server) aggregates them with FedAvg (eq. 1–2 of the paper)
// and records history for later unlearning. Membership is dynamic —
// vehicles can join, leave, and drop out at any round.
package fl

import (
	"fmt"

	"fuiov/internal/attack"
	"fuiov/internal/dataset"
	"fuiov/internal/history"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/tensor"
)

// Client is one vehicle participating in federated learning.
type Client struct {
	ID history.ClientID
	// Data is the client's private shard. Poisoned clients hold a
	// poisoned shard (see internal/attack).
	Data *dataset.Dataset
	// BatchSize caps the per-round mini-batch (0 = full shard).
	BatchSize int
	// LocalSteps is the number of local SGD steps per round (0 or 1 =
	// single-gradient FedSGD, the paper's protocol). With k > 1 the
	// client performs k mini-batch steps at LocalLR and uploads the
	// pseudo-gradient (w_start − w_end)/LocalLR, the classic FedAvg of
	// McMahan et al. — so the server-side update rule (eq. 2) is
	// unchanged.
	LocalSteps int
	// LocalLR is the client-side step size when LocalSteps > 1; it
	// must be positive in that case.
	LocalLR float64
	// GradAttack, when non-nil, perturbs the uploaded gradient
	// (model-poisoning adversaries).
	GradAttack attack.GradientAttack

	// net is the client's private model replica, lazily cloned from
	// the server template so concurrent clients never share state.
	// rng and batch are the replica's per-call scratch.
	net   *nn.Network
	rng   *rng.RNG
	batch dataset.BatchBuf
}

// Weight returns the FedAvg aggregation weight |Dᵢ| (eq. 1).
func (c *Client) Weight() float64 { return float64(c.Data.Len()) }

// ComputeGradient evaluates the gradient of the mean training loss at
// the given global parameters on a mini-batch drawn deterministically
// from (seed, round, client ID). template provides the architecture;
// the client keeps a private clone across rounds.
//
// The clone computes serially on the calling goroutine: concurrency
// comes from running clients side by side (the round engine's
// Parallelism), never from inside one client's kernels. In steady
// state the returned gradient is the call's only allocation.
func (c *Client) ComputeGradient(template *nn.Network, params []float64, seed uint64, round int) ([]float64, error) {
	if c.Data == nil || c.Data.Len() == 0 {
		return nil, fmt.Errorf("fl: client %d has no data", c.ID)
	}
	if c.net == nil {
		c.net = template.Clone()
		c.net.SetExec(tensor.Serial)
		c.rng = rng.New(0)
	}
	c.net.SetParamVector(params)
	r := c.rng
	r.Reseed(rng.Mix(seed, uint64(c.ID)+1, uint64(round)+1))

	var g []float64
	if c.LocalSteps > 1 {
		if c.LocalLR <= 0 {
			return nil, fmt.Errorf("fl: client %d has %d local steps but LocalLR %v",
				c.ID, c.LocalSteps, c.LocalLR)
		}
		for step := 0; step < c.LocalSteps; step++ {
			x, labels := c.sampleBatch(r)
			c.net.LossAndGrad(x, labels)
			c.net.SGDStep(c.LocalLR)
		}
		// Pseudo-gradient: the direction the local run moved, rescaled
		// so the server's η-step (eq. 2) reproduces FedAvg model
		// averaging. g starts as the end point and is rewritten in place.
		g = c.net.ParamVector()
		inv := 1 / c.LocalLR
		for i := range g {
			g[i] = (params[i] - g[i]) * inv
		}
	} else {
		x, labels := c.sampleBatch(r)
		c.net.LossAndGrad(x, labels)
		g = c.net.GradVector()
	}
	if c.GradAttack != nil {
		g = c.GradAttack.Apply(g, r)
	}
	return g, nil
}

// sampleBatch draws the round's mini-batch (or the full shard when
// BatchSize is 0 or exceeds the shard).
func (c *Client) sampleBatch(r *rng.RNG) (*nn.Batch, []int) {
	if c.BatchSize > 0 && c.BatchSize < c.Data.Len() {
		return c.Data.SampleBatchInto(&c.batch, r, c.BatchSize)
	}
	return c.Data.FullBatchInto(&c.batch)
}
