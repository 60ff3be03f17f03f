package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"fuiov/internal/dataset"
	"fuiov/internal/history"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
)

// goldenCNNParams is the SHA-256 of the little-endian float64 bits of
// the global parameters after goldenCNNRun. It was recorded before the
// GEMM kernels were blocked and the client replicas made serial and
// allocation-free, so it pins that those rewrites kept every training
// bit.
const goldenCNNParams = "c6ed3db26466bbe0f101997ab8051bea3bb30ff89ca6a86902d4122a4eaf9b94"

// goldenCNNRun trains the paper's DigitsCNN for 15 seeded rounds of
// barrier FedAvg over 8 vehicles at batch 64 and returns the final
// global parameters.
func goldenCNNRun(t *testing.T, parallelism int) []float64 {
	t.Helper()
	const seed = 0x901d
	d := dataset.SynthDigits(dataset.DefaultDigits(1200, seed))
	r := rng.New(seed)
	shards, err := dataset.PartitionIID(d, r, 8)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, len(shards))
	for i, s := range shards {
		clients[i] = &Client{ID: history.ClientID(i), Data: s, BatchSize: 64}
	}
	net := nn.NewDigitsCNN(d.Dims.H, d.Classes)
	net.Init(r.Split(7))
	sim, err := NewSimulation(net, clients, Config{LearningRate: 0.2, Seed: seed, Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(15); err != nil {
		t.Fatal(err)
	}
	return sim.Params()
}

func paramsHash(p []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigitsCNNParams pins the bits of a seeded CNN training run
// at one and at four concurrent clients.
func TestGoldenDigitsCNNParams(t *testing.T) {
	for _, par := range []int{1, 4} {
		if got := paramsHash(goldenCNNRun(t, par)); got != goldenCNNParams {
			t.Errorf("Parallelism %d: params hash %s, want %s", par, got, goldenCNNParams)
		}
	}
}

// TestComputeGradientAllocs pins a steady-state client gradient at one
// allocation — the returned gradient, which escapes into the round's
// aggregation maps and recorders. Layer outputs, the logit gradient,
// the mini-batch and the RNG are replica-owned scratch.
func TestComputeGradientAllocs(t *testing.T) {
	d := dataset.SynthDigits(dataset.DefaultDigits(400, 5))
	cases := []struct {
		name  string
		net   *nn.Network
		batch int
	}{
		{"digits-cnn-b64", nn.NewDigitsCNN(d.Dims.H, d.Classes), 64},
		{"mlp-full-shard", nn.NewMLP(d.Dims.Size(), 24, d.Classes), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.net.Init(rng.New(3))
			params := tc.net.ParamVector()
			c := &Client{ID: 4, Data: d, BatchSize: tc.batch}
			round := 0
			call := func() {
				if _, err := c.ComputeGradient(tc.net, params, 11, round); err != nil {
					t.Fatal(err)
				}
				round++
			}
			call() // the first call clones the replica and grows its scratch
			if allocs := testing.AllocsPerRun(10, call); allocs > 1 {
				t.Errorf("ComputeGradient allocates %.0f times per call, want ≤ 1", allocs)
			}
		})
	}
}

// BenchmarkComputeGradient times one steady-state client gradient of
// the paper's DigitsCNN at batch 64 on the calling goroutine.
func BenchmarkComputeGradient(b *testing.B) {
	d := dataset.SynthDigits(dataset.DefaultDigits(400, 5))
	net := nn.NewDigitsCNN(d.Dims.H, d.Classes)
	net.Init(rng.New(3))
	params := net.ParamVector()
	c := &Client{ID: 4, Data: d, BatchSize: 64}
	if _, err := c.ComputeGradient(net, params, 11, -1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ComputeGradient(net, params, 11, i); err != nil {
			b.Fatal(err)
		}
	}
}
