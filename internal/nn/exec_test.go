package nn

import (
	"runtime"
	"testing"

	"fuiov/internal/rng"
	"fuiov/internal/tensor"
)

// TestSerialNetworkMatchesParallel requires a network pinned to
// tensor.Serial to produce the same loss and gradient bits as one whose
// kernels fan out at GOMAXPROCS=4.
func TestSerialNetworkMatchesParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r := rng.New(450)
	par := NewDigitsCNN(12, 10)
	par.Init(r)
	ser := par.Clone()
	ser.SetExec(tensor.Serial)
	x, labels := randomBatch(r, 64, par.InDims, 10)
	lp, cp := par.LossAndGrad(x, labels)
	ls, cs := ser.LossAndGrad(x, labels)
	if lp != ls || cp != cs {
		t.Fatalf("loss/correct: parallel %v/%d, serial %v/%d", lp, cp, ls, cs)
	}
	bitEqual(t, "serial vs parallel grads", ser.GradVector(), par.GradVector())
}

// TestLayerBuffersReused checks the aliasing contract: a second call
// returns the same layer-owned batches, and their contents match a
// fresh clone's, so reuse never leaks state from one call into the
// next.
func TestLayerBuffersReused(t *testing.T) {
	r := rng.New(451)
	net := NewDigitsCNN(12, 10)
	net.Init(r)
	x1, l1 := randomBatch(r, 16, net.InDims, 10)
	x2, l2 := randomBatch(r, 16, net.InDims, 10)

	y1 := net.Forward(x1)
	net.LossAndGrad(x1, l1)
	y2 := net.Forward(x2)
	if y1 != y2 {
		t.Fatal("Forward returned a new batch; want the layer-owned one")
	}
	net.LossAndGrad(x2, l2)
	fresh := net.Clone()
	fresh.LossAndGrad(x2, l2)
	bitEqual(t, "grads after reuse", net.GradVector(), fresh.GradVector())
	bitEqual(t, "logits after reuse", net.Forward(x2).Data, fresh.Forward(x2).Data)
}

// TestLossAndGradAllocs pins a steady-state serial training step at
// zero allocations.
func TestLossAndGradAllocs(t *testing.T) {
	r := rng.New(452)
	net := NewDigitsCNN(12, 10)
	net.Init(r)
	net.SetExec(tensor.Serial)
	x, labels := randomBatch(r, 64, net.InDims, 10)
	net.LossAndGrad(x, labels)
	if allocs := testing.AllocsPerRun(10, func() { net.LossAndGrad(x, labels) }); allocs != 0 {
		t.Errorf("LossAndGrad allocates %.0f times per call", allocs)
	}
}
