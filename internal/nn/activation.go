package nn

import (
	"math"

	"fuiov/internal/rng"
)

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	lastIn *Batch
	out    Batch
}

var _ Layer = (*ReLU)(nil)

// NewReLU constructs a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// OutputDims is the identity.
func (r *ReLU) OutputDims(in Dims) Dims { return in }

// Forward clamps negatives to zero: out = x where x > 0, else +0.
func (r *ReLU) Forward(x *Batch) *Batch {
	r.lastIn = x
	out := r.out.Resize(x.N, x.Dims).Data[:len(x.Data)]
	for i, v := range x.Data {
		u := math.Float64bits(v)
		out[i] = math.Float64frombits(u & positiveMask(u))
	}
	return &r.out
}

// Backward masks the gradient by the sign of the forward input: dx = dy
// where x > 0, else +0. It masks dy in place and returns it: the
// gradient a layer receives is scratch its successor owns, so no copy
// is needed.
func (r *ReLU) Backward(dy *Batch) *Batch {
	x := r.lastIn
	if x == nil {
		panic("nn.ReLU: Backward before Forward")
	}
	g := dy.Data[:len(x.Data)]
	for i, v := range x.Data {
		g[i] = math.Float64frombits(math.Float64bits(g[i]) & positiveMask(math.Float64bits(v)))
	}
	return dy
}

// positiveMask returns all ones when the float64 with bits u is > 0,
// and zero otherwise (zeros, negatives and NaNs). Read as an int64, a
// float64 is > 0 exactly when its bits lie in [1, +Inf]; the mask is
// computed from the two range checks' sign bits, without a branch, so
// the ReLU loops do not mispredict on activations of random sign.
func positiveMask(u uint64) uint64 {
	const posInf = 0x7FF0000000000000
	s := int64(u)
	return ^uint64(((s - 1) | (posInf - s)) >> 63)
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []float64 { return nil }

// Grads returns nil; ReLU has no parameters.
func (r *ReLU) Grads() []float64 { return nil }

// Init does nothing; ReLU has no parameters.
func (r *ReLU) Init(*rng.RNG) {}

// Clone returns a fresh ReLU.
func (r *ReLU) Clone() Layer { return NewReLU() }

// Tanh applies the hyperbolic tangent elementwise. It is provided for
// the ablation configurations; the paper's models use ReLU.
type Tanh struct {
	// deriv points at d once Forward has run: 1 − tanh² of its input,
	// kept apart from out because a layer's Backward must not read the
	// batch its Forward returned.
	deriv      *Batch
	out, d, dx Batch
}

var _ Layer = (*Tanh)(nil)

// NewTanh constructs a Tanh activation.
func NewTanh() *Tanh { return &Tanh{} }

// OutputDims is the identity.
func (t *Tanh) OutputDims(in Dims) Dims { return in }

// Forward applies tanh.
func (t *Tanh) Forward(x *Batch) *Batch {
	out := t.out.Resize(x.N, x.Dims)
	d := t.d.Resize(x.N, x.Dims)
	for i, v := range x.Data {
		y := tanh(v)
		out.Data[i] = y
		d.Data[i] = 1 - y*y
	}
	t.deriv = d
	return out
}

// Backward uses d tanh = 1 - tanh².
func (t *Tanh) Backward(dy *Batch) *Batch {
	if t.deriv == nil {
		panic("nn.Tanh: Backward before Forward")
	}
	dx := t.dx.Resize(dy.N, dy.Dims)
	for i, d := range t.deriv.Data {
		dx.Data[i] = dy.Data[i] * d
	}
	return dx
}

// Params returns nil; Tanh has no parameters.
func (t *Tanh) Params() []float64 { return nil }

// Grads returns nil; Tanh has no parameters.
func (t *Tanh) Grads() []float64 { return nil }

// Init does nothing; Tanh has no parameters.
func (t *Tanh) Init(*rng.RNG) {}

// Clone returns a fresh Tanh.
func (t *Tanh) Clone() Layer { return NewTanh() }

func tanh(x float64) float64 { return math.Tanh(x) }
