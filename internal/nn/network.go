package nn

import (
	"fmt"

	"fuiov/internal/rng"
	"fuiov/internal/tensor"
)

// Network is a sequential stack of layers ending in logits, trained
// with softmax cross-entropy. It exposes its parameters and gradients
// as flat vectors — the exchange format of the FL simulator.
//
// The batches Forward returns, and those the layers pass each other,
// are buffers the layers own: each stays valid until the next call on
// the same network.
type Network struct {
	InDims Dims
	layers []Layer
}

// execLayer is implemented by the layers whose kernels can fan out
// over goroutines.
type execLayer interface{ setExec(tensor.Exec) }

// paramBackwarder is implemented by layers that can accumulate their
// parameter gradients without computing the input gradient. Backward
// uses it for the first layer, whose input gradient nobody reads.
type paramBackwarder interface{ backwardParams(dy *Batch) }

// SetExec selects where the network's kernels compute. The default,
// tensor.Parallel, lets the convolution sample loops and the GEMM row
// kernels fan out over GOMAXPROCS goroutines; tensor.Serial keeps every
// kernel on the calling goroutine, for a replica that already runs on
// one of several concurrent workers. Results are bit-identical either
// way. Clones start at tensor.Parallel.
func (n *Network) SetExec(e tensor.Exec) {
	for _, l := range n.layers {
		if el, ok := l.(execLayer); ok {
			el.setExec(e)
		}
	}
}

// NewNetwork builds a sequential network over the given input shape.
// It validates layer compatibility eagerly so shape errors surface at
// construction rather than mid-training.
func NewNetwork(in Dims, layers ...Layer) (*Network, error) {
	if in.Size() <= 0 {
		return nil, fmt.Errorf("nn: invalid input dims %s", in)
	}
	dims := in
	for i, l := range layers {
		out := l.OutputDims(dims)
		if out.Size() <= 0 {
			return nil, fmt.Errorf("nn: layer %d (%T) produces empty output from %s", i, l, dims)
		}
		if d, ok := l.(*Dense); ok && dims.Size() != d.In {
			return nil, fmt.Errorf("nn: layer %d (Dense) expects %d inputs, got %s", i, d.In, dims)
		}
		if c, ok := l.(*Conv2D); ok && dims.C != c.InC {
			return nil, fmt.Errorf("nn: layer %d (Conv2D) expects %d channels, got %s", i, c.InC, dims)
		}
		dims = out
	}
	return &Network{InDims: in, layers: layers}, nil
}

// MustNetwork is NewNetwork that panics on error, for use in tests and
// model factory functions whose shapes are fixed at compile time.
func MustNetwork(in Dims, layers ...Layer) *Network {
	n, err := NewNetwork(in, layers...)
	if err != nil {
		panic(err)
	}
	return n
}

// OutDims reports the logits shape.
func (n *Network) OutDims() Dims {
	d := n.InDims
	for _, l := range n.layers {
		d = l.OutputDims(d)
	}
	return d
}

// NumParams returns the total parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.layers {
		total += len(l.Params())
	}
	return total
}

// Init (re)initialises all layer parameters deterministically from r.
func (n *Network) Init(r *rng.RNG) {
	for i, l := range n.layers {
		l.Init(r.Split(uint64(i)))
	}
}

// Forward runs the network and returns the logits.
func (n *Network) Forward(x *Batch) *Batch {
	for _, l := range n.layers {
		x = l.Forward(x)
	}
	return x
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, l := range n.layers {
		g := l.Grads()
		for i := range g {
			g[i] = 0
		}
	}
}

// Backward propagates dLogits through the stack, accumulating
// parameter gradients. Layers may overwrite the gradient batches they
// receive, dLogits included. The first layer's input gradient is
// never computed when the layer can skip it.
func (n *Network) Backward(dLogits *Batch) {
	dy := dLogits
	for i := len(n.layers) - 1; i > 0; i-- {
		dy = n.layers[i].Backward(dy)
	}
	if len(n.layers) == 0 {
		return
	}
	if pb, ok := n.layers[0].(paramBackwarder); ok {
		pb.backwardParams(dy)
	} else {
		n.layers[0].Backward(dy)
	}
}

// LossAndGrad computes the mean cross-entropy loss of the batch and
// leaves the gradient of the mean loss in the layers' grad buffers
// (previous gradients are cleared first). It returns the loss and the
// number of correctly classified samples.
func (n *Network) LossAndGrad(x *Batch, labels []int) (loss float64, correct int) {
	n.ZeroGrads()
	logits := n.Forward(x)
	correct = countCorrect(logits, labels)
	// The logit gradient overwrites the logits in place: no layer's
	// Backward reads the batch its own Forward returned.
	loss = softmaxCrossEntropyInto(logits, logits, labels)
	n.Backward(logits)
	return loss, correct
}

// ParamVector returns a copy of all parameters concatenated in layer
// order.
func (n *Network) ParamVector() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, l := range n.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// SetParamVector overwrites all parameters from the flat vector v,
// which must have length NumParams.
func (n *Network) SetParamVector(v []float64) {
	if len(v) != n.NumParams() {
		panic(fmt.Sprintf("nn: SetParamVector got %d values, want %d", len(v), n.NumParams()))
	}
	off := 0
	for _, l := range n.layers {
		p := l.Params()
		copy(p, v[off:off+len(p)])
		off += len(p)
	}
}

// ParamSpans returns the [start, end) offsets of each parameterised
// layer's slice within the flat ParamVector layout, in layer order.
// Layers without parameters are omitted, so the spans tile the vector
// exactly. Callers can use the spans to address an individual layer's
// weights inside a flat parameter vector (e.g. the NoT unlearning
// strategy negates the first span).
func (n *Network) ParamSpans() [][2]int {
	spans := make([][2]int, 0, len(n.layers))
	off := 0
	for _, l := range n.layers {
		np := len(l.Params())
		if np == 0 {
			continue
		}
		spans = append(spans, [2]int{off, off + np})
		off += np
	}
	return spans
}

// Biased is implemented by layers whose Params view ends with a bias
// vector, so flat-vector consumers can address the weight matrix
// alone (WeightSpans).
type Biased interface {
	// BiasLen is the number of trailing bias entries in Params.
	BiasLen() int
}

// WeightSpans is ParamSpans restricted to each layer's weight matrix:
// for layers implementing Biased the trailing bias entries are
// excluded from the span, so e.g. sign-negating a span flips a layer's
// weights while leaving its biases intact.
func (n *Network) WeightSpans() [][2]int {
	spans := make([][2]int, 0, len(n.layers))
	off := 0
	for _, l := range n.layers {
		np := len(l.Params())
		if np == 0 {
			continue
		}
		end := off + np
		if b, ok := l.(Biased); ok {
			end -= b.BiasLen()
		}
		spans = append(spans, [2]int{off, end})
		off += np
	}
	return spans
}

// GradVector returns a copy of all parameter gradients concatenated in
// layer order, aligned with ParamVector.
func (n *Network) GradVector() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, l := range n.layers {
		out = append(out, l.Grads()...)
	}
	return out
}

// SGDStep applies w <- w - lr * grad using the accumulated gradients.
func (n *Network) SGDStep(lr float64) {
	for _, l := range n.layers {
		p, g := l.Params(), l.Grads()
		for i := range p {
			p[i] -= lr * g[i]
		}
	}
}

// Clone returns an independent deep copy of the network (parameters
// copied, activations not shared). Clones are how the simulator gives
// each client goroutine a private model.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		layers[i] = l.Clone()
	}
	return &Network{InDims: n.InDims, layers: layers}
}

// Evaluate runs the network on the batch without touching gradients
// and returns (mean loss, number correct).
func (n *Network) Evaluate(x *Batch, labels []int) (loss float64, correct int) {
	logits := n.Forward(x)
	return softmaxCrossEntropyInto(nil, logits, labels), countCorrect(logits, labels)
}

// Predict returns the argmax class for each sample in the batch.
func (n *Network) Predict(x *Batch) []int {
	return Argmax(n.Forward(x))
}
