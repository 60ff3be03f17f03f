package nn

import "fuiov/internal/rng"

// Layer is one differentiable stage of a network.
//
// Forward consumes a batch and produces the layer output, caching
// whatever it needs for the backward pass. Backward consumes the
// gradient of the loss with respect to the layer output and returns
// the gradient with respect to the layer input, accumulating parameter
// gradients into the slice returned by Grads.
//
// The batches Forward and Backward return are owned by the layer and
// reused by its next call. Backward may overwrite dy, and must not read
// the batch its own Forward returned: Network.LossAndGrad overwrites
// the logits with their gradient. Layers are NOT safe for concurrent
// use; the simulator gives each client its own network clone.
type Layer interface {
	// Forward runs the layer on x and returns the output batch.
	Forward(x *Batch) *Batch
	// Backward propagates the output gradient dy and returns the input
	// gradient. It must be called after Forward on the same batch.
	Backward(dy *Batch) *Batch
	// Params returns a live view of the layer's parameters (nil when
	// the layer has none).
	Params() []float64
	// Grads returns a live view of the parameter gradients, aligned
	// with Params (nil when the layer has none).
	Grads() []float64
	// OutputDims reports the per-sample output shape given the input
	// shape.
	OutputDims(in Dims) Dims
	// Init (re)initialises the parameters using the given RNG. Layers
	// without parameters do nothing.
	Init(r *rng.RNG)
	// Clone returns an independent copy of the layer (parameters are
	// copied; cached activations are not shared).
	Clone() Layer
}
