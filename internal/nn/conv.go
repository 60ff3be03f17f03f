package nn

import (
	"fmt"
	"math"
	"time"

	"fuiov/internal/rng"
	"fuiov/internal/tensor"
)

// Conv2D is a 2-D convolution with stride 1 and "same" zero padding
// when Pad is true (kernel must then have odd size), or "valid"
// (no padding) otherwise. It matches the small CNNs the paper trains:
// two convolutional layers followed by fully connected layers.
//
// Forward and Backward are formulated as im2col + GEMM (col2im for the
// input gradient): each sample's receptive fields are unpacked into a
// patch matrix once, and the convolution becomes a single matrix
// product against the weight matrix. The patch scratch and the output
// and input-gradient batches are owned by the layer and reused across
// calls, so steady-state training rounds allocate nothing.
type Conv2D struct {
	InC, OutC int
	K         int  // square kernel size
	Pad       bool // same-padding when true

	params []float64 // weights OutC*InC*K*K, then biases OutC
	grads  []float64
	exec   tensor.Exec

	lastIn  *Batch
	out, dx Batch
	// cols caches the im2col expansion of lastIn (per sample a
	// KK×P panel, KK = InC·K², P = OH·OW); Backward reuses it for the
	// weight-gradient GEMM. dcols is the backward patch-gradient
	// scratch: one panel per sample when samples run in parallel, a
	// single panel when the layer is serial. Both are grown once and
	// reused across calls.
	cols, dcols []float64
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D constructs the layer. K must be positive and odd when
// same-padding is requested.
func NewConv2D(inC, outC, k int, pad bool) *Conv2D {
	if inC <= 0 || outC <= 0 || k <= 0 {
		panic(fmt.Sprintf("nn.NewConv2D: invalid shape inC=%d outC=%d k=%d", inC, outC, k))
	}
	if pad && k%2 == 0 {
		panic("nn.NewConv2D: same-padding requires an odd kernel")
	}
	n := outC*inC*k*k + outC
	return &Conv2D{InC: inC, OutC: outC, K: k, Pad: pad,
		params: make([]float64, n), grads: make([]float64, n)}
}

func (c *Conv2D) weights() []float64 { return c.params[:c.OutC*c.InC*c.K*c.K] }
func (c *Conv2D) bias() []float64    { return c.params[c.OutC*c.InC*c.K*c.K:] }

// Init applies He initialisation over the receptive field.
func (c *Conv2D) Init(r *rng.RNG) {
	fanIn := float64(c.InC * c.K * c.K)
	std := math.Sqrt(2 / fanIn)
	w := c.weights()
	for i := range w {
		w[i] = r.NormalScaled(0, std)
	}
	b := c.bias()
	for i := range b {
		b[i] = 0
	}
}

// OutputDims reports the output shape for an input shape.
func (c *Conv2D) OutputDims(in Dims) Dims {
	if c.Pad {
		return Dims{C: c.OutC, H: in.H, W: in.W}
	}
	return Dims{C: c.OutC, H: in.H - c.K + 1, W: in.W - c.K + 1}
}

func (c *Conv2D) padOffset() int {
	if c.Pad {
		return c.K / 2
	}
	return 0
}

// Forward performs the convolution as per-sample im2col + GEMM.
// Samples are processed in parallel when the batch is large enough and
// the layer is not serial; each sample is computed entirely by one
// goroutine with a fixed accumulation order, so results are
// bit-identical at any parallelism.
func (c *Conv2D) Forward(x *Batch) *Batch {
	if x.Dims.C != c.InC {
		panic(fmt.Sprintf("nn.Conv2D: input channels %d, layer expects %d", x.Dims.C, c.InC))
	}
	c.lastIn = x
	outDims := c.OutputDims(x.Dims)
	if outDims.H <= 0 || outDims.W <= 0 {
		panic(fmt.Sprintf("nn.Conv2D: kernel %d too large for input %s", c.K, x.Dims))
	}
	out := c.out.Resize(x.N, outDims)
	kk := c.InC * c.K * c.K
	p := outDims.H * outDims.W
	c.cols = growFloats(c.cols, x.N*kk*p)
	timing := kernelTimingOn.Load()
	if c.exec == tensor.Serial {
		for n := 0; n < x.N; n++ {
			c.forwardSample(x, out, n, timing)
		}
		return out
	}
	parallelSamples(x.N, 2*c.OutC*kk*p, func(n int) { c.forwardSample(x, out, n, timing) })
	return out
}

// forwardSample unpacks sample n of x into its cols panel and writes
// its output channels.
func (c *Conv2D) forwardSample(x, out *Batch, n int, timing bool) {
	var t0 time.Time
	if timing {
		t0 = time.Now()
	}
	kk := c.InC * c.K * c.K
	p := out.Dims.H * out.Dims.W
	col := &tensor.Matrix{Rows: kk, Cols: p, Data: c.cols[n*kk*p : (n+1)*kk*p]}
	im2col(x.Sample(n), col.Data, x.Dims, c.K, c.padOffset(), out.Dims)
	if timing {
		t1 := time.Now()
		im2colNanos.Add(t1.Sub(t0).Nanoseconds())
		t0 = t1
	}
	// y starts at the bias and accumulates weight·patch terms in the
	// same (ic, ky, kx) order as the direct loop.
	y := &tensor.Matrix{Rows: c.OutC, Cols: p, Data: out.Sample(n)}
	b := c.bias()
	for oc := 0; oc < c.OutC; oc++ {
		row := y.Data[oc*p : (oc+1)*p]
		bias := b[oc]
		for j := range row {
			row[j] = bias
		}
	}
	w := &tensor.Matrix{Rows: c.OutC, Cols: kk, Data: c.weights()}
	c.exec.MatMulAddInto(y, w, col)
	if timing {
		gemmNanos.Add(time.Since(t0).Nanoseconds())
	}
}

// forwardNaive is the original direct 7-loop convolution, kept as the
// reference implementation for the kernel equivalence tests.
func (c *Conv2D) forwardNaive(x *Batch) *Batch {
	if x.Dims.C != c.InC {
		panic(fmt.Sprintf("nn.Conv2D: input channels %d, layer expects %d", x.Dims.C, c.InC))
	}
	c.lastIn = x
	outDims := c.OutputDims(x.Dims)
	if outDims.H <= 0 || outDims.W <= 0 {
		panic(fmt.Sprintf("nn.Conv2D: kernel %d too large for input %s", c.K, x.Dims))
	}
	out := NewBatch(x.N, outDims)
	w, b := c.weights(), c.bias()
	ih, iw := x.Dims.H, x.Dims.W
	oh, ow := outDims.H, outDims.W
	off := c.padOffset()
	for n := 0; n < x.N; n++ {
		in := x.Sample(n)
		y := out.Sample(n)
		for oc := 0; oc < c.OutC; oc++ {
			bias := b[oc]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := bias
					for ic := 0; ic < c.InC; ic++ {
						wBase := ((oc*c.InC + ic) * c.K) * c.K
						inBase := ic * ih * iw
						for ky := 0; ky < c.K; ky++ {
							sy := oy + ky - off
							if sy < 0 || sy >= ih {
								continue
							}
							rowW := w[wBase+ky*c.K : wBase+(ky+1)*c.K]
							rowIn := in[inBase+sy*iw : inBase+(sy+1)*iw]
							for kx := 0; kx < c.K; kx++ {
								sx := ox + kx - off
								if sx < 0 || sx >= iw {
									continue
								}
								s += rowW[kx] * rowIn[sx]
							}
						}
					}
					y[(oc*oh+oy)*ow+ox] = s
				}
			}
		}
	}
	return out
}

// Backward accumulates weight/bias gradients and returns dL/dx. The
// input gradient is computed per sample as Wᵀ·dY followed by col2im
// (parallel across samples unless the layer is serial); the weight/bias
// gradients accumulate serially in sample order against the im2col
// panels cached by Forward, so gradient bits never depend on
// parallelism.
func (c *Conv2D) Backward(dy *Batch) *Batch {
	x := c.lastIn
	if x == nil {
		panic("nn.Conv2D: Backward before Forward")
	}
	dx := c.dx.Resize(x.N, x.Dims)
	clear(dx.Data)
	kk := c.InC * c.K * c.K
	p := dy.Dims.H * dy.Dims.W
	timing := kernelTimingOn.Load()
	if c.exec == tensor.Serial {
		c.dcols = growFloats(c.dcols, kk*p)
		for n := 0; n < x.N; n++ {
			c.inputGradSample(dy, dx, n, c.dcols, timing)
		}
	} else {
		c.dcols = growFloats(c.dcols, x.N*kk*p)
		parallelSamples(x.N, 4*c.OutC*kk*p, func(n int) {
			c.inputGradSample(dy, dx, n, c.dcols[n*kk*p:(n+1)*kk*p], timing)
		})
	}
	c.backwardParams(dy)
	return dx
}

// inputGradSample writes sample n of dx = col2im(Wᵀ·dY), using dcol as
// the patch-gradient panel.
func (c *Conv2D) inputGradSample(dy, dx *Batch, n int, dcol []float64, timing bool) {
	var t0 time.Time
	if timing {
		t0 = time.Now()
	}
	kk := c.InC * c.K * c.K
	p := dy.Dims.H * dy.Dims.W
	w := &tensor.Matrix{Rows: c.OutC, Cols: kk, Data: c.weights()}
	dyM := &tensor.Matrix{Rows: c.OutC, Cols: p, Data: dy.Sample(n)}
	dcolM := &tensor.Matrix{Rows: kk, Cols: p, Data: dcol}
	c.exec.MatMulTNInto(dcolM, w, dyM)
	if timing {
		t1 := time.Now()
		gemmNanos.Add(t1.Sub(t0).Nanoseconds())
		t0 = t1
	}
	col2im(dcol, dx.Sample(n), dx.Dims, c.K, c.padOffset(), dy.Dims)
	if timing {
		col2imNanos.Add(time.Since(t0).Nanoseconds())
	}
}

// backwardParams accumulates the weight and bias gradients of dy,
// sample by sample in increasing order, without the input gradient.
func (c *Conv2D) backwardParams(dy *Batch) {
	if c.lastIn == nil {
		panic("nn.Conv2D: Backward before Forward")
	}
	kk := c.InC * c.K * c.K
	p := dy.Dims.H * dy.Dims.W
	gwM := &tensor.Matrix{Rows: c.OutC, Cols: kk, Data: c.grads[:c.OutC*kk]}
	gb := c.grads[c.OutC*kk:]
	var t0 time.Time
	timing := kernelTimingOn.Load()
	if timing {
		t0 = time.Now()
	}
	for n := 0; n < dy.N; n++ {
		dyM := &tensor.Matrix{Rows: c.OutC, Cols: p, Data: dy.Sample(n)}
		col := &tensor.Matrix{Rows: kk, Cols: p, Data: c.cols[n*kk*p : (n+1)*kk*p]}
		c.exec.MatMulNTAddInto(gwM, dyM, col)
		g := dy.Sample(n)
		for oc := 0; oc < c.OutC; oc++ {
			s := gb[oc]
			for _, gv := range g[oc*p : (oc+1)*p] {
				s += gv
			}
			gb[oc] = s
		}
	}
	if timing {
		gemmNanos.Add(time.Since(t0).Nanoseconds())
	}
}

// backwardNaive is the original direct-loop backward pass, kept as the
// reference implementation for the kernel equivalence tests. It must
// be preceded by forwardNaive or Forward on the same batch.
func (c *Conv2D) backwardNaive(dy *Batch) *Batch {
	x := c.lastIn
	if x == nil {
		panic("nn.Conv2D: Backward before Forward")
	}
	dx := NewBatch(x.N, x.Dims)
	w := c.weights()
	gw := c.grads[:len(w)]
	gb := c.grads[len(w):]
	ih, iw := x.Dims.H, x.Dims.W
	oh, ow := dy.Dims.H, dy.Dims.W
	off := c.padOffset()
	for n := 0; n < x.N; n++ {
		in := x.Sample(n)
		din := dx.Sample(n)
		g := dy.Sample(n)
		for oc := 0; oc < c.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gv := g[(oc*oh+oy)*ow+ox]
					if gv == 0 {
						continue
					}
					gb[oc] += gv
					for ic := 0; ic < c.InC; ic++ {
						wBase := ((oc*c.InC + ic) * c.K) * c.K
						inBase := ic * ih * iw
						for ky := 0; ky < c.K; ky++ {
							sy := oy + ky - off
							if sy < 0 || sy >= ih {
								continue
							}
							for kx := 0; kx < c.K; kx++ {
								sx := ox + kx - off
								if sx < 0 || sx >= iw {
									continue
								}
								idxIn := inBase + sy*iw + sx
								idxW := wBase + ky*c.K + kx
								gw[idxW] += gv * in[idxIn]
								din[idxIn] += gv * w[idxW]
							}
						}
					}
				}
			}
		}
	}
	return dx
}

// Params returns a live view of weights followed by biases.
func (c *Conv2D) Params() []float64 { return c.params }

// BiasLen reports the trailing bias entries in Params (one per output
// channel).
func (c *Conv2D) BiasLen() int { return c.OutC }

// Grads returns a live view of the accumulated gradients.
func (c *Conv2D) Grads() []float64 { return c.grads }

func (c *Conv2D) setExec(e tensor.Exec) { c.exec = e }

// Clone returns a parameter-copying deep copy.
func (c *Conv2D) Clone() Layer {
	out := NewConv2D(c.InC, c.OutC, c.K, c.Pad)
	copy(out.params, c.params)
	return out
}
