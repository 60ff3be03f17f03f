package nn

import (
	"fmt"
	"math"

	"fuiov/internal/rng"
)

// MaxPool2D downsamples each channel by taking the maximum over
// non-overlapping Size×Size windows. Inputs whose height/width are not
// divisible by Size are cropped at the bottom/right edge, matching the
// common "floor" pooling convention.
type MaxPool2D struct {
	Size int

	lastIn  *Batch
	out, dx Batch
	argmax  []int32 // flat index (within sample) of each output's source
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D constructs a pooling layer with the given window size.
func NewMaxPool2D(size int) *MaxPool2D {
	if size <= 0 {
		panic(fmt.Sprintf("nn.NewMaxPool2D: invalid size %d", size))
	}
	return &MaxPool2D{Size: size}
}

// OutputDims reports the pooled shape.
func (p *MaxPool2D) OutputDims(in Dims) Dims {
	return Dims{C: in.C, H: in.H / p.Size, W: in.W / p.Size}
}

// Forward computes the max over each pooling window, recording argmax
// positions for the backward pass.
func (p *MaxPool2D) Forward(x *Batch) *Batch {
	outDims := p.OutputDims(x.Dims)
	if outDims.H <= 0 || outDims.W <= 0 {
		panic(fmt.Sprintf("nn.MaxPool2D: window %d too large for input %s", p.Size, x.Dims))
	}
	p.lastIn = x
	out := p.out.Resize(x.N, outDims)
	if cap(p.argmax) < x.N*outDims.Size() {
		p.argmax = make([]int32, x.N*outDims.Size())
	}
	p.argmax = p.argmax[:x.N*outDims.Size()]
	ih, iw := x.Dims.H, x.Dims.W
	oh, ow := outDims.H, outDims.W
	for n := 0; n < x.N; n++ {
		in := x.Sample(n)
		y := out.Sample(n)
		am := p.argmax[n*outDims.Size() : (n+1)*outDims.Size()]
		for c := 0; c < x.Dims.C; c++ {
			for oy := 0; oy < oh; oy++ {
				if p.Size == 2 {
					top := c*ih*iw + 2*oy*iw // the row's first window corner
					o := (c*oh + oy) * ow
					maxPool2Row(in[top:top+2*ow], in[top+iw:top+iw+2*ow], top, iw, y[o:o+ow], am[o:o+ow])
					continue
				}
				for ox := 0; ox < ow; ox++ {
					bestIdx := c*ih*iw + (oy*p.Size)*iw + ox*p.Size
					best := in[bestIdx]
					for ky := 0; ky < p.Size; ky++ {
						for kx := 0; kx < p.Size; kx++ {
							idx := c*ih*iw + (oy*p.Size+ky)*iw + (ox*p.Size + kx)
							best, bestIdx = maxStep(best, bestIdx, in[idx], idx)
						}
					}
					o := (c*oh+oy)*ow + ox
					y[o] = best
					am[o] = int32(bestIdx)
				}
			}
		}
	}
	return out
}

// maxPool2Row pools one output row of 2×2 windows whose upper input
// row is r0 (flat index top) and lower row r1 (flat index top+iw). It
// visits each window in the general loop's row-major order, so ties
// and NaNs resolve the same way, without recomputing flat indices per
// element.
func maxPool2Row(r0, r1 []float64, top, iw int, y []float64, am []int32) {
	for ox := range y {
		j := 2 * ox
		best, bi := maxStep(r0[j], top+j, r0[j+1], top+j+1)
		best, bi = maxStep(best, bi, r1[j], top+iw+j)
		best, bi = maxStep(best, bi, r1[j+1], top+iw+j+1)
		y[ox] = best
		am[ox] = int32(bi)
	}
}

// maxStep returns (v, vi) when v > best and (best, bi) otherwise, as
// `if v > best` would, but through bit masks rather than a branch:
// which window element wins is close to random, so a branch would
// mispredict often.
func maxStep(best float64, bi int, v float64, vi int) (float64, int) {
	var gt int
	if v > best {
		gt = 1
	}
	m := -gt
	bb, vb := math.Float64bits(best), math.Float64bits(v)
	return math.Float64frombits(bb ^ ((bb ^ vb) & uint64(m))), bi ^ ((bi ^ vi) & m)
}

// Backward routes each output gradient to its argmax input position.
func (p *MaxPool2D) Backward(dy *Batch) *Batch {
	x := p.lastIn
	if x == nil {
		panic("nn.MaxPool2D: Backward before Forward")
	}
	dx := p.dx.Resize(x.N, x.Dims)
	clear(dx.Data)
	osz := p.out.Dims.Size()
	for n := 0; n < x.N; n++ {
		g := dy.Sample(n)
		din := dx.Sample(n)
		am := p.argmax[n*osz : (n+1)*osz]
		for o, idx := range am {
			din[idx] += g[o]
		}
	}
	return dx
}

// Params returns nil; pooling has no parameters.
func (p *MaxPool2D) Params() []float64 { return nil }

// Grads returns nil; pooling has no parameters.
func (p *MaxPool2D) Grads() []float64 { return nil }

// Init does nothing; pooling has no parameters.
func (p *MaxPool2D) Init(*rng.RNG) {}

// Clone returns a fresh pooling layer with the same window size.
func (p *MaxPool2D) Clone() Layer { return NewMaxPool2D(p.Size) }

// Flatten reshapes CxHxW activations into a feature vector; it is the
// bridge between convolutional and dense stages.
type Flatten struct {
	out, dx Batch
}

var _ Layer = (*Flatten)(nil)

// NewFlatten constructs a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// OutputDims collapses the shape to a vector.
func (f *Flatten) OutputDims(in Dims) Dims { return in.Flat() }

// Forward reinterprets the batch with a flat shape; data is shared
// since the memory layout is identical.
func (f *Flatten) Forward(x *Batch) *Batch {
	f.out = Batch{N: x.N, Dims: x.Dims.Flat(), Data: x.Data}
	f.dx.Dims = x.Dims
	return &f.out
}

// Backward restores the original shape.
func (f *Flatten) Backward(dy *Batch) *Batch {
	f.dx.N, f.dx.Data = dy.N, dy.Data
	return &f.dx
}

// Params returns nil; Flatten has no parameters.
func (f *Flatten) Params() []float64 { return nil }

// Grads returns nil; Flatten has no parameters.
func (f *Flatten) Grads() []float64 { return nil }

// Init does nothing; Flatten has no parameters.
func (f *Flatten) Init(*rng.RNG) {}

// Clone returns a fresh Flatten.
func (f *Flatten) Clone() Layer { return NewFlatten() }
