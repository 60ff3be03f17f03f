package nn

import (
	"math"
	"testing"

	"fuiov/internal/rng"
)

// maxPoolReference is Forward's general per-element-index loop with a
// plain branch for maxStep: each window starts from its top-left
// element and visits the rest row-major, keeping the first strict
// maximum.
func maxPoolReference(x *Batch, size int) ([]float64, []int32) {
	ih, iw := x.Dims.H, x.Dims.W
	oh, ow := ih/size, iw/size
	osz := x.Dims.C * oh * ow
	y := make([]float64, x.N*osz)
	am := make([]int32, x.N*osz)
	for n := 0; n < x.N; n++ {
		in := x.Sample(n)
		for c := 0; c < x.Dims.C; c++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := c*ih*iw + (oy*size)*iw + ox*size
					best := in[bestIdx]
					for ky := 0; ky < size; ky++ {
						for kx := 0; kx < size; kx++ {
							idx := c*ih*iw + (oy*size+ky)*iw + (ox*size + kx)
							if in[idx] > best {
								best, bestIdx = in[idx], idx
							}
						}
					}
					o := n*osz + (c*oh+oy)*ow + ox
					y[o], am[o] = best, int32(bestIdx)
				}
			}
		}
	}
	return y, am
}

// TestMaxPoolForwardMatchesReference compares Forward's outputs and
// argmax indices with the reference loop bit for bit, for window sizes
// 2 (the specialised row kernel) and 3, on inputs that crop at the
// edge and carry ties, signed zeros, infinities and NaNs.
func TestMaxPoolForwardMatchesReference(t *testing.T) {
	r := rng.New(0x9001)
	special := []float64{0, math.Copysign(0, -1), 1, 1, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, size := range []int{2, 3} {
		for _, d := range []Dims{{C: 1, H: 4, W: 4}, {C: 3, H: 7, W: 9}, {C: 4, H: 12, W: 12}} {
			x := NewBatch(3, d)
			for i := range x.Data {
				if r.IntN(4) == 0 {
					x.Data[i] = special[r.IntN(len(special))]
				} else {
					x.Data[i] = float64(r.IntN(5)) // small range: many ties
				}
			}
			wantY, wantAM := maxPoolReference(x, size)
			p := NewMaxPool2D(size)
			y := p.Forward(x)
			for i, v := range y.Data {
				if math.Float64bits(v) != math.Float64bits(wantY[i]) || p.argmax[i] != wantAM[i] {
					t.Fatalf("size %d dims %s: output %d = %v@%d, reference %v@%d",
						size, d, i, v, p.argmax[i], wantY[i], wantAM[i])
				}
			}
		}
	}
}

// BenchmarkMaxPoolForward pools a DigitsCNN first-stage activation
// (batch 64, 4×12×12).
func BenchmarkMaxPoolForward(b *testing.B) {
	x := NewBatch(64, Dims{C: 4, H: 12, W: 12})
	r := rng.New(1)
	for i := range x.Data {
		x.Data[i] = r.Normal()
	}
	p := NewMaxPool2D(2)
	p.Forward(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}
