package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"fuiov/internal/rng"
)

// The blocked kernels (four queued k-terms per pass in NN and TN, four
// output columns per pass in NT) must reproduce the plain loops below
// bit for bit: each output element sees the same terms, rounded one add
// at a time, in the same k-increasing order, with the same av == 0
// skip in NN and TN and none in NT.

// nnRef is dst += a*b as one unblocked loop, zero terms skipped.
func nnRef(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for kk := 0; kk < a.Cols; kk++ {
			av := a.At(i, kk)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				dst.Data[i*dst.Cols+j] += av * b.At(kk, j)
			}
		}
	}
}

// tnRef is dst = (dst +) aᵀ*b as one unblocked loop, zero terms
// skipped.
func tnRef(dst, a, b *Matrix, acc bool) {
	if !acc {
		Fill(dst.Data, 0)
	}
	for i := 0; i < a.Cols; i++ {
		for kk := 0; kk < a.Rows; kk++ {
			av := a.At(kk, i)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				dst.Data[i*dst.Cols+j] += av * b.At(kk, j)
			}
		}
	}
}

// ntRef is dst = (dst +) a*bᵀ, one dot product per element.
func ntRef(dst, a, b *Matrix, acc bool) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			s := 0.0
			if acc {
				s = dst.At(i, j)
			}
			for kk := 0; kk < a.Cols; kk++ {
				s += a.At(i, kk) * b.At(j, kk)
			}
			dst.Set(i, j, s)
		}
	}
}

// specialMatrix is randMatrix with IEEE edge cases mixed in: exact
// zeros, negative zeros, infinities and NaNs, plus one all-zero row.
func specialMatrix(r *rng.RNG, m, n int) *Matrix {
	out := randMatrix(r, m, n)
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range out.Data {
		if r.IntN(11) == 0 {
			out.Data[i] = specials[r.IntN(len(specials))]
		}
	}
	if m > 2 {
		Fill(out.Data[(m/2)*n:(m/2+1)*n], 0)
	}
	return out
}

// sameBits compares bit patterns, except that any NaN matches any NaN:
// Go leaves open which operand's payload an add propagates, so the
// payload depends on register allocation, not on the kernel.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestBlockedKernelsMatchUnblocked sweeps shapes around the blocking
// boundaries — n mod 4 ∈ {0, 1, 2, 3}, k below the queue depth of four,
// k and n past gemmBlockK and gemmBlockJ — for every Into variant,
// under Serial and under Parallel at GOMAXPROCS=4, on inputs full of
// zeros, −0, ±Inf and NaN.
func TestBlockedKernelsMatchUnblocked(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r := rng.New(311)
	var shapes [][3]int
	for _, m := range []int{1, 3, 70} {
		for _, k := range []int{1, 2, 3, 5, 133} {
			for _, n := range []int{1, 2, 3, 4, 6, 9, 259} {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := specialMatrix(r, m, k)  // NN, NT left operand
		b := specialMatrix(r, k, n)  // NN right operand
		bt := specialMatrix(r, n, k) // NT right operand
		at := specialMatrix(r, k, m) // TN left operand
		base := specialMatrix(r, m, n)
		baseTN := specialMatrix(r, m, n)
		for _, e := range []Exec{Serial, Parallel} {
			name := fmt.Sprintf("%dx%dx%d/exec%d", m, k, n, e)

			want := base.Clone()
			nnRef(want, a, b)
			got := base.Clone()
			e.MatMulAddInto(got, a, b)
			sameBits(t, name+"/NN add", got.Data, want.Data)

			want = NewMatrix(m, n)
			nnRef(want, a, b)
			got = base.Clone()
			e.MatMulInto(got, a, b)
			sameBits(t, name+"/NN", got.Data, want.Data)
			if e == Parallel {
				sameBits(t, name+"/NN naive", MatMul(a, b).Data, matMulNaive(a, b).Data)
			}

			for _, acc := range []bool{false, true} {
				want = base.Clone()
				ntRef(want, a, bt, acc)
				got = base.Clone()
				if acc {
					e.MatMulNTAddInto(got, a, bt)
				} else {
					e.MatMulNTInto(got, a, bt)
				}
				sameBits(t, fmt.Sprintf("%s/NT acc=%v", name, acc), got.Data, want.Data)

				want = baseTN.Clone()
				tnRef(want, at, b, acc)
				got = baseTN.Clone()
				if acc {
					e.MatMulTNAddInto(got, at, b)
				} else {
					e.MatMulTNInto(got, at, b)
				}
				sameBits(t, fmt.Sprintf("%s/TN acc=%v", name, acc), got.Data, want.Data)
			}
		}
	}
}

// TestSerialKernelsAllocateNothing pins the Serial path at zero
// allocations, parallel-sized work included: a client replica runs
// every kernel this way.
func TestSerialKernelsAllocateNothing(t *testing.T) {
	r := rng.New(312)
	a, b, bt := randMatrix(r, 64, 72), randMatrix(r, 72, 96), randMatrix(r, 96, 72)
	dst, dstT := NewMatrix(64, 96), NewMatrix(72, 96)
	run := func() {
		Serial.MatMulAddInto(dst, a, b)
		Serial.MatMulNTInto(dst, a, bt)
		Serial.MatMulTNAddInto(dstT, a, dst)
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("Serial kernels allocate %.0f times per run", allocs)
	}
}
