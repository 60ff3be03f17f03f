package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// Cache-blocked, goroutine-parallel GEMM kernels.
//
// Every kernel partitions the OUTPUT rows into contiguous chunks, one
// chunk per worker, and accumulates each output element in a fixed
// k-increasing order. A given output element is therefore produced by
// exactly one goroutine with exactly one summation order, so results
// are bit-identical at any parallelism level — the property the
// seeded-run determinism suites (fl, unlearn, faults) rely on.
//
// The *Into variants write through caller-owned memory and allocate
// nothing, which is what lets the nn layers and the recovery loop run
// allocation-free in steady state. dst must not alias a or b.

const (
	// gemmBlockK bounds how many rows of b stay hot in cache while a
	// panel of output is accumulated.
	gemmBlockK = 128
	// gemmBlockJ bounds the width of the output panel accumulated per
	// pass, keeping the dst row segment plus the b panel L2-resident.
	gemmBlockJ = 256
	// gemmMinParallelFlops is the total multiply-add count below which
	// spawning goroutines costs more than it saves.
	gemmMinParallelFlops = 1 << 15
)

// serialRows reports whether a row-partitioned kernel should run on
// the calling goroutine: a single P, a single row, or too little work
// to amortise goroutine startup. Each kernel checks this BEFORE
// building the closure for parallelRows, so the serial path allocates
// nothing (a closure passed near a go statement always escapes).
func serialRows(rows, flopsPerRow int) bool {
	return runtime.GOMAXPROCS(0) <= 1 || rows <= 1 ||
		rows*flopsPerRow < gemmMinParallelFlops
}

// parallelRows splits [0, rows) into contiguous chunks, one goroutine
// each. fn must touch only output rows in [lo, hi), which makes the
// partitioning invisible in the results. Callers gate on serialRows
// first.
func parallelRows(rows int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func mustShape(op string, gotR, gotC, wantR, wantC int) {
	if gotR != wantR || gotC != wantC {
		panic(fmt.Sprintf("tensor.%s: dst is %dx%d, want %dx%d", op, gotR, gotC, wantR, wantC))
	}
}

// Exec selects where a GEMM kernel computes. Parallel, the zero
// value, splits the output rows across GOMAXPROCS goroutines once the
// work amortises their startup. Serial always computes on the calling
// goroutine: it is for callers that already run one kernel stream per
// core, such as a federated client's model replica under the round
// engine's worker pool, where a second level of goroutines only
// oversubscribes the cores. Both produce identical bits.
type Exec uint8

const (
	// Parallel fans large kernels out over GOMAXPROCS goroutines.
	Parallel Exec = iota
	// Serial computes every kernel on the calling goroutine.
	Serial
)

func (e Exec) serial(rows, flopsPerRow int) bool {
	return e == Serial || serialRows(rows, flopsPerRow)
}

// MatMul returns a*b. It panics on an inner-dimension mismatch.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor.MatMul: inner dimension mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	Parallel.gemmNN(out, a, b)
	return out
}

// MatMulInto sets dst = a*b, reusing dst's backing array. dst must
// already have shape a.Rows × b.Cols and must not alias a or b.
func MatMulInto(dst, a, b *Matrix) { Parallel.MatMulInto(dst, a, b) }

// MatMulInto is the package-level MatMulInto run under e.
func (e Exec) MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor.MatMulInto: inner dimension mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("MatMulInto", dst.Rows, dst.Cols, a.Rows, b.Cols)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	e.gemmNN(dst, a, b)
}

// MatMulAddInto sets dst += a*b. Accumulation starts from dst's
// current contents (e.g. a bias row), in k-increasing term order.
func MatMulAddInto(dst, a, b *Matrix) { Parallel.MatMulAddInto(dst, a, b) }

// MatMulAddInto is the package-level MatMulAddInto run under e.
func (e Exec) MatMulAddInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor.MatMulAddInto: inner dimension mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("MatMulAddInto", dst.Rows, dst.Cols, a.Rows, b.Cols)
	e.gemmNN(dst, a, b)
}

// gemmNN accumulates dst += a*b with k- and j-blocking. Per output
// element the term order is strictly k-increasing (blocks are visited
// in order and j-blocking does not touch it), so the result is
// independent of both blocking and row partitioning.
func (e Exec) gemmNN(dst, a, b *Matrix) {
	k, n := a.Cols, b.Cols
	if e.serial(a.Rows, 2*k*n) {
		gemmNNRange(dst, a, b, 0, a.Rows)
		return
	}
	// The closure captures value copies of the headers: capturing the
	// incoming pointers would force every caller-built Matrix header to
	// the heap, even on the serial path.
	dd, aa, bb := *dst, *a, *b
	parallelRows(a.Rows, func(lo, hi int) { gemmNNRange(&dd, &aa, &bb, lo, hi) })
}

// gemmNNRange accumulates output rows [lo, hi) of dst += a*b. Within a
// k-block each row's non-zero terms go through an axpyQueue, which
// adds them four at a time in k order.
func gemmNNRange(dst, a, b *Matrix, lo, hi int) {
	k, n := a.Cols, b.Cols
	for kb := 0; kb < k; kb += gemmBlockK {
		kEnd := min(kb+gemmBlockK, k)
		for jb := 0; jb < n; jb += gemmBlockJ {
			jEnd := min(jb+gemmBlockJ, n)
			for i := lo; i < hi; i++ {
				q := axpyQueue{out: dst.Data[i*n+jb : i*n+jEnd]}
				for kk, av := range a.Data[i*k+kb : i*k+kEnd] {
					if av == 0 {
						continue
					}
					row := (kb + kk) * n
					q.push(av, b.Data[row+jb:row+jEnd])
				}
				q.flush()
			}
		}
	}
}

// axpyQueue adds scaled rows into one output row, out[j] += a*b[j],
// up to four rows per pass over out. Each element still receives its
// terms one rounded add at a time in push order, so the bits match
// adding the rows one by one; the fused pass just loads and stores
// out once per four terms instead of once per term.
type axpyQueue struct {
	out []float64
	n   int
	a   [4]float64
	b   [4][]float64
}

// push queues out += av*brow, flushing when four rows are waiting.
func (q *axpyQueue) push(av float64, brow []float64) {
	q.a[q.n], q.b[q.n] = av, brow
	q.n++
	if q.n == 4 {
		axpy4(q.out, q.a[0], q.a[1], q.a[2], q.a[3], q.b[0], q.b[1], q.b[2], q.b[3])
		q.n = 0
	}
}

// flush applies the queued rows, in push order.
func (q *axpyQueue) flush() {
	switch q.n {
	case 3:
		axpy3(q.out, q.a[0], q.a[1], q.a[2], q.b[0], q.b[1], q.b[2])
	case 2:
		axpy2(q.out, q.a[0], q.a[1], q.b[0], q.b[1])
	case 1:
		axpy1(q.out, q.a[0], q.b[0])
	}
	q.n = 0
}

func axpy4(out []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64) {
	n := len(out)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for j := 0; j < n; j++ {
		o := out[j]
		o += a0 * b0[j]
		o += a1 * b1[j]
		o += a2 * b2[j]
		o += a3 * b3[j]
		out[j] = o
	}
}

func axpy3(out []float64, a0, a1, a2 float64, b0, b1, b2 []float64) {
	n := len(out)
	b0, b1, b2 = b0[:n], b1[:n], b2[:n]
	for j := 0; j < n; j++ {
		o := out[j]
		o += a0 * b0[j]
		o += a1 * b1[j]
		o += a2 * b2[j]
		out[j] = o
	}
}

func axpy2(out []float64, a0, a1 float64, b0, b1 []float64) {
	n := len(out)
	b0, b1 = b0[:n], b1[:n]
	for j := 0; j < n; j++ {
		o := out[j]
		o += a0 * b0[j]
		o += a1 * b1[j]
		out[j] = o
	}
}

func axpy1(out []float64, a0 float64, b0 []float64) {
	n := len(out)
	b0 = b0[:n]
	for j := 0; j < n; j++ {
		out[j] += a0 * b0[j]
	}
}

// MatMulNTInto sets dst = a*bᵀ (b stored row-major, not transposed in
// memory). dst must have shape a.Rows × b.Rows.
func MatMulNTInto(dst, a, b *Matrix) { Parallel.MatMulNTInto(dst, a, b) }

// MatMulNTInto is the package-level MatMulNTInto run under e.
func (e Exec) MatMulNTInto(dst, a, b *Matrix) {
	e.gemmNTChecked("MatMulNTInto", dst, a, b, false)
}

// MatMulNTAddInto sets dst += a*bᵀ, accumulating from dst's current
// contents.
func MatMulNTAddInto(dst, a, b *Matrix) { Parallel.MatMulNTAddInto(dst, a, b) }

// MatMulNTAddInto is the package-level MatMulNTAddInto run under e.
func (e Exec) MatMulNTAddInto(dst, a, b *Matrix) {
	e.gemmNTChecked("MatMulNTAddInto", dst, a, b, true)
}

func (e Exec) gemmNTChecked(op string, dst, a, b *Matrix, acc bool) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor.%s: inner dimension mismatch %dx%d * (%dx%d)^T",
			op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape(op, dst.Rows, dst.Cols, a.Rows, b.Rows)
	if e.serial(a.Rows, 2*a.Cols*b.Rows) {
		gemmNTRange(dst, a, b, acc, 0, a.Rows)
		return
	}
	dd, aa, bb := *dst, *a, *b
	parallelRows(a.Rows, func(lo, hi int) { gemmNTRange(&dd, &aa, &bb, acc, lo, hi) })
}

// gemmNTRange computes output rows [lo, hi) of dst = (dst +) a*bᵀ.
// Each output element is a dot product of two rows; four columns are
// computed per pass over the a row, each in its own k-increasing
// accumulator, so the a row is loaded once per four outputs.
func gemmNTRange(dst, a, b *Matrix, acc bool, lo, hi int) {
	k, n := a.Cols, b.Rows
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*n : (i+1)*n]
		j := 0
		for ; j+3 < n; j += 4 {
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			b3 := b.Data[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			if acc {
				s0, s1, s2, s3 = orow[j], orow[j+1], orow[j+2], orow[j+3]
			}
			for kk, av := range arow {
				s0 += av * b0[kk]
				s1 += av * b1[kk]
				s2 += av * b2[kk]
				s3 += av * b3[kk]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			s := 0.0
			if acc {
				s = orow[j]
			}
			for kk, av := range arow {
				s += av * brow[kk]
			}
			orow[j] = s
		}
	}
}

// MatMulTNInto sets dst = aᵀ*b (a stored row-major). dst must have
// shape a.Cols × b.Cols.
func MatMulTNInto(dst, a, b *Matrix) { Parallel.MatMulTNInto(dst, a, b) }

// MatMulTNInto is the package-level MatMulTNInto run under e.
func (e Exec) MatMulTNInto(dst, a, b *Matrix) {
	e.gemmTNChecked("MatMulTNInto", dst, a, b, false)
}

// MatMulTNAddInto sets dst += aᵀ*b, accumulating from dst's current
// contents. The inner sum runs over a's rows in increasing order, which
// is what keeps batched gradient accumulation bit-identical to the
// per-sample loop it replaces.
func MatMulTNAddInto(dst, a, b *Matrix) { Parallel.MatMulTNAddInto(dst, a, b) }

// MatMulTNAddInto is the package-level MatMulTNAddInto run under e.
func (e Exec) MatMulTNAddInto(dst, a, b *Matrix) {
	e.gemmTNChecked("MatMulTNAddInto", dst, a, b, true)
}

func (e Exec) gemmTNChecked(op string, dst, a, b *Matrix, acc bool) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor.%s: inner dimension mismatch (%dx%d)^T * %dx%d",
			op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape(op, dst.Rows, dst.Cols, a.Cols, b.Cols)
	if e.serial(a.Cols, 2*a.Rows*b.Cols) {
		gemmTNRange(dst, a, b, acc, 0, a.Cols)
		return
	}
	dd, aa, bb := *dst, *a, *b
	parallelRows(a.Cols, func(lo, hi int) { gemmTNRange(&dd, &aa, &bb, acc, lo, hi) })
}

// gemmTNRange computes output rows [lo, hi) of dst = (dst +) aᵀ*b.
// The inner sum runs over a's rows in increasing order per element,
// queued four non-zero terms at a time like gemmNNRange.
func gemmTNRange(dst, a, b *Matrix, acc bool, lo, hi int) {
	k, n, ac := a.Rows, b.Cols, a.Cols
	for i := lo; i < hi; i++ {
		orow := dst.Data[i*n : (i+1)*n]
		if !acc {
			for j := range orow {
				orow[j] = 0
			}
		}
		q := axpyQueue{out: orow}
		for kk := 0; kk < k; kk++ {
			av := a.Data[kk*ac+i]
			if av == 0 {
				continue
			}
			q.push(av, b.Data[kk*n:(kk+1)*n])
		}
		q.flush()
	}
}

// MulVecInto sets dst = m*v without allocating. dst must have length
// m.Rows and must not alias v.
func (m *Matrix) MulVecInto(dst, v Vec) {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("tensor.MulVecInto: dimension mismatch %dx%d * %d",
			m.Rows, m.Cols, len(v)))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor.MulVecInto: dst length %d, want %d", len(dst), m.Rows))
	}
	if serialRows(m.Rows, 2*m.Cols) {
		m.mulVecRange(dst, v, 0, m.Rows)
		return
	}
	mm := *m
	parallelRows(m.Rows, func(lo, hi int) { mm.mulVecRange(dst, v, lo, hi) })
}

// mulVecRange computes dst[lo:hi] of the matrix-vector product.
func (m *Matrix) mulVecRange(dst, v Vec, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		dst[i] = s
	}
}

// matMulNaive is the original single-threaded triple loop, kept as the
// reference implementation for the kernel equivalence tests.
func matMulNaive(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor.MatMul: inner dimension mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}
