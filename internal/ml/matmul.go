package ml

import "trimgrad/internal/par"

// Register-blocked, pool-parallel dense-layer kernels. The training loop's
// hot path is three matmul-shaped loops (forward y = xW + b, backward
// input gx = gy·Wᵀ, backward weights dW += xᵀ·gy); the naive triple
// loops they replace dominated epoch time and kept trainsim experiments
// from measuring the compression algorithms.
//
// Determinism is a hard invariant here (seed → byte-identical telemetry,
// per the chaos matrix): every float32 accumulator must see its
// contributions in the same order at every worker count. The kernels
// guarantee that structurally —
//
//   - each output row (a sample's activations, a weight row's gradients)
//     is computed by exactly one worker, claimed in fixed index order;
//   - within a row, every accumulator receives its terms in the plain
//     ascending loop's order, one separately rounded float32(a*b) product
//     at a time (the conversion forbids FMA fusion, per the Go spec).
//     Blocking only changes how many terms or accumulators one pass of
//     the inner loop handles, never which terms an accumulator sees or in
//     what order.
//
// So results are bit-identical to the plain serial triple loops for every
// worker count, which matmul_test.go pins against a reference
// implementation and across worker counts under -race.

// workerOverride, when nonzero, fixes the worker count of the ml
// kernels; zero delegates to the par.Default pool size. Tests and
// benchmarks use it to pin serial vs parallel execution.
var workerOverride int

// SetWorkers overrides the worker count used by the dense-layer kernels:
// n <= 0 restores the default (the par pool size, GOMAXPROCS). It is not
// safe to call concurrently with training; results are bit-identical at
// every setting, so it only changes speed.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerOverride = n
}

// mlWorkers returns the active kernel worker count.
func mlWorkers() int { return workerOverride }

// rowAdder adds scaled rows into y, y[j] += a·r[j], in the order they are
// pushed. It holds up to four pending rows and applies them in one pass,
// so each y[j] is loaded and stored once per four terms and the running
// sum stays in a register in between. Terms are still added one at a
// time in push order, so the result equals pushing each row through its
// own pass.
type rowAdder struct {
	y []float32
	a [4]float32
	r [4][]float32
	n int
}

// push queues a·r for addition into y; r must be at least len(y) long.
func (q *rowAdder) push(a float32, r []float32) {
	q.a[q.n], q.r[q.n] = a, r
	q.n++
	if q.n == len(q.a) {
		addRows4(q.y, q.a[0], q.a[1], q.a[2], q.a[3], q.r[0], q.r[1], q.r[2], q.r[3])
		q.n = 0
	}
}

// flush applies the rows still pending, one pass each.
func (q *rowAdder) flush() {
	y := q.y
	for k := 0; k < q.n; k++ {
		a, r := q.a[k], q.r[k][:len(y)]
		for j := range y {
			y[j] += float32(a * r[j])
		}
	}
	q.n = 0
}

// addRows4 computes y[j] = (((y[j] + a0·r0[j]) + a1·r1[j]) + a2·r2[j]) +
// a3·r3[j] with every product rounded to float32 on its own.
func addRows4(y []float32, a0, a1, a2, a3 float32, r0, r1, r2, r3 []float32) {
	r0, r1, r2, r3 = r0[:len(y)], r1[:len(y)], r2[:len(y)], r3[:len(y)]
	for j, acc := range y {
		acc += float32(a0 * r0[j])
		acc += float32(a1 * r1[j])
		acc += float32(a2 * r2[j])
		acc += float32(a3 * r3[j])
		y[j] = acc
	}
}

// denseForward computes out[s] = x[s]·W + b for every sample, one sample
// per worker. W is row-major In×Out. Zero inputs contribute no term: the
// nonzero x[s][i] are compacted in ascending i and their W rows added four
// per pass.
func denseForward(out, x [][]float32, w, b []float32, outDim int) {
	par.Default.ForEach(len(x), mlWorkers(), func(s int) {
		q := rowAdder{y: out[s]}
		copy(q.y, b)
		for i, xi := range x[s] {
			if xi != 0 {
				q.push(xi, w[i*outDim:(i+1)*outDim])
			}
		}
		q.flush()
	})
}

// denseBackwardInput computes gradIn[s] = gradOut[s]·Wᵀ for every
// sample, one sample per worker. Each pass runs four independent dot
// products (four W rows against one gradOut row), so four add chains
// overlap instead of one running at the adder's latency; each chain still
// sums its terms in ascending j.
func denseBackwardInput(gradIn, gradOut [][]float32, w []float32, outDim int) {
	par.Default.ForEach(len(gradOut), mlWorkers(), func(s int) {
		gy := gradOut[s][:outDim]
		gx := gradIn[s]
		i := 0
		for ; i+4 <= len(gx); i += 4 {
			w0 := w[i*outDim : (i+1)*outDim][:len(gy)]
			w1 := w[(i+1)*outDim : (i+2)*outDim][:len(gy)]
			w2 := w[(i+2)*outDim : (i+3)*outDim][:len(gy)]
			w3 := w[(i+3)*outDim : (i+4)*outDim][:len(gy)]
			var a0, a1, a2, a3 float32
			for j, g := range gy {
				a0 += float32(g * w0[j])
				a1 += float32(g * w1[j])
				a2 += float32(g * w2[j])
				a3 += float32(g * w3[j])
			}
			gx[i], gx[i+1], gx[i+2], gx[i+3] = a0, a1, a2, a3
		}
		for ; i < len(gx); i++ {
			wRow := w[i*outDim : (i+1)*outDim][:len(gy)]
			var acc float32
			for j, g := range gy {
				acc += float32(g * wRow[j])
			}
			gx[i] = acc
		}
	})
}

// denseBackwardWeights accumulates dW += xᵀ·gradOut, one weight row
// (input index i) per worker. For a fixed (i, j) the contributions
// arrive in ascending sample order — the same order as the serial
// (s, i, j) loop, since each sample adds exactly one term per cell — so
// the accumulated float32 is bit-identical to the serial kernel's. The
// samples with x[s][i] != 0 are compacted and their gradOut rows added
// four per pass.
func denseBackwardWeights(dw []float32, x, gradOut [][]float32, outDim int) {
	inDim := len(dw) / outDim
	par.Default.ForEach(inDim, mlWorkers(), func(i int) {
		q := rowAdder{y: dw[i*outDim : (i+1)*outDim]}
		for s, gy := range gradOut {
			if xi := x[s][i]; xi != 0 {
				q.push(xi, gy)
			}
		}
		q.flush()
	})
}

// denseBackwardBias accumulates db += Σ_s gradOut[s]. Out is small (a
// few hundred floats), so this stays serial; order matches the serial
// kernel's sample-major accumulation.
func denseBackwardBias(db []float32, gradOut [][]float32) {
	for _, gy := range gradOut {
		for j, g := range gy {
			db[j] += g
		}
	}
}
