package ml

import (
	"fmt"
	"math"
	"testing"

	"trimgrad/internal/xrand"
)

// matmulWorkerCounts is the cross-worker-count equivalence matrix the
// perf substrate is tested against (serial, under-, at-, and
// over-subscribed relative to typical GOMAXPROCS).
var matmulWorkerCounts = []int{1, 2, 3, 8}

func randomBatch(rng *xrand.Rand, n, dim int, sparsify bool) [][]float32 {
	x := make([][]float32, n)
	for s := range x {
		row := make([]float32, dim)
		for i := range row {
			row[i] = float32(rng.NormFloat64())
			// Exercise the xi == 0 skip path the way ReLU outputs do.
			if sparsify && rng.Float64() < 0.3 {
				row[i] = 0
			}
		}
		x[s] = row
	}
	return x
}

func bitsEqual(t *testing.T, label string, workers int, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s workers=%d: length %d != %d", label, workers, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s workers=%d: [%d] = %x, want %x (%g vs %g)",
				label, workers, i, math.Float32bits(got[i]), math.Float32bits(want[i]), got[i], want[i])
		}
	}
}

// TestDenseForwardBackwardBitIdenticalAcrossWorkers: one training step's
// forward activations, input gradients, and parameter gradients must be
// byte-identical at every worker count — determinism under parallelism
// is the perf substrate's hard invariant.
func TestDenseForwardBackwardBitIdenticalAcrossWorkers(t *testing.T) {
	defer SetWorkers(0)
	const batch, in, out = 37, 65, 50 // odd sizes leave remainders after every 4-wide block
	rng := xrand.New(11)
	x := randomBatch(rng, batch, in, true)
	gy := randomBatch(rng, batch, out, false)

	type result struct {
		fwd, gx []float32
		dw, db  []float32
	}
	run := func(workers int) result {
		SetWorkers(workers)
		d := NewDense(in, out)
		params := make([]float32, d.ParamCount())
		grads := make([]float32, d.ParamCount())
		d.bind(params, grads)
		d.initialize(xrand.New(5))
		fwd := d.Forward(x, true)
		gradIn := d.Backward(gy)
		res := result{dw: append([]float32(nil), d.dw...), db: append([]float32(nil), d.db...)}
		for _, row := range fwd {
			res.fwd = append(res.fwd, row...)
		}
		for _, row := range gradIn {
			res.gx = append(res.gx, row...)
		}
		return res
	}

	ref := run(1)
	for _, workers := range matmulWorkerCounts[1:] {
		got := run(workers)
		bitsEqual(t, "forward", workers, got.fwd, ref.fwd)
		bitsEqual(t, "gradIn", workers, got.gx, ref.gx)
		bitsEqual(t, "dW", workers, got.dw, ref.dw)
		bitsEqual(t, "db", workers, got.db, ref.db)
	}
}

// TestTrainingStepBitIdenticalAcrossWorkers runs whole SGD steps through
// an MLP and requires the resulting parameters to match bit for bit:
// the end-to-end guarantee trainsim's telemetry determinism rests on.
func TestTrainingStepBitIdenticalAcrossWorkers(t *testing.T) {
	defer SetWorkers(0)
	train, _ := Synthetic(SyntheticConfig{Classes: 10, Dim: 24, Train: 96, Test: 8, Seed: 9})

	run := func(workers int) []float32 {
		SetWorkers(workers)
		m := NewMLP(3, train.Dim, 48, train.Classes)
		opt := NewSGD(0.05, 0.9)
		xs, ys := train.Batches(32, 77)
		for r := range xs {
			m.ZeroGrad()
			logits := m.Forward(xs[r], true)
			_, dLogits := SoftmaxCrossEntropy(logits, ys[r])
			m.Backward(dLogits)
			opt.Step(m.Params(), m.Grads())
		}
		return append([]float32(nil), m.Params()...)
	}

	ref := run(1)
	for _, workers := range matmulWorkerCounts[1:] {
		bitsEqual(t, "params", workers, run(workers), ref)
	}
}

// The plain serial triple loops the blocked kernels must reproduce bit for
// bit: ascending index order per accumulator, one separately rounded
// product per term, and zero inputs skipped as the kernels skip them.

func refForward(x [][]float32, w, b []float32, outDim int) [][]float32 {
	out := make([][]float32, len(x))
	for s, row := range x {
		y := append([]float32(nil), b...)
		for i, xi := range row {
			if xi == 0 {
				continue
			}
			for j := range y {
				y[j] += float32(xi * w[i*outDim+j])
			}
		}
		out[s] = y
	}
	return out
}

func refBackwardInput(gradOut [][]float32, w []float32, inDim, outDim int) [][]float32 {
	gradIn := make([][]float32, len(gradOut))
	for s, gy := range gradOut {
		gx := make([]float32, inDim)
		for i := range gx {
			var acc float32
			for j, g := range gy {
				acc += float32(g * w[i*outDim+j])
			}
			gx[i] = acc
		}
		gradIn[s] = gx
	}
	return gradIn
}

func refBackwardWeights(dw []float32, x, gradOut [][]float32, outDim int) {
	for s, gy := range gradOut {
		for i, xi := range x[s] {
			if xi == 0 {
				continue
			}
			for j, g := range gy {
				dw[i*outDim+j] += float32(xi * g)
			}
		}
	}
}

// refEqual is bitsEqual for comparisons against the reference loops: every
// non-NaN result must match bit for bit, and a NaN must meet a NaN. IEEE
// 754 does not say which operand's NaN an add propagates, and the compiler
// may commute an add's operands, so two loops adding the same terms in the
// same order can still differ in a NaN's sign or payload. Runs of the same
// kernel at different worker counts execute the same instructions and are
// held to bitsEqual.
func refEqual(t *testing.T, label string, workers int, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s workers=%d: length %d != %d", label, workers, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.IsNaN(float64(g)) && math.IsNaN(float64(w)) {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s workers=%d: [%d] = %x, want %x (%g vs %g)",
				label, workers, i, math.Float32bits(g), math.Float32bits(w), g, w)
		}
	}
}

func flatten(rows [][]float32) []float32 {
	var v []float32
	for _, r := range rows {
		v = append(v, r...)
	}
	return v
}

// specialBatch is a random batch salted with what a kernel could get
// wrong: whole zero rows, one zero column, signed zeros, ±Inf and NaN.
func specialBatch(rng *xrand.Rand, n, dim int) [][]float32 {
	x := randomBatch(rng, n, dim, true)
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	specials := []float32{0, float32(math.Copysign(0, -1)), inf, -inf, nan}
	for s, row := range x {
		switch {
		case s%5 == 1:
			clear(row) // all-zero row
		case s%5 == 3:
			row[rng.Intn(dim)] = specials[rng.Intn(len(specials))]
		}
		if dim > 1 {
			row[dim/2] = 0 // a column no sample contributes to
		}
	}
	return x
}

// TestDenseKernelsMatchTripleLoop pins each kernel against the serial
// reference over shapes whose In, Out and nonzero counts are not
// multiples of 4, a batch of 300 samples, and inputs and weights holding
// signed zeros, ±Inf and NaN.
func TestDenseKernelsMatchTripleLoop(t *testing.T) {
	defer SetWorkers(0)
	shapes := []struct{ batch, in, out int }{
		{1, 1, 1}, {2, 3, 5}, {5, 4, 4}, {7, 9, 6}, {37, 65, 50}, {300, 13, 7}, {3, 130, 257},
	}
	for _, sh := range shapes {
		rng := xrand.New(uint64(sh.batch*1000 + sh.in*10 + sh.out))
		x := specialBatch(rng, sh.batch, sh.in)
		gy := specialBatch(rng, sh.batch, sh.out)
		w := flatten(specialBatch(rng, sh.in, sh.out)) // Inf in W convicts a kernel that stops skipping zero inputs
		b := flatten(randomBatch(rng, 1, sh.out, false))
		dw0 := flatten(randomBatch(rng, sh.in, sh.out, false))

		wantFwd := flatten(refForward(x, w, b, sh.out))
		wantGx := flatten(refBackwardInput(gy, w, sh.in, sh.out))
		wantDw := append([]float32(nil), dw0...)
		refBackwardWeights(wantDw, x, gy, sh.out)

		for _, workers := range matmulWorkerCounts {
			SetWorkers(workers)
			label := func(k string) string { return fmt.Sprintf("%s %dx%dx%d", k, sh.batch, sh.in, sh.out) }
			fwd := sliceRows(sh.batch, sh.out)
			denseForward(fwd, x, w, b, sh.out)
			refEqual(t, label("forward"), workers, flatten(fwd), wantFwd)
			gx := sliceRows(sh.batch, sh.in)
			denseBackwardInput(gx, gy, w, sh.out)
			refEqual(t, label("gradIn"), workers, flatten(gx), wantGx)
			dw := append([]float32(nil), dw0...)
			denseBackwardWeights(dw, x, gy, sh.out)
			refEqual(t, label("dW"), workers, dw, wantDw)
		}
	}
}

// TestModelBackwardSkipsOnlyUnreadGradient: skipping the first layer's
// ∂L/∂input must leave every parameter gradient exactly as a backward
// pass that still computes it.
func TestModelBackwardSkipsOnlyUnreadGradient(t *testing.T) {
	train, _ := Synthetic(SyntheticConfig{Classes: 10, Dim: 24, Train: 64, Test: 8, Seed: 4})
	xs, ys := train.Batches(32, 5)
	grads := func(full bool) []float32 {
		m := NewMLP(8, train.Dim, 37, 19, train.Classes)
		for r := range xs {
			logits := m.Forward(xs[r], true)
			_, g := SoftmaxCrossEntropy(logits, ys[r])
			if full {
				for i := len(m.layers) - 1; i >= 0; i-- {
					g = m.layers[i].Backward(g)
				}
			} else {
				m.Backward(g)
			}
		}
		return append([]float32(nil), m.Grads()...)
	}
	bitsEqual(t, "grads", 0, grads(false), grads(true))
}

// TestDenseBackwardValidatesShape: a gradient batch that does not match
// the cached input panics on the caller's goroutine.
func TestDenseBackwardValidatesShape(t *testing.T) {
	d := NewDense(3, 2)
	d.bind(make([]float32, d.ParamCount()), make([]float32, d.ParamCount()))
	d.Forward([][]float32{{1, 2, 3}, {4, 5, 6}}, true)
	for _, gy := range [][][]float32{
		{{1, 2}},              // too few rows
		{{1, 2}, {1, 2, 3}},   // ragged row
		{{1, 2}, {1, 2}, {1}}, // too many rows
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Backward(%v) did not panic", gy)
				}
			}()
			d.Backward(gy)
		}()
	}
}

// BenchmarkDenseLayer measures one forward+backward pass of a
// paper-plausible layer, serial vs pooled.
func BenchmarkDenseLayer(b *testing.B) {
	defer SetWorkers(0)
	const batch, in, out = 128, 64, 128
	rng := xrand.New(4)
	x := randomBatch(rng, batch, in, true)
	gy := randomBatch(rng, batch, out, false)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			SetWorkers(bc.workers)
			d := NewDense(in, out)
			params := make([]float32, d.ParamCount())
			grads := make([]float32, d.ParamCount())
			d.bind(params, grads)
			d.initialize(xrand.New(5))
			b.SetBytes(int64(batch * in * out * 4))
			for i := 0; i < b.N; i++ {
				d.Forward(x, true)
				d.Backward(gy)
			}
		})
	}
}
