// Package fwht implements the fast Walsh-Hadamard transform and the
// Randomized Hadamard Transform (RHT) used by the paper's DRIVE-style 1-bit
// gradient encoding (§3.2).
//
// The RHT of a row x is R_s(x) = (1/√n)·H·D_s·x, where H is the n×n
// Hadamard matrix (n a power of two) and D_s is a random ±1 diagonal derived
// from a shared seed s. Because (1/√n)·H is orthogonal and D_s is its own
// inverse, the transform is an isometry: it preserves the L2 norm and is
// exactly invertible. After rotation the coordinates are approximately
// i.i.d. Gaussian with zero mean, which is what makes the 1-bit sign head
// an effective standalone compression.
//
// The paper splits each collective-communication blob into rows of
// 2^15 = 32768 entries so each row fits in GPU L1 shared memory; DefaultRowSize
// mirrors that constant and SplitRows implements the same padding/split.
package fwht

import (
	"math"

	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

// DefaultRowSize is the row length the paper uses for per-row RHT (2^15).
const DefaultRowSize = 1 << 15

// Transform applies the (unnormalized) Walsh-Hadamard transform to v in
// place. len(v) must be a power of two; Transform panics otherwise.
// Applying Transform twice multiplies v by len(v).
//
// The butterfly stages h = 1, 2, 4, … run two at a time: one pass loads
// v[j], v[j+h], v[j+2h], v[j+3h], applies stage h's two butterflies and
// then stage 2h's two, and stores the four results, halving the passes
// over a row that does not fit in L1. Every butterfly still computes the
// same x+y and x−y from the same operands as the one-stage-per-pass loop,
// so the output is bit-identical to it (pinned in fwht_test.go).
func Transform(v []float32) {
	n := len(v)
	if !vecmath.IsPow2(n) {
		panic("fwht: length is not a power of two")
	}
	h := 1
	if n >= 4 {
		// Stages 1 and 2 touch only four adjacent entries: no inner loop.
		for i := 0; i+4 <= n; i += 4 {
			q := v[i : i+4 : i+4]
			a, b := q[0]+q[1], q[0]-q[1]
			c, d := q[2]+q[3], q[2]-q[3]
			q[0], q[1], q[2], q[3] = a+c, b+d, a-c, b-d
		}
		h = 4
	}
	for ; 4*h <= n; h *= 4 {
		for i := 0; i < n; i += 4 * h {
			v0 := v[i : i+h]
			v1 := v[i+h : i+2*h][:len(v0)]
			v2 := v[i+2*h : i+3*h][:len(v0)]
			v3 := v[i+3*h : i+4*h][:len(v0)]
			for j := range v0 {
				a, b := v0[j]+v1[j], v0[j]-v1[j]
				c, d := v2[j]+v3[j], v2[j]-v3[j]
				v0[j], v1[j], v2[j], v3[j] = a+c, b+d, a-c, b-d
			}
		}
	}
	if h < n {
		// An odd number of stages leaves the last one, h = n/2.
		lo, hi := v[:h], v[h:][:h]
		for j, x := range lo {
			y := hi[j]
			lo[j], hi[j] = x+y, x-y
		}
	}
}

// Normalized applies the orthonormal Walsh-Hadamard transform H/√n to v in
// place. Applying it twice is the identity (up to floating-point error).
func Normalized(v []float32) {
	Transform(v)
	vecmath.Scale(v, float32(1/math.Sqrt(float64(len(v)))))
}

// applySignDiagonal multiplies v element-wise by the ±1 diagonal derived
// from seed: bit=1 means negate. The same seed always yields the same
// diagonal, which is how sender and receiver share D_s.
func applySignDiagonal(v []float32, seed uint64) {
	r := xrand.New(seed)
	n := len(v)
	i := 0
	for i < n {
		w := r.Uint64()
		m := 64
		if n-i < m {
			m = n - i
		}
		// Negation flips the sign bit; doing it with an XOR keeps the
		// loop free of the data-dependent branch a random diagonal would
		// mispredict half the time.
		for b, x := range v[i : i+m] {
			v[i+b] = math.Float32frombits(math.Float32bits(x) ^ uint32(w>>uint(b)&1)<<31)
		}
		i += m
	}
}

// RandomRotate applies the RHT R_s(v) = (1/√n)·H·D_s·v in place.
// len(v) must be a power of two.
func RandomRotate(v []float32, seed uint64) {
	applySignDiagonal(v, seed)
	Normalized(v)
}

// InverseRandomRotate undoes RandomRotate with the same seed:
// v = D_s·(H/√n)·y.
func InverseRandomRotate(v []float32, seed uint64) {
	Normalized(v)
	applySignDiagonal(v, seed)
}

// SplitRows splits v into rows of rowSize entries, zero-padding the final
// row. rowSize must be a positive power of two. Rows are fresh allocations;
// they do not alias v.
func SplitRows(v []float32, rowSize int) [][]float32 {
	if len(v) == 0 {
		if !vecmath.IsPow2(rowSize) {
			panic("fwht: rowSize is not a power of two")
		}
		return nil
	}
	nRows := (len(v) + rowSize - 1) / rowSize
	return SplitRowsBacking(v, rowSize, make([]float32, nRows*rowSize))
}

// SplitRowsBacking is SplitRows with a caller-provided backing buffer
// (e.g. a par scratch arena), letting steady-state encode calls avoid
// the per-message allocation. backing must hold at least
// ceil(len(v)/rowSize)·rowSize entries; it is fully overwritten — v is
// copied in and the padding tail is explicitly zeroed, so a dirty
// recycled buffer is safe. The returned rows alias backing.
func SplitRowsBacking(v []float32, rowSize int, backing []float32) [][]float32 {
	if !vecmath.IsPow2(rowSize) {
		panic("fwht: rowSize is not a power of two")
	}
	if len(v) == 0 {
		return nil
	}
	nRows := (len(v) + rowSize - 1) / rowSize
	need := nRows * rowSize
	if len(backing) < need {
		panic("fwht: SplitRowsBacking buffer too small")
	}
	backing = backing[:need]
	copy(backing, v)
	for i := len(v); i < need; i++ {
		backing[i] = 0
	}
	rows := make([][]float32, nRows)
	for i := range rows {
		rows[i] = backing[i*rowSize : (i+1)*rowSize]
	}
	return rows
}

// JoinRows concatenates rows and truncates to length n, reversing SplitRows.
func JoinRows(rows [][]float32, n int) []float32 {
	out := make([]float32, 0, n)
	for _, r := range rows {
		out = append(out, r...)
	}
	if len(out) < n {
		panic("fwht: JoinRows has fewer elements than requested")
	}
	return out[:n]
}

// UnbiasedScale computes the DRIVE scale factor f = ‖V‖²₂ / ‖R(V)‖₁ used to
// decode sign bits without bias: E[IRHT(f·sign(R(V)))] = V. original is the
// pre-rotation row, rotated the post-rotation row. Returns 0 for an
// all-zero row.
func UnbiasedScale(original, rotated []float32) float64 {
	l1 := vecmath.L1Norm(rotated)
	if l1 == 0 {
		return 0
	}
	return vecmath.L2NormSquared(original) / l1
}
