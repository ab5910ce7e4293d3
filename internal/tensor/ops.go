package tensor

import (
	"fmt"
	"math"
)

// AddInPlace sets t += u.
func (t *Tensor) AddInPlace(u *Tensor) {
	checkSameShape("AddInPlace", t, u)
	for i := range t.Data {
		t.Data[i] += u.Data[i]
	}
}

// SubInPlace sets t -= u.
func (t *Tensor) SubInPlace(u *Tensor) {
	checkSameShape("SubInPlace", t, u)
	for i := range t.Data {
		t.Data[i] -= u.Data[i]
	}
}

// Scale multiplies every element by a in place.
func (t *Tensor) Scale(a float64) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// Axpy sets t += a*u (BLAS axpy).
func (t *Tensor) Axpy(a float64, u *Tensor) {
	checkSameShape("Axpy", t, u)
	for i := range t.Data {
		t.Data[i] += a * u.Data[i]
	}
}

// Lerp sets t = alpha*t + (1-alpha)*u. This is the VC-ASGD server update
// (Equation 1 of the paper) applied to a raw vector.
func (t *Tensor) Lerp(alpha float64, u *Tensor) {
	checkSameShape("Lerp", t, u)
	for i := range t.Data {
		t.Data[i] = alpha*t.Data[i] + (1-alpha)*u.Data[i]
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on an empty tensor.
func (t *Tensor) Min() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element. It panics on an
// empty tensor.
func (t *Tensor) ArgMax() int {
	if len(t.Data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.Data[0], 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Dot returns the inner product of t and u viewed as flat vectors.
func Dot(t, u *Tensor) float64 {
	checkSameShape("Dot", t, u)
	s := 0.0
	for i := range t.Data {
		s += t.Data[i] * u.Data[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of the tensor viewed as a flat vector.
func (t *Tensor) Norm2() float64 {
	return math.Sqrt(Dot(t, t))
}

// SumRowsInto reduces a [rows, cols] matrix along rows into caller-owned
// dst (shape [cols]), as for bias gradients: dst is zeroed, then rows
// accumulate in ascending order. Returns dst.
func SumRowsInto(dst, t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: SumRows wants rank 2, got %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	if dst.Size() != cols {
		panic(fmt.Sprintf("tensor: SumRowsInto dst size %d, want %d", dst.Size(), cols))
	}
	zeroFloats(dst.Data)
	for r := 0; r < rows; r++ {
		row := t.Data[r*cols : (r+1)*cols]
		for c, v := range row {
			dst.Data[c] += v
		}
	}
	return dst
}

// AddInto computes dst = t + u elementwise into caller-owned dst,
// overwriting every element. dst may alias t or u. Returns dst.
func AddInto(dst, t, u *Tensor) *Tensor {
	checkSameShape("Add", t, u)
	if dst.Size() != t.Size() {
		panic(fmt.Sprintf("tensor: AddInto dst size %d, want %d", dst.Size(), t.Size()))
	}
	for i := range t.Data {
		dst.Data[i] = t.Data[i] + u.Data[i]
	}
	return dst
}

// EnsureShape returns a tensor with exactly the given shape, reusing
// t's backing storage when it has the capacity (t itself when the shape
// already matches) and allocating otherwise. Reused contents are
// unspecified — callers must overwrite or Zero before accumulating.
// This is the scratch-arena primitive the nn layers use to stop
// allocating activations per batch.
func EnsureShape(t *Tensor, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if t == nil || cap(t.Data) < n {
		return New(shape...)
	}
	if len(t.shape) == len(shape) {
		match := true
		for i, d := range shape {
			if t.shape[i] != d {
				match = false
				break
			}
		}
		if match && len(t.Data) == n {
			return t
		}
	}
	return FromSlice(t.Data[:n], shape...)
}

// AddRowVector adds vector v (shape [cols]) to every row of the
// [rows, cols] matrix t in place. Used for bias addition.
func (t *Tensor) AddRowVector(v *Tensor) {
	if t.Rank() != 2 || v.Rank() != 1 || t.shape[1] != v.shape[0] {
		panic(fmt.Sprintf("tensor: AddRowVector shapes %v and %v incompatible", t.shape, v.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	for r := 0; r < rows; r++ {
		row := t.Data[r*cols : (r+1)*cols]
		for c := range row {
			row[c] += v.Data[c]
		}
	}
}

func checkSameShape(op string, t, u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, u.shape))
	}
}
