// Package gf256 implements arithmetic over the finite field GF(2^8) with the
// AES/Rijndael reducing polynomial x^8 + x^4 + x^3 + x + 1 (0x11b). It is the
// foundation for the Reed-Solomon erasure coding and Shamir secret sharing
// used by the DepSky cloud-of-clouds backend.
//
// Besides the scalar operations (Mul, Div, Inv, ...) and dense matrices, the
// package provides bulk slice kernels for the data-plane hot paths:
//
//	MulSlice(c, in, out)     // out[i] = c·in[i]
//	MulSliceXor(c, in, out)  // out[i] ^= c·in[i]
//	XorSlice(in, out)        // out[i] ^= in[i]
//
// The kernels are table-driven (see kernels.go) and dispatch at runtime to
// GFNI or AVX2 assembly on amd64; NibbleTables exposes the split low/high
// nibble product tables the SIMD implementations consume.
package gf256

import "fmt"

// polynomial is the irreducible polynomial used for reduction (0x11b without
// the leading x^8 term when working in bytes).
const polynomial = 0x1b

var (
	expTable [512]byte // exp[i] = generator^i, doubled to avoid mod 255 in Mul
	logTable [256]byte // log[exp[i]] = i
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		expTable[i] = x
		logTable[x] = byte(i)
		// multiply x by the generator 0x03 = x + 1.
		x = mulSlow(x, 3)
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
}

// mulSlow multiplies two field elements without tables (Russian peasant
// multiplication with reduction). Used only to build the tables and in tests.
func mulSlow(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		carry := a & 0x80
		a <<= 1
		if carry != 0 {
			a ^= polynomial
		}
		b >>= 1
	}
	return p
}

// Add returns a + b in GF(2^8) (which is XOR).
func Add(a, b byte) byte { return a ^ b }

// Sub returns a - b in GF(2^8) (identical to Add).
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a / b in GF(2^8). It panics if b == 0.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(logTable[a]) - int(logTable[b])
	if d < 0 {
		d += 255
	}
	return expTable[d]
}

// Inv returns the multiplicative inverse of a. It panics if a == 0.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// Pow returns a raised to the power n.
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return expTable[(int(logTable[a])*n)%255]
}

// Matrix is a dense matrix over GF(2^8), stored row-major.
type Matrix struct {
	Rows, Cols int
	Data       []byte
}

// NewMatrix allocates a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("gf256: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns a slice aliasing row r.
func (m *Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Mul returns the matrix product m × other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("gf256: dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < other.Cols; c++ {
			var acc byte
			for k := 0; k < m.Cols; k++ {
				acc ^= Mul(m.At(r, k), other.At(k, c))
			}
			out.Set(r, c, acc)
		}
	}
	return out
}

// SubMatrix returns a copy of the rows [r0,r1) and columns [c0,c1).
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	out := NewMatrix(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		for c := c0; c < c1; c++ {
			out.Set(r-r0, c-c0, m.At(r, c))
		}
	}
	return out
}

// Augment returns the matrix [m | other].
func (m *Matrix) Augment(other *Matrix) *Matrix {
	if m.Rows != other.Rows {
		panic("gf256: augment row mismatch")
	}
	out := NewMatrix(m.Rows, m.Cols+other.Cols)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r)[:m.Cols], m.Row(r))
		copy(out.Row(r)[m.Cols:], other.Row(r))
	}
	return out
}

// SwapRows exchanges rows i and j in place.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// ErrSingular is returned by Invert when the matrix has no inverse.
var ErrSingular = fmt.Errorf("gf256: matrix is singular")

// Invert returns the inverse of the square matrix m using Gauss-Jordan
// elimination over GF(2^8). It returns ErrSingular when the matrix is not
// invertible.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("gf256: cannot invert non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	work := m.Augment(Identity(n))
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		work.SwapRows(col, pivot)
		// Scale pivot row to make the pivot 1.
		inv := Inv(work.At(col, col))
		row := work.Row(col)
		for k := range row {
			row[k] = Mul(row[k], inv)
		}
		// Eliminate the column from all other rows.
		for r := 0; r < n; r++ {
			if r == col || work.At(r, col) == 0 {
				continue
			}
			factor := work.At(r, col)
			target := work.Row(r)
			for k := range target {
				target[k] ^= Mul(factor, row[k])
			}
		}
	}
	return work.SubMatrix(0, n, n, 2*n), nil
}

// Vandermonde returns the rows×cols Vandermonde matrix with element (r,c) =
// r^c (using the field exponentiation). Any k rows of this matrix are
// linearly independent as long as the row indices are distinct, which makes
// it suitable for building erasure-coding matrices.
func Vandermonde(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, Pow(byte(r), c))
		}
	}
	return m
}
