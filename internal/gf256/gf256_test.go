package gf256

import (
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	if Add(0x53, 0xCA) != 0x53^0xCA {
		t.Fatalf("Add(0x53, 0xCA) = %#x, want %#x", Add(0x53, 0xCA), 0x53^0xCA)
	}
	if Sub(0x53, 0xCA) != Add(0x53, 0xCA) {
		t.Fatal("Sub must equal Add in GF(2^8)")
	}
}

func TestMulKnownValues(t *testing.T) {
	// Classic AES example: 0x53 * 0xCA = 0x01.
	if got := Mul(0x53, 0xCA); got != 0x01 {
		t.Fatalf("Mul(0x53, 0xCA) = %#x, want 0x01", got)
	}
	if got := Mul(0x57, 0x83); got != 0xC1 {
		t.Fatalf("Mul(0x57, 0x83) = %#x, want 0xC1", got)
	}
	if Mul(0, 0x37) != 0 || Mul(0x37, 0) != 0 {
		t.Fatal("multiplication by zero must be zero")
	}
	if Mul(1, 0x9f) != 0x9f {
		t.Fatal("multiplication by one must be identity")
	}
}

func TestMulMatchesSlowMul(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), mulSlow(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestDivInvertsMul(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			p := Mul(byte(a), byte(b))
			if got := Div(p, byte(b)); got != byte(a) {
				t.Fatalf("Div(Mul(%d,%d),%d) = %d, want %d", a, b, b, got, a)
			}
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(5, 0)
}

func TestInv(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := Mul(byte(a), Inv(byte(a))); got != 1 {
			t.Fatalf("a * Inv(a) = %d for a=%d, want 1", got, a)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestPow(t *testing.T) {
	if Pow(0x02, 0) != 1 {
		t.Fatal("x^0 must be 1")
	}
	if Pow(0, 5) != 0 {
		t.Fatal("0^5 must be 0")
	}
	// Pow via repeated multiplication.
	for _, a := range []byte{2, 3, 0x1d, 0xff} {
		acc := byte(1)
		for n := 0; n < 40; n++ {
			if got := Pow(a, n); got != acc {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, n, got, acc)
			}
			acc = Mul(acc, a)
		}
	}
}

func TestExpLogRoundTrip(t *testing.T) {
	for i := 0; i < 255; i++ {
		v := expTable[i]
		if int(logTable[v]) != i {
			t.Fatalf("log(exp(%d)) = %d", i, logTable[v])
		}
	}
}

func TestMulPropertyCommutativeAssociativeDistributive(t *testing.T) {
	comm := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	assoc := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("associativity: %v", err)
	}
	dist := func(a, b, c byte) bool { return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c)) }
	if err := quick.Check(dist, nil); err != nil {
		t.Errorf("distributivity: %v", err)
	}
}

func TestMatrixIdentityMul(t *testing.T) {
	m := NewMatrix(3, 3)
	vals := []byte{1, 2, 3, 4, 5, 6, 7, 8, 10}
	copy(m.Data, vals)
	id := Identity(3)
	got := m.Mul(id)
	for i, v := range vals {
		if got.Data[i] != v {
			t.Fatalf("m * I differs at %d: got %d want %d", i, got.Data[i], v)
		}
	}
	got = id.Mul(m)
	for i, v := range vals {
		if got.Data[i] != v {
			t.Fatalf("I * m differs at %d: got %d want %d", i, got.Data[i], v)
		}
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	m := NewMatrix(3, 3)
	copy(m.Data, []byte{56, 23, 98, 3, 100, 200, 45, 201, 123})
	inv, err := m.Invert()
	if err != nil {
		t.Fatalf("Invert: %v", err)
	}
	prod := m.Mul(inv)
	id := Identity(3)
	for i := range id.Data {
		if prod.Data[i] != id.Data[i] {
			t.Fatalf("m * m^-1 != I at index %d: got %d", i, prod.Data[i])
		}
	}
}

func TestMatrixInvertSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []byte{1, 2, 2, 4}) // rows are linearly dependent (row2 = 2*row1)
	if _, err := m.Invert(); err == nil {
		t.Fatal("expected error inverting singular matrix")
	}
}

func TestMatrixInvertNonSquare(t *testing.T) {
	m := NewMatrix(2, 3)
	if _, err := m.Invert(); err == nil {
		t.Fatal("expected error inverting non-square matrix")
	}
}

func TestVandermondeSubmatricesInvertible(t *testing.T) {
	// Any k distinct rows of a Vandermonde matrix must be invertible.
	const n, k = 8, 4
	v := Vandermonde(n, k)
	rowSets := [][]int{
		{0, 1, 2, 3}, {4, 5, 6, 7}, {0, 2, 4, 6}, {1, 3, 5, 7}, {0, 3, 5, 6},
	}
	for _, rows := range rowSets {
		m := NewMatrix(k, k)
		for i, r := range rows {
			copy(m.Row(i), v.Row(r))
		}
		if _, err := m.Invert(); err != nil {
			t.Fatalf("submatrix with rows %v not invertible: %v", rows, err)
		}
	}
}

func TestSubMatrixAndAugment(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []byte{1, 2, 3, 4})
	a := m.Augment(Identity(2))
	if a.Cols != 4 || a.At(0, 2) != 1 || a.At(1, 3) != 1 {
		t.Fatalf("unexpected augment result: %+v", a)
	}
	s := a.SubMatrix(0, 2, 2, 4)
	if s.At(0, 0) != 1 || s.At(1, 1) != 1 || s.At(0, 1) != 0 {
		t.Fatalf("unexpected submatrix result: %+v", s)
	}
}

func TestMatrixSwapRows(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []byte{1, 2, 3, 4})
	m.SwapRows(0, 1)
	if m.At(0, 0) != 3 || m.At(1, 0) != 1 {
		t.Fatal("SwapRows did not exchange rows")
	}
	m.SwapRows(1, 1) // no-op must not corrupt
	if m.At(1, 0) != 1 || m.At(1, 1) != 2 {
		t.Fatal("self swap corrupted the row")
	}
}

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0, 3) did not panic")
		}
	}()
	NewMatrix(0, 3)
}
