package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccess(t *testing.T) {
	v := New(3, 2)
	if v.M != 3 || v.N != 2 || v.LD != 3 {
		t.Fatalf("shape = %dx%d ld %d", v.M, v.N, v.LD)
	}
	v.Set(2, 1, 7)
	if v.At(2, 1) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	if v.Data[1*3+2] != 7 {
		t.Fatal("storage is not column-major")
	}
}

func TestSubAliases(t *testing.T) {
	v := New(4, 4)
	s := v.Sub(1, 2, 2, 2)
	s.Set(0, 0, 42)
	if v.At(1, 2) != 42 {
		t.Fatal("sub-view does not alias parent storage")
	}
	if s.LD != v.LD {
		t.Fatal("sub-view must keep parent leading dimension")
	}
}

func TestSubOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3, 3).Sub(2, 2, 2, 2)
}

func TestFromSliceValidation(t *testing.T) {
	data := make([]float64, 10)
	v := FromSlice(data, 2, 3, 3)
	if v.At(0, 0) != 0 {
		t.Fatal("bad wrap")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short slice")
		}
	}()
	FromSlice(make([]float64, 3), 2, 3, 3)
}

func TestCloneAndCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := New(5, 7)
	v.FillRandom(rng)
	c := v.Clone()
	if MaxAbsDiff(v, c) != 0 {
		t.Fatal("clone differs")
	}
	c.Set(0, 0, 999)
	if v.At(0, 0) == 999 {
		t.Fatal("clone aliases original")
	}
	w := New(5, 7)
	w.CopyFrom(v)
	if MaxAbsDiff(v, w) != 0 {
		t.Fatal("CopyFrom differs")
	}
}

func TestShapeOnlyViews(t *testing.T) {
	v := NewShape(1000, 2000)
	if v.HasData() {
		t.Fatal("shape view should have no data")
	}
	if v.Bytes() != 1000*2000*8 {
		t.Fatalf("bytes = %d", v.Bytes())
	}
	s := v.Sub(100, 100, 50, 50)
	if s.HasData() || s.M != 50 {
		t.Fatal("sub of shape view broken")
	}
}

func TestDist2DPaperLayout(t *testing.T) {
	// The paper's DoD experiments use a (4,2) grid with (1,1) blocks:
	// adjacent tiles land on different GPUs.
	d := NewDist2D(4, 2, 1, 1)
	if d.Devices() != 8 {
		t.Fatalf("devices = %d", d.Devices())
	}
	if d.OwnerOf(0, 0) == d.OwnerOf(0, 1) {
		t.Error("adjacent tiles in a row share an owner")
	}
	if d.OwnerOf(0, 0) == d.OwnerOf(1, 0) {
		t.Error("adjacent tiles in a column share an owner")
	}
	if d.OwnerOf(0, 0) != d.OwnerOf(4, 0) {
		t.Error("cyclic wrap in rows broken")
	}
	if d.OwnerOf(0, 0) != d.OwnerOf(0, 2) {
		t.Error("cyclic wrap in cols broken")
	}
}

// Property: block-cyclic load imbalance over any grid is at most one block
// row/column, i.e. every device owns between floor and ceil of tiles/devices
// when the grid divides the distribution blocks evenly.
func TestDist2DBalanceProperty(t *testing.T) {
	f := func(pRaw, qRaw, rRaw, cRaw uint8) bool {
		p, q := int(pRaw%4)+1, int(qRaw%4)+1
		rows, cols := int(rRaw%20)+p, int(cRaw%20)+q
		d := NewDist2D(p, q, 1, 1)
		counts := make([]int, d.Devices())
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				o := d.OwnerOf(i, j)
				if o < 0 || o >= d.Devices() {
					return false
				}
				counts[o]++
			}
		}
		// With (1,1) blocks, per-device count is (#rows on p-row)·(#cols
		// on q-col); each factor differs by at most 1 across devices.
		minC, maxC := counts[0], counts[0]
		for _, c := range counts {
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		rf, cf := rows/p, cols/q
		return minC >= rf*cf && maxC <= (rf+1)*(cf+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFillIdentityPlusDiagonalDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := New(8, 8)
	v.FillIdentityPlus(10, rng)
	for i := 0; i < 8; i++ {
		if v.At(i, i) < 9 {
			t.Errorf("diagonal (%d,%d) = %g, want ≥ 9", i, i, v.At(i, i))
		}
	}
}
