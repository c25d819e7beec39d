package tmem

import (
	"testing"

	"repro/internal/ternary"
)

func TestNewPanicsOnBadSize(t *testing.T) {
	for _, size := range []int{0, -1, MaxWords + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(size=%d) did not panic", size)
				}
			}()
			New("TIM", size)
		}()
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New("TDM", 64)
	w := ternary.FromInt(-1234)
	if err := m.Write(17, w); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(17)
	if err != nil {
		t.Fatal(err)
	}
	if got != w {
		t.Errorf("Read(17) = %v, want %v", got, w)
	}
}

func TestOutOfRangeFaults(t *testing.T) {
	m := New("TDM", 8)
	if _, err := m.Read(8); err == nil {
		t.Error("Read(8) on size-8 memory succeeded")
	}
	if _, err := m.Read(-1); err == nil {
		t.Error("Read(-1) succeeded")
	}
	if err := m.Write(100, ternary.Word{}); err == nil {
		t.Error("Write(100) succeeded")
	}
}

func TestWordAddressing(t *testing.T) {
	m := New("TDM", MaxWords)
	// Negative balanced addresses map to the top of the unsigned space.
	addr := ternary.FromInt(-1)
	if err := m.WriteWord(addr, ternary.FromInt(42)); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(MaxWords - 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 42 {
		t.Errorf("address -1 did not map to word %d", MaxWords-1)
	}
	back, err := m.ReadWord(addr)
	if err != nil || back.Int() != 42 {
		t.Errorf("ReadWord(-1) = %v, %v", back, err)
	}
}

func TestCellAccounting(t *testing.T) {
	m := New("TIM", 256)
	if m.Cells() != 256*9 {
		t.Errorf("Cells() = %d, want %d", m.Cells(), 256*9)
	}
	// Table V: a 256-word binary-encoded ternary memory is 4,608 bits;
	// two of them give the paper's 9,216 RAM bits.
	if m.EncodedBits() != 4608 {
		t.Errorf("EncodedBits() = %d, want 4608", m.EncodedBits())
	}
}

func TestLoadImage(t *testing.T) {
	m := New("TIM", 4)
	img := []ternary.Word{ternary.FromInt(1), ternary.FromInt(2)}
	if err := m.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	w, _ := m.Read(1)
	if w.Int() != 2 {
		t.Errorf("image word 1 = %d, want 2", w.Int())
	}
	if err := m.LoadImage(make([]ternary.Word, 5)); err == nil {
		t.Error("oversized image load succeeded")
	}
}

func TestSetAllAndReset(t *testing.T) {
	m := New("TDM", 16)
	if err := m.SetAll(map[int]ternary.Word{3: ternary.FromInt(7)}); err != nil {
		t.Fatal(err)
	}
	if w, _ := m.Read(3); w.Int() != 7 {
		t.Error("SetAll did not store")
	}
	if err := m.SetAll(map[int]ternary.Word{99: {}}); err == nil {
		t.Error("SetAll out of range succeeded")
	}
	m.Reset()
	if w, _ := m.Read(3); !w.IsZero() {
		t.Error("Reset did not clear contents")
	}
	if r, wr := m.Accesses(); r != 1 || wr != 0 {
		// The Read after Reset counts 1; Reset cleared earlier stats.
		t.Errorf("Accesses() after reset = %d,%d", r, wr)
	}
}

func TestAccessCounters(t *testing.T) {
	m := New("TDM", 16)
	for i := 0; i < 5; i++ {
		if err := m.Write(i, ternary.FromInt(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Read(i); err != nil {
			t.Fatal(err)
		}
	}
	// Failed accesses must not count.
	m.Read(99)
	m.Write(99, ternary.Word{})
	r, w := m.Accesses()
	if r != 3 || w != 5 {
		t.Errorf("Accesses() = %d,%d; want 3,5", r, w)
	}
	// A read served from the caller's copy counts like any other.
	m.CountRead()
	if r, w := m.Accesses(); r != 4 || w != 5 {
		t.Errorf("Accesses() after CountRead = %d,%d; want 4,5", r, w)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	m := New("TDM", 4)
	m.Write(0, ternary.FromInt(9))
	s := m.Snapshot()
	s[0] = ternary.Word{}
	if w, _ := m.Read(0); w.Int() != 9 {
		t.Error("Snapshot aliases memory")
	}
}
