package tmem

import (
	"fmt"
	"testing"

	"repro/internal/ternary"
)

// flatMem is the reference the paged Memory is fuzzed against: one Packed
// cell per modelled word in a flat array, with the same bounds checks,
// error text and access counting. touched records which host pages have
// ever held a non-zero word, the pages a paged Memory may allocate.
type flatMem struct {
	name          string
	words         []ternary.Packed
	reads, writes uint64
	touched       []bool
}

func newFlat(name string, size int) *flatMem {
	return &flatMem{name: name, words: make([]ternary.Packed, size), touched: make([]bool, (size+pageWords-1)/pageWords)}
}

func (m *flatMem) put(addr int, q ternary.Packed) {
	m.words[addr] = q
	if !q.IsZero() {
		m.touched[addr/pageWords] = true
	}
}

func (m *flatMem) readP(addr int) (ternary.Packed, error) {
	if addr < 0 || addr >= len(m.words) {
		return ternary.Packed{}, fmt.Errorf("tmem: %s read at %d out of range [0,%d)", m.name, addr, len(m.words))
	}
	m.reads++
	return m.words[addr], nil
}

func (m *flatMem) writeP(addr int, q ternary.Packed) error {
	if addr < 0 || addr >= len(m.words) {
		return fmt.Errorf("tmem: %s write at %d out of range [0,%d)", m.name, addr, len(m.words))
	}
	m.writes++
	m.put(addr, q)
	return nil
}

func (m *flatMem) loadImage(img []ternary.Word) error {
	if len(img) > len(m.words) {
		return fmt.Errorf("tmem: %s image of %d words exceeds size %d", m.name, len(img), len(m.words))
	}
	for i, w := range img {
		m.put(i, ternary.Pack(w))
	}
	return nil
}

func (m *flatMem) setAll(init map[int]ternary.Word) error {
	for a, w := range init {
		if a < 0 || a >= len(m.words) {
			return fmt.Errorf("tmem: %s init at %d out of range [0,%d)", m.name, a, len(m.words))
		}
		m.put(a, ternary.Pack(w))
	}
	return nil
}

func (m *flatMem) reset() {
	for i := range m.words {
		m.words[i] = ternary.Packed{}
	}
	m.reads, m.writes = 0, 0
}

// fuzzSizes are the modelled sizes an input picks from: one word, the
// 256-word FPGA memories of Table V, the sizes around one host page, and
// the full 3^9-word space.
var fuzzSizes = []int{1, 256, 511, 512, 513, MaxWords}

// opStream decodes a fuzz input. Reads past the end yield zeros, so every
// input is a valid operation sequence.
type opStream struct{ b []byte }

func (s *opStream) next() int {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return int(c)
}

func (s *opStream) u16() int { return s.next() | s.next()<<8 }

// addr returns an address to access. A selector byte below len(edges)
// picks one of the edges — 0, the page boundaries, the start of the last
// page, size−1 and the out-of-range −1 and size (page boundaries lie past
// the end of the smaller memories) — and any other value is followed by
// two bytes giving an address in [−1, size].
func (s *opStream) addr(size int) int {
	last := (size - 1) &^ pageMask
	edges := []int{-1, 0, 1, pageWords - 1, pageWords, pageWords + 1, 2*pageWords - 1, 2 * pageWords,
		last - 1, last, size - 2, size - 1, size, 255, 256}
	if b := s.next(); b < len(edges) {
		return edges[b]
	}
	return s.u16()%(size+2) - 1
}

// word returns zero for a selector byte divisible by 4, otherwise the word
// the next two bytes encode.
func (s *opStream) word() ternary.Packed {
	if s.next()%4 == 0 {
		return ternary.Packed{}
	}
	return ternary.PackedFromInt(s.u16())
}

// image returns a program image: a few words, exactly size, one word too
// many, or any length up to size+1, filled from a seeded generator with
// one word in three zero.
func (s *opStream) image(size int) []ternary.Word {
	var n int
	switch s.next() % 4 {
	case 0:
		n = s.next() % 8
	case 1:
		n = size
	case 2:
		n = size + 1
	default:
		n = s.u16() % (size + 2)
	}
	x := uint32(s.next())*2654435761 + 1
	img := make([]ternary.Word, n)
	for i := range img {
		x = x*1664525 + 1013904223
		if x>>30 != 0 {
			img[i] = ternary.FromInt(int(x >> 16))
		}
	}
	return img
}

// contents returns SetAll contents. Map order decides which entries a
// failing SetAll applies before it stops, so an out-of-range first address
// is sent alone; otherwise up to three more in-range entries follow.
func (s *opStream) contents(size int) map[int]ternary.Word {
	k := s.next() % 4
	a := s.addr(size)
	set := map[int]ternary.Word{a: s.word().Unpack()}
	if a < 0 || a >= size {
		return set
	}
	for ; k > 0; k-- {
		a, w := s.addr(size), s.word().Unpack()
		if a >= 0 && a < size {
			set[a] = w
		}
	}
	return set
}

// maxFuzzOps bounds the work one input can ask for.
const maxFuzzOps = 256

// FuzzMemoryVsFlat drives the paged Memory and the flat reference through
// the same ReadP/WriteP/LoadImage/SetAll/Reset sequence and requires equal
// values, error strings, access counts and snapshots, and a host page
// allocated exactly where a non-zero word was ever stored.
func FuzzMemoryVsFlat(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 0, 1, 0})
	f.Add([]byte{5, 1, 11, 1, 7, 0, 0, 11, 2, 2, 9, 4, 0, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &opStream{b: data}
		size := fuzzSizes[s.next()%len(fuzzSizes)]
		m, ref := New("TDM", size), newFlat("TDM", size)
		if m.Size() != size || m.Cells() != size*ternary.WordTrits || m.EncodedBits() != size*ternary.WordTrits*ternary.BitsPerTrit {
			t.Fatalf("size %d: Size/Cells/EncodedBits = %d/%d/%d", size, m.Size(), m.Cells(), m.EncodedBits())
		}
		for op := 0; op < maxFuzzOps && len(s.b) > 0; op++ {
			var err, want error
			var what string
			switch s.next() % 5 {
			case 0:
				a := s.addr(size)
				what = fmt.Sprintf("ReadP(%d)", a)
				var got, exp ternary.Packed
				got, err = m.ReadP(a)
				exp, want = ref.readP(a)
				if got != exp {
					t.Fatalf("op %d: %s = %v, want %v", op, what, got, exp)
				}
			case 1:
				a, q := s.addr(size), s.word()
				what = fmt.Sprintf("WriteP(%d, %v)", a, q)
				err, want = m.WriteP(a, q), ref.writeP(a, q)
			case 2:
				img := s.image(size)
				what = fmt.Sprintf("LoadImage(%d words)", len(img))
				err, want = m.LoadImage(img), ref.loadImage(img)
			case 3:
				set := s.contents(size)
				what = fmt.Sprintf("SetAll(%v)", set)
				err, want = m.SetAll(set), ref.setAll(set)
			case 4:
				what = "Reset()"
				m.Reset()
				ref.reset()
			}
			if fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("op %d: %s error %v, want %v", op, what, err, want)
			}
			gr, gw := m.Accesses()
			if gr != ref.reads || gw != ref.writes {
				t.Fatalf("op %d: after %s Accesses() = %d/%d, want %d/%d", op, what, gr, gw, ref.reads, ref.writes)
			}
		}
		snap := m.Snapshot()
		if len(snap) != size {
			t.Fatalf("Snapshot has %d words, want %d", len(snap), size)
		}
		for a, w := range snap {
			if want := ref.words[a].Unpack(); w != want {
				t.Fatalf("Snapshot[%d] = %v, want %v", a, w, want)
			}
		}
		for i, p := range m.pages {
			if (p != nil) != ref.touched[i] {
				t.Errorf("page %d allocated = %v, but a non-zero word was stored there = %v", i, p != nil, ref.touched[i])
			}
		}
	})
}
