// Package tmem models the ternary instruction and data memories (TIM and
// TDM, §IV-A of the paper): synchronous single-port, word-addressed arrays
// of 9-trit cells. A behavioural model stands in for the ternary SRAM of
// [11]; the evaluation framework consumes only its cell counts and access
// statistics (see DESIGN.md §4, substitution 6).
//
// # Storage model
//
// A Memory has a modelled size — the word count it was built with — and
// that size alone drives bounds checks, fault messages, Size, Cells,
// EncodedBits and Snapshot, so the area (Table V) and power inputs are
// those of the full array. The host storage behind it is separate: words
// live in fixed 512-word pages, a page is allocated on the first non-zero
// write into it, and an absent page reads as zero. A small program on the
// full 3^9-word space therefore costs a page or two of host memory rather
// than the whole array, and Reset clears only the pages that exist.
package tmem

import (
	"fmt"

	"repro/internal/ternary"
)

// MaxWords is the largest addressable memory: the full 9-trit address
// space, 3^9 words.
const MaxWords = ternary.WordStates

// pageBits sets the host page to 512 words (4 KiB of Packed cells): one
// page holds a small program image, and the TDM's two ends — the data
// image growing up from 0, the translator's runtime slots growing down
// from 3^9−1 — each touch their own.
const (
	pageBits  = 9
	pageWords = 1 << pageBits
	pageMask  = pageWords - 1
)

type page [pageWords]ternary.Packed

// Memory is a word-addressed ternary memory. Cells are stored in the
// bit-plane form (ternary.Packed) so the simulator hot path reads and
// writes without per-trit conversion; the Word-typed accessors convert at
// the boundary and remain the canonical interface for tests and tools.
type Memory struct {
	name  string
	size  int
	pages []*page // nil until the first non-zero write into that page

	reads  uint64
	writes uint64
}

// New returns a memory holding size 9-trit words. It panics if size is not
// in (0, MaxWords], since that is a construction-time configuration error.
func New(name string, size int) *Memory {
	if size <= 0 || size > MaxWords {
		panic(fmt.Sprintf("tmem: invalid size %d for %s (max %d)", size, name, MaxWords))
	}
	return &Memory{name: name, size: size, pages: make([]*page, (size+pageMask)>>pageBits)}
}

// Name returns the memory's name ("TIM"/"TDM" conventionally).
func (m *Memory) Name() string { return m.name }

// Size returns the number of words.
func (m *Memory) Size() int { return m.size }

// Cells returns the number of ternary storage cells (trits).
func (m *Memory) Cells() int { return m.size * ternary.WordTrits }

// EncodedBits returns the storage in bits when the memory is emulated with
// binary-encoded ternary cells (2 bits per trit), the Table V accounting.
func (m *Memory) EncodedBits() int { return m.Cells() * ternary.BitsPerTrit }

// ReadP returns the packed word at index addr — the simulator hot path.
// Addressing beyond the physical size is an access fault, surfaced as an
// error exactly like the hardware's out-of-space condition.
func (m *Memory) ReadP(addr int) (ternary.Packed, error) {
	if addr < 0 || addr >= m.size {
		return ternary.Packed{}, fmt.Errorf("tmem: %s read at %d out of range [0,%d)", m.name, addr, m.size)
	}
	m.reads++
	if p := m.pages[addr>>pageBits]; p != nil {
		return p[addr&pageMask], nil
	}
	return ternary.Packed{}, nil
}

// WriteP stores q at index addr, with the same bounds behaviour as ReadP.
func (m *Memory) WriteP(addr int, q ternary.Packed) error {
	if addr < 0 || addr >= m.size {
		return fmt.Errorf("tmem: %s write at %d out of range [0,%d)", m.name, addr, m.size)
	}
	m.writes++
	m.put(addr, q)
	return nil
}

// put stores q at an in-range addr, allocating its page only when q is
// non-zero (an absent page already reads as zero).
func (m *Memory) put(addr int, q ternary.Packed) {
	p := m.pages[addr>>pageBits]
	if p == nil {
		if q.IsZero() {
			return
		}
		p = new(page)
		m.pages[addr>>pageBits] = p
	}
	p[addr&pageMask] = q
}

// Read returns the word at index addr (ReadP through the Word boundary).
func (m *Memory) Read(addr int) (ternary.Word, error) {
	q, err := m.ReadP(addr)
	return q.Unpack(), err
}

// Write stores w at index addr, with the same bounds behaviour as Read.
func (m *Memory) Write(addr int, w ternary.Word) error {
	return m.WriteP(addr, ternary.Pack(w))
}

// ReadWord is Read addressed by a 9-trit word using the unsigned
// interpretation of §II-A.
func (m *Memory) ReadWord(addr ternary.Word) (ternary.Word, error) {
	return m.Read(addr.UIndex())
}

// WriteWord is Write addressed by a 9-trit word.
func (m *Memory) WriteWord(addr, w ternary.Word) error {
	return m.Write(addr.UIndex(), w)
}

// LoadImage copies img into the memory starting at address 0, the
// program-load path. It fails if the image does not fit.
func (m *Memory) LoadImage(img []ternary.Word) error {
	if len(img) > m.size {
		return fmt.Errorf("tmem: %s image of %d words exceeds size %d", m.name, len(img), m.size)
	}
	for i, w := range img {
		m.put(i, ternary.Pack(w))
	}
	return nil
}

// SetAll initialises sparse contents (address → word), as produced by the
// assembler's .data section.
func (m *Memory) SetAll(init map[int]ternary.Word) error {
	for a, w := range init {
		if a < 0 || a >= m.size {
			return fmt.Errorf("tmem: %s init at %d out of range [0,%d)", m.name, a, m.size)
		}
		m.put(a, ternary.Pack(w))
	}
	return nil
}

// Reset zeroes contents and statistics. Pages stay allocated, so a
// reloaded program of the same shape allocates nothing.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		if p != nil {
			*p = page{}
		}
	}
	m.reads, m.writes = 0, 0
}

// Accesses returns the read and write counts since construction or Reset,
// inputs to the memory power model.
func (m *Memory) Accesses() (reads, writes uint64) { return m.reads, m.writes }

// Snapshot returns a copy of the memory contents (for test comparison).
func (m *Memory) Snapshot() []ternary.Word {
	s := make([]ternary.Word, m.size)
	for i, p := range m.pages {
		if p == nil {
			continue
		}
		base := i << pageBits
		for j := 0; j < pageWords && base+j < m.size; j++ {
			s[base+j] = p[j].Unpack()
		}
	}
	return s
}
