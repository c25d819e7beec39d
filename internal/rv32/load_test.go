package rv32

import (
	"strings"
	"testing"
)

// TestLoadDropsPreviousProgram reuses one machine for a program that
// stores to RAM and then for one that only reads that address: the second
// Load must leave neither the stored byte nor the first run's retirement
// statistics behind, so the reused machine matches a fresh one.
func TestLoadDropsPreviousProgram(t *testing.T) {
	writer := assemble(t, `
		li t0, 77
		sw t0, 12(zero)
		ebreak
	`)
	reader := assemble(t, `
		lw a0, 12(zero)
		ebreak
	`)

	m := NewMachine(1 << 12)
	for _, p := range []*Program{writer, reader} {
		if err := m.Load(p); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}

	fresh := NewMachine(1 << 12)
	if err := fresh.Load(reader); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(10); got != 0 {
		t.Errorf("a0 = %d after reload, want 0: RAM leaked the previous program's store", got)
	}
	type stats struct{ Retired, Loads, Stores, Taken, NotTkn uint64 }
	got := stats{m.Retired, m.Loads, m.Stores, m.Taken, m.NotTkn}
	want := stats{fresh.Retired, fresh.Loads, fresh.Stores, fresh.Taken, fresh.NotTkn}
	if got != want {
		t.Errorf("reused machine stats = %+v, fresh machine = %+v", got, want)
	}
}

// TestRAMHoldsTouchedPrefix pins the RAM model: RAM is the data image
// until a store extends it, untouched bytes below the modelled size read
// as zero, and the modelled size alone bounds every access.
func TestRAMHoldsTouchedPrefix(t *testing.T) {
	p := assemble(t, `
		lw a1, 0(zero)     # image word
		lw a2, 64(zero)    # past the image, never written: 0
		li t0, 99
		sb t0, 17(zero)    # extends RAM to 18 bytes
		lbu a3, 17(zero)
		lhu a4, 16(zero)   # spans a zero-filled byte and the stored one
		li t1, 4092
		li t2, -1
		sw t2, 0(t1)       # the last word of a 4 KiB RAM
		lw a5, 0(t1)
		ebreak
	.data
		.word 5
	`)
	m := NewMachine(1 << 12)
	if len(m.RAM) != 0 {
		t.Errorf("fresh machine holds %d RAM bytes, want 0", len(m.RAM))
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if len(m.RAM) != len(p.Data) {
		t.Errorf("after Load RAM holds %d bytes, want the %d-byte image", len(m.RAM), len(p.Data))
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		r    Reg
		want uint32
	}{{11, 5}, {12, 0}, {13, 99}, {14, 99 << 8}, {15, 0xffffffff}} {
		if got := m.Reg(c.r); got != c.want {
			t.Errorf("x%d = %#x, want %#x", c.r, got, c.want)
		}
	}
	if len(m.RAM) != 1<<12 {
		t.Errorf("RAM holds %d bytes after a store to the last word, want %d", len(m.RAM), 1<<12)
	}

	// Bounds and error text follow the modelled size, not the prefix.
	for _, c := range []struct{ src, err string }{
		{"li t0, 4096\nlw a0, 0(t0)\nebreak", "rv32: load at 0x1000 out of RAM"},
		{"li t0, 4094\nsw t0, 0(t0)\nebreak", "rv32: store at 0xffe out of RAM"},
	} {
		m := NewMachine(1 << 12)
		if err := m.Load(assemble(t, c.src)); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err == nil || !strings.HasSuffix(err.Error(), c.err) {
			t.Errorf("%q: error %v, want %q", c.src, err, c.err)
		}
	}
	big := &Program{Data: make([]byte, 1<<12+1)}
	if err := NewMachine(1 << 12).Load(big); err == nil || !strings.Contains(err.Error(), "exceeds RAM 4096") {
		t.Errorf("oversized image: error %v, want it to exceed RAM 4096", err)
	}
}
