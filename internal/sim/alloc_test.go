package sim

import (
	"runtime"
	"testing"

	"repro/internal/asm"
)

// allocatedBytes returns the fewest heap bytes f allocated over three
// calls, from runtime.MemStats.TotalAlloc deltas. The fewest discounts
// allocations a stray runtime goroutine makes during one of the calls.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestStateAllocatesByTouch pins the paged memories' saving: a fresh
// full-size State loaded with a three-instruction program takes a host
// page or two, not two 3^9-word arrays (about 320 KiB). Not parallel, so
// no other test's allocations fall inside the measurement.
func TestStateAllocatesByTouch(t *testing.T) {
	p, err := asm.Assemble(`
		LDI T1, 7
		ADD T1, T1
		HALT
	`)
	if err != nil {
		t.Fatal(err)
	}
	var loadErr error
	got := allocatedBytes(func() {
		loadErr = NewState(Config{}).Load(p)
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	t.Logf("NewState + Load: %d B", got)
	const limit = 16 << 10
	if got > limit {
		t.Errorf("NewState + Load allocated %d B, want at most %d B", got, limit)
	}
}

// TestRunAllocatesNothing pins the step loops' allocation budget: reloading
// a used machine (Load plus the data image, as the suite harness does) and
// running it to halt allocates nothing, on either core with tracing off.
// An effect or pipeline latch that escaped to the heap would still compute
// the right answers; only this test sees it.
func TestRunAllocatesNothing(t *testing.T) {
	p, err := asm.Assemble(`
		.data
	buf:	.word 5, -3, 8
		.text
		LDI T2, 0
		LDI T3, 3
	loop:	LOAD T4, T2, 0
		ADD T1, T4
		STORE T1, T2, 0
		JAL T5, bump
		MV T6, T2
		COMP T6, T3
		BNE T6, 0, loop
		HALT
	bump:	ADDI T2, 1
		JALR T0, T5, 0
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, pipelined := range []bool{false, true} {
		s, run := newCore(pipelined, Config{})
		reload := func() {
			if err := s.Load(p); err != nil {
				t.Fatal(err)
			}
			if err := s.TDM.SetAll(p.Data); err != nil {
				t.Fatal(err)
			}
			if res, err := run(); err != nil || res.Loads != 3 || res.Stores != 3 {
				t.Fatalf("pipelined %v: %+v, %v", pipelined, res, err)
			}
		}
		reload() // the first run allocates the pages it touches
		if n := testing.AllocsPerRun(20, reload); n != 0 {
			t.Errorf("pipelined %v: reload and run allocated %v times, want 0", pipelined, n)
		}
	}
}
