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
