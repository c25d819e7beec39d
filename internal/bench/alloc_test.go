package bench

import (
	"runtime"
	"testing"

	"repro/internal/xlate"
)

// TestRunAllocatesByTouch bounds the heap one suite job allocates once
// the program cache is warm. Every machine it builds — the RV32 RAM and
// the two cores' TIM and TDM — takes host memory only as the program
// touches it; with whole-address-space memories the bubble job allocated
// about 750 KiB. Not parallel, so no other test's allocations fall
// inside the measurement.
func TestRunAllocatesByTouch(t *testing.T) {
	if _, err := Run(BubbleSort, xlate.Options{}); err != nil {
		t.Fatal(err) // fills the program cache
	}
	var before, after runtime.MemStats
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		_, err := Run(BubbleSort, xlate.Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("Run(%s): %d B", BubbleSort.Name, least)
	const limit = 160 << 10
	if least > limit {
		t.Errorf("Run(%s) allocated %d B, want at most %d B", BubbleSort.Name, least, limit)
	}
}
