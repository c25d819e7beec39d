package main

import (
	"testing"
	"time"
)

func TestParseSteal(t *testing.T) {
	for _, c := range []struct {
		stat string
		want float64
	}{
		{"cpu  3714729 0 319646 1554493 2940 0 30644 51683 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n", 516.83},
		{"cpu 1 2 3 4 5 6 7 250", 2.5},
		{"cpu 1 2 3 4 5 6 7\ncpu0 1 2 3 4 5 6 7 8 9\n", 0}, // no steal column
		{"", 0},
	} {
		if got := parseSteal([]byte(c.stat)); got != c.want {
			t.Errorf("parseSteal(%q) = %v, want %v", c.stat, got, c.want)
		}
	}
}

// TestHostSampler checks that the sampler's clocks work here: every
// sample has a positive speed and the steal counter never runs backwards.
func TestHostSampler(t *testing.T) {
	s := sampleHost()
	time.Sleep(5 * hostEvery)
	ss := s.finish()
	if len(ss) < 2 {
		t.Fatalf("%d samples in %v", len(ss), 5*hostEvery)
	}
	for i, x := range ss {
		if !(x.speed > 0) || (i > 0 && x.steal < ss[i-1].steal) {
			t.Errorf("sample %d: %+v after %+v", i, x, ss[max(i-1, 0)])
		}
	}
}
