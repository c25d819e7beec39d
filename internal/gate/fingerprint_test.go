package gate

import (
	"maps"
	"math"
	"regexp"
	"sync/atomic"
	"testing"
)

// TestFingerprintStable pins determinism and shape: the digest is a
// 64-hex sha256, identical across calls and across independently
// constructed copies of the same model.
func TestFingerprintStable(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *Technology
	}{
		{"cntfet32", CNTFET32},
		{"stratixv", StratixVEmulation},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.build().Fingerprint(), tc.build().Fingerprint()
			if a != b {
				t.Fatalf("fingerprint unstable: %s != %s", a, b)
			}
			if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(a) {
				t.Fatalf("fingerprint %q is not a sha256 hex digest", a)
			}
		})
	}
	if CNTFET32().Fingerprint() == StratixVEmulation().Fingerprint() {
		t.Fatal("distinct technologies share a fingerprint")
	}
}

// TestFingerprintFieldSensitivity flips each field class once and
// asserts the digest moves — the property the result cache's
// invalidation contract rests on. Each instance is fingerprinted before
// its edit, so a memo that outlives an edit fails here, and the edited
// digest must be the one a freshly built model with those fields has.
func TestFingerprintFieldSensitivity(t *testing.T) {
	base := CNTFET32().Fingerprint()
	withoutTBUF := func() *Technology {
		tech := CNTFET32()
		delete(tech.Props, TBUF)
		return tech
	}
	for _, tc := range []struct {
		name string
		from func() *Technology // CNTFET32 when nil
		edit func(*Technology)
	}{
		{"name", nil, func(t *Technology) { t.Name = "CNTFET-32nm-edited" }},
		{"cell-delay", nil, func(t *Technology) {
			p := t.Props[TFA]
			p.DelayPs++
			t.Props[TFA] = p
		}},
		{"cell-energy", nil, func(t *Technology) {
			p := t.Props[TXOR]
			p.EnergyFJ += 0.01
			t.Props[TXOR] = p
		}},
		{"cell-leakage", nil, func(t *Technology) {
			p := t.Props[TNAND]
			p.LeakNW += 0.1
			t.Props[TNAND] = p
		}},
		{"cell-alms", nil, func(t *Technology) {
			p := t.Props[STI]
			p.ALMs += 0.5
			t.Props[STI] = p
		}},
		{"voltage", nil, func(t *Technology) { t.VoltageV += 0.1 }},
		{"clkq", nil, func(t *Technology) { t.ClkQPs++ }},
		{"setup", nil, func(t *Technology) { t.SetupPs++ }},
		{"activity", nil, func(t *Technology) { t.Activity += 0.01 }},
		{"static-w", nil, func(t *Technology) { t.StaticW += 0.01 }},
		{"static-w-negative-zero", nil, func(t *Technology) { t.StaticW = math.Copysign(0, -1) }},
		{"io-w", nil, func(t *Technology) { t.IOW += 0.01 }},
		{"mem-read", nil, func(t *Technology) { t.MemReadEnergyFJ++ }},
		{"mem-write", nil, func(t *Technology) { t.MemWriteEnergyFJ++ }},
		{"mem-leak", nil, func(t *Technology) { t.MemLeakageNWPerTrit += 0.1 }},
		{"drop-cell", nil, func(t *Technology) { delete(t.Props, TBUF) }},
		{"add-cell", withoutTBUF, func(t *Technology) { t.Props[TBUF] = CellProps{DelayPs: 35} }},
		{"add-zero-cell", withoutTBUF, func(t *Technology) { t.Props[TBUF] = CellProps{} }},
		{"swap-props-map", nil, func(t *Technology) {
			props := maps.Clone(t.Props)
			props[TDFF] = CellProps{EnergyFJ: 2.5, LeakNW: 32.8}
			t.Props = props
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			from := tc.from
			if from == nil {
				from = CNTFET32
			}
			edited := from()
			before := edited.Fingerprint()
			tc.edit(edited)
			got := edited.Fingerprint()
			if got == before {
				t.Fatalf("editing %s did not change the fingerprint", tc.name)
			}
			if tc.from == nil && got == base {
				t.Fatalf("editing %s did not move the fingerprint off the built-in's", tc.name)
			}
			if want := freshCopy(edited).Fingerprint(); got != want {
				t.Fatalf("edited model reads %s, a fresh model with its fields %s", got, want)
			}
		})
	}
}

// freshCopy builds a model with t's fields and no fingerprint memo.
func freshCopy(t *Technology) *Technology {
	c := *t
	c.fp = atomic.Value{}
	c.Props = maps.Clone(t.Props)
	return &c
}

// TestFingerprintMemo pins the memo: a repeated call on an unedited
// model allocates nothing, a clone starts with the original's digest,
// and an edit to a clone changes only the clone's.
func TestFingerprintMemo(t *testing.T) {
	tech := StratixVEmulation()
	want := tech.Fingerprint()
	if n := testing.AllocsPerRun(100, func() { tech.Fingerprint() }); n != 0 {
		t.Fatalf("repeated Fingerprint allocates %v times", n)
	}
	c := tech.Clone()
	if got := c.Fingerprint(); got != want {
		t.Fatalf("clone reads %s, original %s", got, want)
	}
	p := c.Props[TFA]
	p.DelayPs++
	c.Props[TFA] = p
	c.StaticW++
	if c.Fingerprint() == want {
		t.Fatal("editing a clone left its fingerprint unchanged")
	}
	if got := tech.Fingerprint(); got != want {
		t.Fatalf("editing a clone moved the original's fingerprint to %s", got)
	}
	if got := StratixVEmulation().Fingerprint(); got != want {
		t.Fatalf("editing a clone moved a fresh built-in's fingerprint to %s", got)
	}
}

// BenchmarkFingerprint fingerprints both built-in models, built once
// outside the loop: every call after the first reuses the memo.
func BenchmarkFingerprint(b *testing.B) {
	techs := []*Technology{CNTFET32(), StratixVEmulation()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, t := range techs {
			if len(t.Fingerprint()) != 64 {
				b.Fatal("short digest")
			}
		}
	}
}

// TestFingerprintDistinguishesAbsentFromZero pins the presence
// encoding: a cell kind with all-zero properties is not the same model
// as one missing that kind entirely.
func TestFingerprintDistinguishesAbsentFromZero(t *testing.T) {
	absent := CNTFET32()
	delete(absent.Props, TBUF)
	zero := CNTFET32()
	zero.Props[TBUF] = CellProps{}
	if absent.Fingerprint() == zero.Fingerprint() {
		t.Fatal("absent cell kind and zero-valued cell kind share a fingerprint")
	}
}

// TestModelDigest pins the package digest: stable, hex, memoized, and
// derived from the built-in models (so it differs from any single
// model's own fingerprint).
func TestModelDigest(t *testing.T) {
	d := ModelDigest()
	if d != ModelDigest() {
		t.Fatal("ModelDigest unstable across calls")
	}
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(d) {
		t.Fatalf("ModelDigest %q is not a sha256 hex digest", d)
	}
	if d == CNTFET32().Fingerprint() || d == StratixVEmulation().Fingerprint() {
		t.Fatal("ModelDigest collides with a single model fingerprint")
	}
}
