package gate

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"maps"
	"math"
	"strconv"
	"strings"
	"sync"
)

// This file gives every Technology a canonical content identity. The
// fleet-wide result cache (internal/rescache via internal/bench) folds
// these digests into its keys, so an edited timing/energy table — the
// very numbers the Tables II–V evaluation exists to produce — can never
// replay a stale metric as a cache hit, and the engine's analysis
// memoization distinguishes two models that merely share a Name.

// fingerprintVersion names the serialization layout below. Bump it when
// Technology gains a field or the rendering changes, so digests from
// different layouts can never collide. v2: added VoltageV.
const fingerprintVersion = "art9-tech/v2"

// Fingerprint returns a stable content digest of the technology model:
// every delay, energy, area and memory field the analyzer and the
// power/timing estimators read, serialized in a fixed field order and
// hashed. Two Technology values with identical tables share a
// fingerprint; changing any single number — one cell's DelayPs, a
// leakage, a memory energy — changes it.
//
// The digest is memoized on t together with the field values it was
// computed from, and a call reuses it only when every field still has
// those values, bit for bit. An edit to t — a scalar, a Props entry
// changed, added or deleted in place — therefore yields the digest a
// freshly built model with the edited fields has; no call sequence can
// observe a stale one. A reused digest costs one comparison per field
// and no allocation. Safe for concurrent use on a model nobody is
// editing.
func (t *Technology) Fingerprint() string {
	if m, _ := t.fp.Load().(*fingerprintMemo); m != nil && m.matches(t) {
		return m.digest
	}
	m := snapshotOf(t)
	m.digest = digestOf(m.canonical())
	t.fp.Store(m)
	return m.digest
}

// Clone returns a copy of t with a Props map of its own, so an edit to
// either model leaves the other unchanged. The copy starts with t's
// fingerprint memo, which it keeps only while its fields still match.
// Clone reads t as any copy does: it must not run while t is edited or
// fingerprinted for the first time.
func (t *Technology) Clone() *Technology {
	c := *t
	c.Props = maps.Clone(t.Props)
	return &c
}

// fingerprintMemo is the content Fingerprint last hashed, as float bit
// patterns (so -0 and 0, or two NaNs, never compare equal when their
// renderings differ), and the digest of its canonical text.
type fingerprintMemo struct {
	name    string
	scalars [numScalars]uint64
	props   [NumCellKinds][4]uint64
	present [NumCellKinds]bool
	kinds   int // number of present cell kinds
	digest  string
}

// numScalars counts the float fields scalarBits covers.
const numScalars = 9

// scalarBits returns the scalar fields in canonical order.
func (t *Technology) scalarBits() [numScalars]uint64 {
	return [numScalars]uint64{
		math.Float64bits(t.VoltageV),
		math.Float64bits(t.ClkQPs),
		math.Float64bits(t.SetupPs),
		math.Float64bits(t.Activity),
		math.Float64bits(t.StaticW),
		math.Float64bits(t.IOW),
		math.Float64bits(t.MemReadEnergyFJ),
		math.Float64bits(t.MemWriteEnergyFJ),
		math.Float64bits(t.MemLeakageNWPerTrit),
	}
}

// bits returns p's properties in canonical order.
func (p CellProps) bits() [4]uint64 {
	return [4]uint64{
		math.Float64bits(p.DelayPs),
		math.Float64bits(p.EnergyFJ),
		math.Float64bits(p.LeakNW),
		math.Float64bits(p.ALMs),
	}
}

// snapshotOf copies the fields the fingerprint covers. Cell kinds at or
// past NumCellKinds are not part of the model's identity.
func snapshotOf(t *Technology) *fingerprintMemo {
	m := &fingerprintMemo{name: t.Name, scalars: t.scalarBits()}
	for k, p := range t.Props {
		if k < NumCellKinds {
			m.props[k], m.present[k] = p.bits(), true
			m.kinds++
		}
	}
	return m
}

// matches reports whether t still has exactly the snapshotted fields.
func (m *fingerprintMemo) matches(t *Technology) bool {
	if t.Name != m.name || t.scalarBits() != m.scalars {
		return false
	}
	n := 0
	for k, p := range t.Props {
		if k >= NumCellKinds {
			continue
		}
		if !m.present[k] || p.bits() != m.props[k] {
			return false
		}
		n++
	}
	return n == m.kinds
}

// canonical renders the serialization behind Fingerprint: the version
// tag, the scalar fields in declaration order, then each present cell
// kind in numeric order with its four properties. Floats render with
// strconv's shortest round-trippable form, so the text is identical
// across platforms for identical values; absent cell kinds are omitted
// (the kind index prefixes each group, so absence cannot be confused
// with zero-valued presence).
func (m *fingerprintMemo) canonical() string {
	var b strings.Builder
	f := func(bits uint64) {
		b.WriteString(strconv.FormatFloat(math.Float64frombits(bits), 'g', -1, 64))
		b.WriteByte('|')
	}
	b.WriteString(fingerprintVersion)
	b.WriteByte('|')
	b.WriteString(m.name)
	b.WriteByte('|')
	for _, v := range m.scalars {
		f(v)
	}
	for k := CellKind(0); k < NumCellKinds; k++ {
		if !m.present[k] {
			continue
		}
		b.WriteString(strconv.Itoa(int(k)))
		b.WriteByte(':')
		for _, v := range m.props[k] {
			f(v)
		}
	}
	return b.String()
}

func digestOf(canonical string) string {
	h := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(h[:])
}

var modelDigest struct {
	once sync.Once
	hex  string
}

// ModelDigest returns one digest covering every built-in technology
// model — the package-level version of Fingerprint, memoized. It names
// the compiled-in state of the gate-level timing/energy tables;
// /v1/stats and BENCH reports surface it so operators can tell at a
// glance whether two fleet members were built from the same tables.
func ModelDigest() string {
	modelDigest.once.Do(func() {
		h := sha256.New()
		for _, t := range []*Technology{CNTFET32(), StratixVEmulation()} {
			io.WriteString(h, snapshotOf(t).canonical())
			h.Write([]byte{0})
		}
		modelDigest.hex = hex.EncodeToString(h.Sum(nil))
	})
	return modelDigest.hex
}
