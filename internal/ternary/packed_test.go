package ternary

import (
	"math/rand"
	"testing"
)

// edgeInts are the values the sampled binary-kernel grid always covers,
// alongside its random words: bounds, wrap points, and small magnitudes.
var edgeInts = []int{
	0, 1, -1, 2, -2, 3, -3, 40, -40, 121, -121, 242, -242,
	MaxInt, MinInt, MaxInt - 1, MinInt + 1, 9840, -9840, 6561, -6561,
}

// randWords returns n deterministic random words plus the edge set.
func randWords(n int) []Word {
	rng := rand.New(rand.NewSource(9))
	ws := make([]Word, 0, n+len(edgeInts))
	for _, v := range edgeInts {
		ws = append(ws, FromInt(v))
	}
	for i := 0; i < n; i++ {
		var w Word
		for k := range w {
			w[k] = Trit(rng.Intn(3) - 1)
		}
		ws = append(ws, w)
	}
	return ws
}

// allWords returns every one of the 3^9 words, counted trit by trit like
// an odometer, so the enumeration shares no code with FromInt or Pack.
func allWords() []Word {
	ws := make([]Word, 0, WordStates)
	var w Word
	for i := range w {
		w[i] = Neg
	}
	for {
		ws = append(ws, w)
		i := 0
		for i < WordTrits && w[i] == Pos {
			w[i] = Neg
			i++
		}
		if i == WordTrits {
			return ws
		}
		w[i]++
	}
}

func TestAllWordsDistinct(t *testing.T) {
	ws := allWords()
	seen := make(map[Word]bool, len(ws))
	for _, w := range ws {
		if !w.Valid() || seen[w] {
			t.Fatalf("allWords: %v invalid or repeated", w)
		}
		seen[w] = true
	}
	if len(seen) != WordStates {
		t.Fatalf("allWords: %d words, want %d", len(seen), WordStates)
	}
}

func TestPackRoundTrip(t *testing.T) {
	for _, w := range allWords() {
		q := Pack(w)
		if !q.Valid() {
			t.Fatalf("Pack(%v) = %+v violates the plane invariant", w, q)
		}
		if got := q.Unpack(); got != w {
			t.Fatalf("Unpack(Pack(%v)) = %v", w, got)
		}
	}
}

// TestPackedFromIntMatchesFromInt covers every value of the balanced range
// and one full wrap on either side of it.
func TestPackedFromIntMatchesFromInt(t *testing.T) {
	for v := MinInt - WordStates; v <= MaxInt+WordStates; v++ {
		want := Pack(FromInt(v))
		if got := PackedFromInt(v); got != want {
			t.Fatalf("PackedFromInt(%d) = %v, want %v", v, got, want)
		}
	}
	for _, v := range []int{5 * WordStates, -5 * WordStates, 7*WordStates + 11, -7*WordStates - 11} {
		if got, want := PackedFromInt(v), Pack(FromInt(v)); got != want {
			t.Fatalf("PackedFromInt(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestPackedScalarsMatchSerial(t *testing.T) {
	for _, w := range allWords() {
		q := Pack(w)
		if got, want := q.Int(), w.Int(); got != want {
			t.Fatalf("%v: Int = %d, want %d", w, got, want)
		}
		if got, want := q.UIndex(), w.UIndex(); got != want {
			t.Fatalf("%v: UIndex = %d, want %d", w, got, want)
		}
		if got, want := q.IsZero(), w.IsZero(); got != want {
			t.Fatalf("%v: IsZero = %v, want %v", w, got, want)
		}
		if got, want := q.Sign(), w.Sign(); got != want {
			t.Fatalf("%v: Sign = %v, want %v", w, got, want)
		}
		if got, want := q.CountNonZero(), w.CountNonZero(); got != want {
			t.Fatalf("%v: CountNonZero = %d, want %d", w, got, want)
		}
		if got, want := q.String(), w.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
		for i := 0; i < WordTrits; i++ {
			if got, want := q.Trit(i), w.Trit(i); got != want {
				t.Fatalf("%v: Trit(%d) = %v, want %v", w, i, got, want)
			}
		}
		for lo := 0; lo < WordTrits; lo++ {
			for hi := lo; hi < WordTrits; hi++ {
				if got, want := q.Field(lo, hi), w.Field(lo, hi); got != want {
					t.Fatalf("%v: Field(%d,%d) = %d, want %d", w, lo, hi, got, want)
				}
			}
		}
	}
}

func TestPackedUnaryMatchSerial(t *testing.T) {
	unary := []struct {
		name   string
		packed func(Packed) Packed
		serial func(Word) Word
	}{
		{"Sti", Packed.Sti, Sti},
		{"Nti", Packed.Nti, Nti},
		{"Pti", Packed.Pti, Pti},
		{"Neg", Packed.Neg, NegWord},
		{"Inc", Packed.Inc, Inc},
		{"Dec", Packed.Dec, Dec},
	}
	for _, w := range allWords() {
		q := Pack(w)
		for _, op := range unary {
			got := op.packed(q)
			if !got.Valid() {
				t.Fatalf("%s(%v) violates the plane invariant", op.name, w)
			}
			if want := Pack(op.serial(w)); got != want {
				t.Fatalf("%s(%v) = %v, want %v", op.name, w, got, want)
			}
		}
	}
}

func TestPackedBinaryMatchSerial(t *testing.T) {
	binary := []struct {
		name   string
		packed func(Packed, Packed) Packed
		serial func(Word, Word) Word
	}{
		{"And", Packed.And, And},
		{"Or", Packed.Or, Or},
		{"Xor", Packed.Xor, Xor},
		{"Add", Packed.Add, AddWord},
		{"Sub", Packed.Sub, SubWord},
		{"Comp", Packed.Comp, CompWord},
		{"Mul", Packed.Mul, Mul},
	}
	ws := randWords(120)
	for _, a := range ws {
		qa := Pack(a)
		for _, b := range ws {
			qb := Pack(b)
			for _, op := range binary {
				got := op.packed(qa, qb)
				if !got.Valid() {
					t.Fatalf("%s(%v, %v) violates the plane invariant", op.name, a, b)
				}
				if want := Pack(op.serial(a, b)); got != want {
					t.Fatalf("%s(%v, %v) = %v, want %v", op.name, a, b, got, want)
				}
			}
			if got, want := qa.Cmp(qb), Cmp(a, b); got != want {
				t.Fatalf("Cmp(%v, %v) = %v, want %v", a, b, got, want)
			}
			gs, gc := qa.AddCarry(qb)
			ws2, wc := Add(a, b)
			if gs != Pack(ws2) || gc != wc {
				t.Fatalf("AddCarry(%v, %v) = (%v, %v), want (%v, %v)", a, b, gs, gc, ws2, wc)
			}
			gs, gc = qa.SubCarry(qb)
			ws2, wc = Sub(a, b)
			if gs != Pack(ws2) || gc != wc {
				t.Fatalf("SubCarry(%v, %v) = (%v, %v), want (%v, %v)", a, b, gs, gc, ws2, wc)
			}
		}
	}
}

func TestPackedShiftsMatchSerial(t *testing.T) {
	for _, w := range allWords() {
		q := Pack(w)
		for n := -1; n <= WordTrits+1; n++ {
			if got, want := q.ShiftLeft(n), Pack(ShiftLeft(w, n)); got != want {
				t.Fatalf("ShiftLeft(%v, %d) = %v, want %v", w, n, got, want)
			}
			if got, want := q.ShiftRight(n), Pack(ShiftRight(w, n)); got != want {
				t.Fatalf("ShiftRight(%v, %d) = %v, want %v", w, n, got, want)
			}
		}
	}
}

func TestPackedFieldPanicsLikeWord(t *testing.T) {
	bad := [][2]int{{-1, 0}, {0, WordTrits}, {5, 4}}
	for _, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Field(%d,%d) did not panic", c[0], c[1])
				}
			}()
			Packed{}.Field(c[0], c[1])
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Trit(9) did not panic")
			}
		}()
		Packed{}.Trit(WordTrits)
	}()
}

// TestPackedAddExhaustiveSample pins the plane-ripple adder against exact
// integer arithmetic over a dense value grid, including both overflow
// directions.
func TestPackedAddExhaustiveSample(t *testing.T) {
	for a := MinInt; a <= MaxInt; a += 131 {
		qa := PackedFromInt(a)
		for b := MinInt; b <= MaxInt; b += 173 {
			sum, carry := qa.AddCarry(PackedFromInt(b))
			wrapped := sum.Int()
			if got, want := wrapped+int(carry)*WordStates, a+b; got != want {
				t.Fatalf("%d+%d: sum %d carry %v reconstructs %d", a, b, wrapped, carry, got)
			}
		}
	}
}
