package bench

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/xlate"
)

// TestRunAllMatchesSerial is the determinism contract of the concurrent
// engine: fanning the suite out must change nothing but wall-clock time.
func TestRunAllMatchesSerial(t *testing.T) {
	serial, err := RunAllSerial()
	if err != nil {
		t.Fatal(err)
	}
	conc, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(conc) != len(serial) {
		t.Fatalf("concurrent run produced %d outcomes, serial %d", len(conc), len(serial))
	}
	for name, so := range serial {
		co, ok := conc[name]
		if !ok {
			t.Fatalf("workload %s missing from concurrent run", name)
		}
		if !reflect.DeepEqual(so, co) {
			t.Errorf("workload %s: concurrent outcome diverges from serial:\nserial:     %+v\nconcurrent: %+v", name, so, co)
		}
	}
}

// TestAllTablesByteIdentical pins the acceptance criterion directly: the
// engine-backed AllTables must render byte-identical artifacts to the
// serial path.
func TestAllTablesByteIdentical(t *testing.T) {
	serial, err := RunAllSerial()
	if err != nil {
		t.Fatal(err)
	}
	want := RenderTables(serial)

	got, err := AllTables()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("concurrent tables differ from serial rendering:\n--- serial ---\n%s\n--- concurrent ---\n%s", want, got)
	}

	eng := engine.New(engine.Options{Workers: 3})
	defer eng.Close()
	got2, err := AllTablesOn(context.Background(), eng)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != want {
		t.Error("AllTablesOn output differs from serial rendering")
	}
}

func TestRunCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, BubbleSort, xlate.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

func TestImplForMatchesTables(t *testing.T) {
	dhry, err := Run(Dhrystone, xlate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cntfet, _ := Table4(dhry)
	if got := ImplFor(dhry, gate.CNTFET32()); got != cntfet {
		t.Errorf("ImplFor(cntfet) = %+v, want Table IV's %+v", got, cntfet)
	}
	fpga, _ := Table5(dhry)
	if got := ImplFor(dhry, gate.StratixVEmulation()); got != fpga {
		t.Errorf("ImplFor(fpga) = %+v, want Table V's %+v", got, fpga)
	}
}

func TestRunAllOnCancelled(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunAllOn(ctx, eng)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

func TestSuiteJobsCoverEveryWorkload(t *testing.T) {
	jobs := SuiteJobs(Workloads)
	if len(jobs) != len(Workloads) {
		t.Fatalf("%d jobs for %d workloads", len(jobs), len(Workloads))
	}
	for i, j := range jobs {
		if j.ID != Workloads[i].Name {
			t.Errorf("job %d: ID %q, want %q", i, j.ID, Workloads[i].Name)
		}
	}
}

// The committed speedup demonstration: BenchmarkRunAllSerial vs
// BenchmarkRunAllEngine. On a single core the two are equivalent (the
// engine degenerates to one worker); on >= 2 cores the engine path wins
// because the four workloads run concurrently.
func BenchmarkRunAllSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunAllSerial(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllEngineShared reuses one engine (pool and caches warm)
// across iterations — the steady-state batch-serving shape.
func BenchmarkRunAllEngineShared(b *testing.B) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunAllOn(ctx, eng); err != nil {
			b.Fatal(err)
		}
	}
}
