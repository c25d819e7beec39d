package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/gate"
	"repro/internal/rv32"
	"repro/internal/sim"
	"repro/internal/xlate"
)

var updateLock = flag.Bool("update", false, "rewrite "+metricsLockPath+" from this build")

const metricsLockPath = "testdata/metrics.lock.json"

// metricsLock is the checked-in record of every metric the suite reports,
// keyed by the two versions the result cache folds into its keys. A change
// that moves any of these values for an unchanged program must bump one of
// them, or cached rows from older builds would replay as current.
type metricsLock struct {
	SemanticsVersion string                    `json:"semantics_version"`
	ModelDigest      string                    `json:"model_digest"`
	Workloads        map[string]lockedWorkload `json:"workloads"`
}

// lockedWorkload is one workload's report row plus what each ART-9 core
// observed: its full Result and the TIM/TDM access counts that feed the
// memory power model.
type lockedWorkload struct {
	Metrics         MetricsReport `json:"metrics"`
	Implementations []ImplReport  `json:"implementations"`
	Functional      lockedCore    `json:"functional"`
	Pipeline        lockedCore    `json:"pipeline"`
}

type lockedCore struct {
	Result sim.Result `json:"result"`
	TIM    [2]uint64  `json:"tim_reads_writes"`
	TDM    [2]uint64  `json:"tdm_reads_writes"`
}

// TestMetricsLock recomputes every locked value for the paper suite and the
// extended workloads under both built-in technologies and compares it with
// testdata/metrics.lock.json. Under the same SemanticsVersion and model
// digest every value must match; each difference is reported by workload
// and field, integers exactly and fractional values to a relative 1e-12
// (see sameLeaf). Under a different key the lock is stale and must be
// regenerated with -update.
func TestMetricsLock(t *testing.T) {
	got := metricsLock{
		SemanticsVersion: sim.SemanticsVersion,
		ModelDigest:      gate.ModelDigest(),
		Workloads:        map[string]lockedWorkload{},
	}
	techs := []*gate.Technology{gate.CNTFET32(), gate.StratixVEmulation()}
	for _, w := range append(append([]Workload{}, Workloads...), ExtendedWorkloads...) {
		o, err := Run(w, xlate.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fn, pl := runLockedCores(t, w)
		got.Workloads[w.Name] = lockedWorkload{
			Metrics:         *MetricsReportOf(o),
			Implementations: ImplReports(o, techs),
			Functional:      fn,
			Pipeline:        pl,
		}
	}

	if *updateLock {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsLockPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", metricsLockPath)
		return
	}

	raw, err := os.ReadFile(metricsLockPath)
	if err != nil {
		t.Fatalf("%v (generate it with go test ./internal/bench -run TestMetricsLock -update)", err)
	}
	var want metricsLock
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", metricsLockPath, err)
	}
	if want.SemanticsVersion != got.SemanticsVersion || want.ModelDigest != got.ModelDigest {
		t.Fatalf("%s was taken under %s / model %s, this build is %s / model %s: "+
			"regenerate it with go test ./internal/bench -run TestMetricsLock -update",
			metricsLockPath, want.SemanticsVersion, want.ModelDigest, got.SemanticsVersion, got.ModelDigest)
	}
	for name := range want.Workloads {
		if _, ok := got.Workloads[name]; !ok {
			t.Errorf("workload %s is locked but no longer in the suite", name)
		}
	}
	for name, g := range got.Workloads {
		w, ok := want.Workloads[name]
		if !ok {
			t.Errorf("workload %s is not in the lock", name)
			continue
		}
		gf, wf := flatten(t, g), flatten(t, w)
		for _, field := range unionKeys(gf, wf) {
			if gv, wv := gf[field], wf[field]; !sameLeaf(gv, wv) {
				t.Errorf("workload %s: %s = %s, locked %s", name, field, orMissing(gv), orMissing(wv))
			}
		}
	}
	if t.Failed() {
		t.Logf("a reported metric moved under an unchanged %s: fix the regression, or bump "+
			"sim.SemanticsVersion (or the technology fingerprint) and regenerate with -update", sim.SemanticsVersion)
	}
}

// runLockedCores runs w's translated program on each ART-9 core, loaded
// the way the harness loads it.
func runLockedCores(t *testing.T, w Workload) (fn, pl lockedCore) {
	t.Helper()
	rvProg, err := rv32.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	out, err := xlate.Translate(rvProg, xlate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(out.Asm)
	if err != nil {
		t.Fatal(err)
	}
	lock := func(s *sim.State, run func() (sim.Result, error)) lockedCore {
		if err := s.Load(p); err != nil {
			t.Fatal(err)
		}
		if err := s.TDM.SetAll(xlate.DataImage(rvProg)); err != nil {
			t.Fatal(err)
		}
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		c := lockedCore{Result: res}
		c.TIM[0], c.TIM[1] = s.TIM.Accesses()
		c.TDM[0], c.TDM[1] = s.TDM.Accesses()
		return c
	}
	f, pipe := sim.NewFunctional(sim.Config{}), sim.NewPipeline(sim.Config{})
	return lock(f.S, f.Run), lock(pipe.S, pipe.Run)
}

// flatten renders v as JSON and returns every leaf keyed by its path
// ("pipeline.result.ByOp[3]"), with numbers in their JSON text so that
// equal values compare equal as strings.
func flatten(t *testing.T, v any) map[string]string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		t.Fatal(err)
	}
	leaves := map[string]string{}
	var walk func(path string, n any)
	walk = func(path string, n any) {
		switch n := n.(type) {
		case map[string]any:
			for k, c := range n {
				if path != "" {
					k = path + "." + k
				}
				walk(k, c)
			}
		case []any:
			for i, c := range n {
				walk(fmt.Sprintf("%s[%d]", path, i), c)
			}
		default:
			leaves[path] = fmt.Sprint(n)
		}
	}
	walk("", tree)
	return leaves
}

// sameLeaf reports whether two flattened leaves agree. Strings and
// integers must match exactly. A number written with a fraction or an
// exponent is a float metric, which agrees to a relative 1e-12: the power
// model sums products, and Go lets a compiler fuse those into
// multiply-adds (gc does on arm64 and ppc64le), so the last bits of a
// float metric depend on the architecture the lock is checked on.
func sameLeaf(a, b string) bool {
	if a == b {
		return true
	}
	if !strings.ContainsAny(a+b, ".eE") {
		return false
	}
	x, errX := strconv.ParseFloat(a, 64)
	y, errY := strconv.ParseFloat(b, 64)
	if errX != nil || errY != nil {
		return false
	}
	return math.Abs(x-y) <= 1e-12*math.Max(math.Abs(x), math.Abs(y))
}

func unionKeys(a, b map[string]string) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func orMissing(v string) string {
	if v == "" {
		return "(missing)"
	}
	return v
}
