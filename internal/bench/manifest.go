package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/xlate"
)

// This file is the one manifest loader shared by every front end —
// cmd/art9-batch reads manifests from disk, internal/serve receives them
// as HTTP request bodies — so the two cannot drift on validation rules
// or error wording.

// Manifest names a batch of evaluation jobs plus the technologies to
// estimate each successful job's implementation against.
type Manifest struct {
	// Technologies lists design-technology models to evaluate each
	// job against: "cntfet32" and/or "stratixv".
	Technologies []string      `json:"technologies"`
	Jobs         []ManifestJob `json:"jobs"`
}

// ManifestJob names one program: exactly one of Workload (a built-in
// suite name), Source (inline RV32 assembly), or File (a path to RV32
// assembly, relative to the manifest) must be set.
type ManifestJob struct {
	Name       string `json:"name"`
	Workload   string `json:"workload,omitempty"`
	Source     string `json:"source,omitempty"`
	File       string `json:"file,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	// TimeoutMS bounds this job's evaluation in milliseconds (0: the
	// engine's default). It rides the wire, so the bound holds whether
	// the job runs locally or on a remote peer.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ParseManifest decodes and validates a manifest document.
func ParseManifest(raw []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if len(m.Jobs) == 0 {
		return nil, fmt.Errorf("manifest: no jobs")
	}
	return &m, nil
}

// LoadManifest reads and parses a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	m, err := ParseManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return m, nil
}

// Resolve turns one manifest entry into a runnable workload. dir is the
// base for relative File paths; the empty string disables File jobs
// entirely — the network-facing server resolves with dir == "" so a
// request body can never read server-side files.
func (mj ManifestJob) Resolve(dir string) (Workload, error) {
	set := 0
	for _, s := range []string{mj.Workload, mj.Source, mj.File} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return Workload{}, fmt.Errorf("job %q: exactly one of workload, source, file required", mj.Name)
	}
	iters := mj.Iterations
	if iters < 1 {
		iters = 1
	}
	switch {
	case mj.Workload != "":
		w, ok := ByName(mj.Workload)
		if !ok {
			return Workload{}, fmt.Errorf("job %q: unknown workload %q", mj.Name, mj.Workload)
		}
		if mj.Name != "" {
			w.Name = mj.Name
		}
		if mj.Iterations > 0 {
			w.Iterations = mj.Iterations
		}
		return w, nil
	case mj.Source != "":
		return Workload{Name: mj.Name, Description: "manifest inline source",
			Source: mj.Source, Iterations: iters}, nil
	default:
		if dir == "" {
			return Workload{}, fmt.Errorf("job %q: file jobs are not allowed here", mj.Name)
		}
		path := mj.File
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, path)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return Workload{}, fmt.Errorf("job %q: %w", mj.Name, err)
		}
		return Workload{Name: mj.Name, Description: "manifest file " + mj.File,
			Source: string(src), Iterations: iters}, nil
	}
}

// Workloads resolves every manifest entry (see ManifestJob.Resolve for
// the dir contract).
func (m *Manifest) Workloads(dir string) ([]Workload, error) {
	ws := make([]Workload, len(m.Jobs))
	for i, mj := range m.Jobs {
		w, err := mj.Resolve(dir)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

// JobSpec is the serializable description of one engine job, attached
// to engine.Job.Spec as a *JobSpec, the one shape remote backends and
// the result cache accept. Backends that cannot ship closures —
// the internal/remote HTTP client — re-create the work on a peer from
// it: the job rendered as a manifest entry (with the program inlined as
// source text, so file jobs travel by content, never by path) plus the
// technologies the peer should estimate implementations against.
type JobSpec struct {
	Job          ManifestJob `json:"job"`
	Technologies []string    `json:"technologies,omitempty"`
}

// EngineJobs resolves the manifest into engine jobs ready to submit,
// each running the full multi-core evaluation of its workload. The
// manifest's technologies and each entry's timeout ride on the jobs'
// JobSpecs, so a remote backend applies the same implementation
// estimates and per-job bounds the local path does. A JobSpec carries
// no translator options, so any opts but the defaults are refused (see
// SuiteJobs); the parameter stays only for existing callers.
func (m *Manifest) EngineJobs(dir string, opts xlate.Options) ([]engine.Job, error) {
	if opts != (xlate.Options{}) {
		return nil, fmt.Errorf("manifest: translator options %+v: a job spec carries only the defaults", opts)
	}
	ws, err := m.Workloads(dir)
	if err != nil {
		return nil, err
	}
	jobs := SuiteJobs(ws)
	for i, j := range jobs {
		spec := j.Spec.(*JobSpec)
		spec.Technologies = m.Technologies
		spec.Job.TimeoutMS = m.Jobs[i].TimeoutMS
		if ms := m.Jobs[i].TimeoutMS; ms > 0 {
			jobs[i].Timeout = time.Duration(ms) * time.Millisecond
		}
	}
	return jobs, nil
}

// ApplyJobTimeout stamps a default per-job bound onto jobs that carry
// none — a manifest entry's own timeout_ms always wins. The job's
// Timeout rides the wire spec (wireJobOf forwards it), so stamping here
// is what makes a front end's timeout flag hold on remote peers, where
// a local engine option cannot reach. Shared by art9-batch and
// internal/serve so the precedence rule cannot drift between them.
func ApplyJobTimeout(jobs []engine.Job, d time.Duration) {
	if d <= 0 {
		return
	}
	for i := range jobs {
		if jobs[i].Timeout == 0 {
			jobs[i].Timeout = d
		}
	}
}

// ResolveTechnologies maps manifest technology names to their models.
func (m *Manifest) ResolveTechnologies() ([]*gate.Technology, error) {
	return Technologies(m.Technologies)
}

// techModels is the technology registry: name → binding. The
// built-ins are the paper's two implementation targets; tests (and,
// eventually, pluggable scenario models) swap entries via
// RegisterTechnology. Guarded by techModelsMu because the dispatch
// path resolves names concurrently.
var (
	techModelsMu sync.RWMutex
	techModels   = map[string]techBinding{
		"cntfet32": bindTechnology(gate.CNTFET32),
		"stratixv": bindTechnology(gate.StratixVEmulation),
	}
)

// techBinding is one registered model, built once, and its
// fingerprint. The model is never handed out: Technologies returns
// clones, so no caller's edit can reach it or another caller.
type techBinding struct {
	model       *gate.Technology
	fingerprint string
}

func bindTechnology(build func() *gate.Technology) techBinding {
	model := build()
	return techBinding{model: model, fingerprint: model.Fingerprint()}
}

// RegisterTechnology binds name to a model constructor, replacing any
// previous binding, and returns a function restoring the prior state.
// This is how a test edits the technology table between runs — the
// result cache must key on the model's content (Fingerprint), so the
// edit must produce misses, never stale hits. build runs once, here:
// the registry keeps that model and its fingerprint for the binding's
// lifetime, so later edits to build's sources do not reach it.
func RegisterTechnology(name string, build func() *gate.Technology) (restore func()) {
	b := bindTechnology(build)
	techModelsMu.Lock()
	prev, had := techModels[name]
	techModels[name] = b
	techModelsMu.Unlock()
	return func() {
		techModelsMu.Lock()
		if had {
			techModels[name] = prev
		} else {
			delete(techModels, name)
		}
		techModelsMu.Unlock()
	}
}

// Technologies maps technology names to their models. Each call returns
// fresh clones of the registered models, already fingerprinted: a
// caller may edit what it is handed without affecting any other caller.
func Technologies(names []string) ([]*gate.Technology, error) {
	techModelsMu.RLock()
	defer techModelsMu.RUnlock()
	var techs []*gate.Technology
	for _, n := range names {
		b, ok := techModels[n]
		if !ok {
			return nil, unknownTechnology(n)
		}
		techs = append(techs, b.model.Clone())
	}
	return techs, nil
}

// appendTechnologyKeys appends each name and its registered model's
// fingerprint to parts — the technology half of a result key, read
// without building, cloning or hashing a model.
func appendTechnologyKeys(parts []string, names []string) ([]string, error) {
	techModelsMu.RLock()
	defer techModelsMu.RUnlock()
	for _, n := range names {
		b, ok := techModels[n]
		if !ok {
			return nil, unknownTechnology(n)
		}
		parts = append(parts, n, b.fingerprint)
	}
	return parts, nil
}

// unknownTechnology names n and the registered choices. Callers hold
// techModelsMu.
func unknownTechnology(n string) error {
	known := make([]string, 0, len(techModels))
	for k := range techModels {
		known = append(known, k)
	}
	sort.Strings(known)
	return fmt.Errorf("unknown technology %q (want %s)", n, strings.Join(known, " or "))
}
