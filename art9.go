// Package art9 is the public API of the ART-9 reproduction: the design and
// evaluation frameworks for the advanced RISC-based ternary processor of
// Kam et al. (DATE 2022), implemented in pure Go.
//
// The package re-exports the supported surface of the internal packages:
//
//   - balanced ternary arithmetic (Trit, Word),
//   - the ART-9 ISA, assembler and disassembler,
//   - the software-level compiling framework (RV32 assembly → ternary
//     assembly with instruction mapping, operand conversion / register
//     renaming, and redundancy checking),
//   - the hardware-level evaluation framework (functional and 5-stage
//     pipelined cycle-accurate simulators, gate-level analyzer with the
//     CNTFET and FPGA technology models, performance estimator),
//   - the §V-A benchmark suite and the harness regenerating Fig. 5 and
//     Tables II–V.
//
// Quick start:
//
//	prog, err := art9.Assemble("LDI T1, 42\nADDI T1, 1\nHALT")
//	state, res, err := art9.Run(prog, nil)
//	fmt.Println(state.Reg(1).Int(), res.Cycles)
package art9

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/isa"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/ternary"
	"repro/internal/xlate"
)

// Ternary number system.
type (
	// Trit is a balanced ternary digit (−1, 0, +1).
	Trit = ternary.Trit
	// Word is the 9-trit ART-9 machine word.
	Word = ternary.Word
)

// Word-range constants of the 9-trit architecture.
const (
	WordTrits = ternary.WordTrits
	MaxInt    = ternary.MaxInt
	MinInt    = ternary.MinInt
)

// FromInt converts an integer to a 9-trit word (wrapping modulo 3^9).
func FromInt(v int) Word { return ternary.FromInt(v) }

// ParseWord parses a balanced ternary literal such as "1T0".
func ParseWord(s string) (Word, error) { return ternary.ParseWord(s) }

// ISA surface.
type (
	// Inst is a decoded ART-9 instruction.
	Inst = isa.Inst
	// Op is an ART-9 opcode (24 instructions, Table I).
	Op = isa.Op
	// Reg is a ternary register index T0…T8.
	Reg = isa.Reg
)

// EncodeInst encodes an instruction into its 9-trit word.
func EncodeInst(i Inst) (Word, error) { return isa.Encode(i) }

// DecodeInst decodes a 9-trit word into an instruction.
func DecodeInst(w Word) (Inst, error) { return isa.Decode(w) }

// Assembler.
type (
	// Program is an assembled ART-9 program.
	Program = asm.Program
)

// Assemble assembles ART-9 assembly source.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// Disassemble renders an encoded TIM image as assembly text.
func Disassemble(words []Word) string { return asm.Disassemble(words) }

// Simulation.
type (
	// State is the architectural state of an ART-9 core.
	State = sim.State
	// RunResult carries cycle/instruction/stall counts.
	RunResult = sim.Result
	// SimConfig sizes a simulated machine.
	SimConfig = sim.Config
)

// Run executes a program on the cycle-accurate 5-stage pipelined core with
// optional TDM initialisation, returning the final state and statistics.
// An optional SimConfig sizes the machine (memory words, step budget);
// omitted, the full 9-trit address space and default budget apply.
func Run(p *Program, data map[int]Word, cfg ...SimConfig) (*State, RunResult, error) {
	c, err := oneConfig(cfg)
	if err != nil {
		return nil, RunResult{}, err
	}
	pl := sim.NewPipeline(c)
	if err := pl.S.Load(p); err != nil {
		return nil, RunResult{}, err
	}
	if data != nil {
		if err := pl.S.TDM.SetAll(data); err != nil {
			return nil, RunResult{}, err
		}
	}
	res, err := pl.Run()
	return pl.S, res, err
}

// RunFunctional executes a program on the single-cycle reference core,
// with the same optional machine sizing as Run.
func RunFunctional(p *Program, data map[int]Word, cfg ...SimConfig) (*State, RunResult, error) {
	c, err := oneConfig(cfg)
	if err != nil {
		return nil, RunResult{}, err
	}
	return core.RunFunctional(p, data, c)
}

// oneConfig unwraps the optional trailing SimConfig of Run and
// RunFunctional. Passing more than one is an error — the extras used to
// be silently discarded, which hid caller bugs where two configs
// disagreed about the machine size.
func oneConfig(cfg []SimConfig) (SimConfig, error) {
	switch len(cfg) {
	case 0:
		return SimConfig{}, nil
	case 1:
		return cfg[0], nil
	default:
		return SimConfig{}, fmt.Errorf("art9: at most one SimConfig may be passed (got %d)", len(cfg))
	}
}

// Software-level compiling framework (§III-A).
type (
	// SoftwareFramework converts RV32 assembly into ART-9 assembly.
	SoftwareFramework = core.SoftwareFramework
	// CompileResult is its output bundle.
	CompileResult = core.CompileResult
	// TranslateOptions tune the instruction-mapping phase.
	TranslateOptions = xlate.Options
)

// Compile translates RV32 assembly source with default options.
func Compile(rvSource string) (*CompileResult, error) {
	f := &SoftwareFramework{}
	return f.Compile(rvSource)
}

// Hardware-level evaluation framework (§III-B).
type (
	// HardwareFramework evaluates a program against a technology.
	HardwareFramework = core.HardwareFramework
	// Evaluation is its combined output.
	Evaluation = core.Evaluation
	// Technology is a design-technology property description.
	Technology = gate.Technology
	// Analysis is a gate-level timing/power report.
	Analysis = gate.Analysis
	// Implementation is a Table IV/V style summary.
	Implementation = perf.Implementation
)

// CNTFET32 returns the 32 nm CNTFET ternary technology model (Table IV).
func CNTFET32() *Technology { return gate.CNTFET32() }

// StratixVEmulation returns the binary-encoded FPGA model (Table V).
func StratixVEmulation() *Technology { return gate.StratixVEmulation() }

// BuildNetlist constructs the structural netlist of the pipelined ART-9
// core and analyzes it for the given technology.
func BuildNetlist(tech *Technology) *Analysis {
	return gate.Analyze(gate.BuildART9(), tech)
}

// Benchmarks (§V-A).
type (
	// Workload is one benchmark program of the suite.
	Workload = bench.Workload
	// Outcome carries every per-benchmark metric.
	Outcome = bench.Outcome
	// JobReport is one evaluation report row — the schema shared by
	// art9-batch reports and the art9-serve NDJSON stream. Results
	// from remote backends carry a *JobReport as their Value (the row
	// the peer rendered), where local results carry *Outcome.
	JobReport = bench.JobReport
	// CachedRow is the Value of a result the result cache answered
	// (WithResultCache): the stored report row, kept as bytes. Its
	// Report method decodes it.
	CachedRow = bench.CachedRow
)

// Benchmarks returns the §V-A suite (bubble, GEMM, Sobel, Dhrystone).
func Benchmarks() []Workload { return bench.Workloads }

// RunBenchmark runs one workload on every core model with self-checking.
func RunBenchmark(w Workload) (*Outcome, error) {
	return bench.Run(w, xlate.Options{})
}

// ReproduceTables runs the whole suite and renders Fig. 5 and Tables II–V.
func ReproduceTables() (string, error) { return bench.AllTables() }

// Concurrent batch evaluation: one Evaluator interface, many backends.
type (
	// Evaluator is the one backend interface of the evaluation stack:
	// Run (submission-order batch), Stream (completion-order channel),
	// Stats, Close. A local worker pool (Engine), the Balancer front
	// over other evaluators and an HTTP client proxying to a remote
	// art9-serve instance all implement it and compose freely; build
	// one with New.
	Evaluator = engine.Evaluator
	// Engine is the local worker-pool backend; its jobs share the
	// process-wide memoization caches for assembled programs and
	// gate-level analyses.
	Engine = engine.Engine
	// EngineOptions size the pool and set the default per-job timeout.
	EngineOptions = engine.Options
	// EngineJob is one unit of evaluation work.
	EngineJob = engine.Job
	// EngineResult is the outcome of one engine job.
	EngineResult = engine.Result
	// EngineStats are an evaluator's lifetime counters.
	EngineStats = engine.Stats
	// Balancer is the health-aware failover front: least-loaded
	// dispatch over any mix of backends, periodic liveness probes, and
	// bounded job-level failover when a backend dies mid-suite. New
	// builds one for every topology with more than one backend
	// (New(WithShards(2)), New(WithPeers(...)), ...) and for an elastic
	// pool (New(WithAutoscale(min, max))), whose Autoscaler method
	// returns its scaling policy.
	Balancer = engine.Balancer
	// BackendHealth is one balanced backend's dispatch/failover/probe
	// scorecard, as reported by Balancer.Health and BENCH reports.
	BackendHealth = engine.BackendHealth
	// Capacity is a backend's point-in-time load snapshot (live
	// workers, busy, free, queue depth) — served by GET /v1/capacity,
	// scraped from remote peers by the Balancer's probe loop, and used to
	// size chunked dispatch to them (New(WithPeers(...), WithChunk(n))).
	// In-process shards are not scraped: the Balancer counts their load.
	Capacity = engine.Capacity
	// Autoscaler is the scaling policy of an elastic pool: it grows and
	// shrinks a Balancer's local shards between bounds — recruiting
	// standby peers under burst — from the queue-depth/utilization
	// signal, draining every retired member before it closes. Build the
	// pool with New(WithAutoscale(min, max), ...) and reach the policy
	// with ev.(*Balancer).Autoscaler().
	Autoscaler = engine.Autoscaler
	// ScaleEvent records one autoscaler pool transition, as carried by
	// BENCH reports and /v1/stats.
	ScaleEvent = engine.ScaleEvent
	// ScaleState is the autoscaler's point-in-time pool summary.
	ScaleState = engine.ScaleState
)

// Typed evaluation errors, for errors.Is across every backend — the
// remote client maps the serve layer's 503/504 back onto them, so the
// checks work identically whether the job ran in-process or on a peer.
var (
	// ErrClosed resolves jobs submitted to a closed evaluator.
	ErrClosed = engine.ErrClosed
	// ErrTimeout wraps job failures caused by a per-job timeout.
	ErrTimeout = engine.ErrTimeout
	// ErrUnavailable wraps backend-level failures — an unreachable
	// peer, a severed result stream — the class a failover Balancer
	// responds to by re-running the job elsewhere.
	ErrUnavailable = engine.ErrUnavailable
	// ErrInvalidOptions wraps New's rejection of incoherent option
	// combinations — balancer tuning on a lone local engine, autoscale
	// tuning without WithAutoscale, inverted bounds or thresholds. The
	// message names the offending options.
	ErrInvalidOptions = engine.ErrInvalidOptions
)

// NewEngine starts a local worker pool (0 workers selects GOMAXPROCS).
// Call Close on the returned engine when done. For anything beyond a
// plain local pool — shards, remote peers — use New.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// SuiteJobs returns the §V-A benchmark suite as evaluation jobs ready
// for any Evaluator, each carrying the serializable spec remote
// backends ship to peers. Successful local results hold *Outcome;
// results from remote backends hold the peer's report row.
func SuiteJobs() []EngineJob {
	return bench.SuiteJobs(bench.Workloads)
}
