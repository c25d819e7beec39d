// Command art9-perf is the performance benchmark of the ART-9 evaluation
// stack. It generates seeded inputs, drives them through the public entry
// points — art9.New, bench.Manifest.EngineJobs, bench.JobReportOf,
// serve.New, remote peers behind art9.WithPeers — checks every result row
// against a serial oracle, and prints each metric by name with its unit
// and sample count.
//
//	go run . -seed 1                        # all workloads, one child process each
//	go run . -seed 1 -workload short-jobs   # one workload in this process
//	go run . -seed 1 -trace spans.jsonl     # traced run: per-layer metrics, spans as JSONL
//
// Run from this directory (it is a module of its own), or through run.sh
// from the repository root. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs (-trace 1 or -trace <path>)
// the per-layer ones; see README.md for both tables.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
)

// runSeconds is the measured time of every workload, the run length
// BENCHMARK.json declares.
const runSeconds = 20

type config struct {
	seed     int64
	workload string
	seconds  float64
	trace    bool
	spans    string // JSONL span file of a traced run ("" for none)
	out      string
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("art9-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceArg string
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed generates the same programs and request streams")
	fs.StringVar(&cfg.workload, "workload", "", "run one workload in this process (default: every workload, each in a child process)")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "measured time of each workload, in seconds")
	fs.StringVar(&traceArg, "trace", "0", `"1" for a traced run reporting per-layer metrics, a file path to also write its spans as JSONL, "0" for untraced`)
	fs.StringVar(&cfg.out, "o", "", "also write the results as a JSON document to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch traceArg {
	case "", "0":
	case "1":
		cfg.trace = true
	default:
		cfg.trace, cfg.spans = true, traceArg
	}
	if cfg.workload == "" {
		return runAll(ctx, cfg, stdout, stderr)
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "art9-perf: unknown workload %q\n", cfg.workload)
		return 2
	}
	res, err := runWorkload(ctx, w, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "art9-perf: %s: %v\n", w.name, err)
		return 1
	}
	if cfg.out != "" {
		if err := writeJSON(cfg.out, res); err != nil {
			fmt.Fprintf(stderr, "art9-perf: %v\n", err)
			return 1
		}
	}
	printLine(stdout, res.line())
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// result is one workload run.
type result struct {
	Workload      string                 `json:"workload"`
	Seed          int64                  `json:"seed"`
	Traced        bool                   `json:"traced"`
	Seconds       float64                `json:"seconds"`
	Clients       int                    `json:"clients"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	FailRatio     float64                `json:"fail_ratio"`
	OutputsDigest string                 `json:"outputs_digest"`
	GOMAXPROCS    int                    `json:"gomaxprocs"`
	NProc         int                    `json:"nproc"`
	GoVersion     string                 `json:"go_version"`
	Metrics       map[string]measurement `json:"metrics"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line holds the declared metrics of the run: the end-to-end ones of an
// untraced run, the per-layer ones of a traced run.
func (r *result) line() resultLine {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	l := resultLine{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			l.Metrics[d.Name] = metricValue{m.Value, m.Unit}
		}
	}
	return l
}

// runWorkload runs one workload in this process: generate its inputs,
// compute the oracle, then measure — untraced for the end-to-end metrics,
// or untraced and then traced for the per-layer ones.
func runWorkload(ctx context.Context, w workload, cfg config, stdout io.Writer) (*result, error) {
	measured := time.Duration(cfg.seconds * float64(time.Second))
	if measured <= 0 {
		return nil, fmt.Errorf("measured time %v: must be positive", measured)
	}
	res := &result{
		Workload: w.name, Seed: cfg.seed, Traced: cfg.trace, Seconds: measured.Seconds(),
		Clients:    min(w.clients, runtime.NumCPU()),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	fmt.Fprintf(stdout, "art9-perf %s seed=%d clients=%d gomaxprocs=%d nproc=%d %s traced=%v\n",
		w.name, cfg.seed, res.Clients, res.GOMAXPROCS, res.NProc, res.GoVersion, cfg.trace)

	in := w.inputs(cfg.seed)
	o, err := buildOracle(in.pool)
	if err != nil {
		return nil, err
	}
	for _, v := range in.variants {
		if err := o.matches(v); err != nil {
			return nil, err
		}
	}
	res.OutputsDigest = o.digest
	fmt.Fprintf(stdout, "outputs_digest %s (%d programs)\n", o.digest, len(in.pool))

	rn := &runner{ctx: ctx, w: w, in: in, o: o, res: res, measured: measured,
		warm: min(2*time.Second, measured/5), log: stdout}
	if cfg.trace {
		err = rn.traced(cfg.spans)
	} else {
		err = rn.untraced()
	}
	if err != nil {
		return nil, err
	}
	if res.Attempted > 0 {
		res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	}
	printMetrics(stdout, res)
	return res, nil
}

// runner is one workload run in progress.
type runner struct {
	ctx      context.Context
	w        workload
	in       *inputs
	o        *oracle
	res      *result
	measured time.Duration
	warm     time.Duration
	log      io.Writer
	// seq numbers every request of the stream across phases, so no fresh
	// variant is ever sent twice.
	seq atomic.Uint64
}

// warmUp primes r with every pool program, then runs its request stream
// for d, untimed.
func (rn *runner) warmUp(r *rig, d time.Duration) error {
	var pseq atomic.Uint64
	prime := func(i uint64) request { return rn.in.prime[i] }
	primed := drive(rn.ctx, r, rn.o, rn.res.Clients, &pseq, prime, uint64(len(rn.in.prime)), 0, nil)
	warmed := drive(rn.ctx, r, rn.o, rn.res.Clients, &rn.seq, rn.in.next, 0, d, nil)
	for _, ph := range []phase{primed, warmed} {
		if len(ph.errs) > 0 {
			return fmt.Errorf("warm-up: %w", ph.errs[0])
		}
		if ph.failed() > 0 {
			return fmt.Errorf("warm-up: %d of %d jobs disagree with the oracle", ph.failed(), ph.attempted)
		}
	}
	return rn.ctx.Err()
}

// run measures r for d, or until stop reports true, and books its jobs.
func (rn *runner) run(r *rig, d time.Duration, stop func() bool) phase {
	ph := drive(rn.ctx, r, rn.o, rn.res.Clients, &rn.seq, rn.in.next, 0, d, stop)
	rn.res.Attempted += ph.attempted
	rn.res.Failed += ph.failed()
	for i, err := range ph.errs {
		if i == 3 {
			fmt.Fprintf(rn.log, "... %d more request errors\n", len(ph.errs)-i)
			break
		}
		fmt.Fprintf(rn.log, "request error: %v\n", err)
	}
	return ph
}

// untraced measures the end-to-end metrics, then times set-up.
func (rn *runner) untraced() error {
	r, err := rn.w.open(rn.ctx, nil)
	if err != nil {
		return err
	}
	if err := rn.warmUp(r, rn.warm); err != nil {
		return errors.Join(err, r.close())
	}
	rss := sampleRSS()
	host := sampleHost()
	rt0 := readRuntime()
	ph := rn.run(r, rn.measured, nil)
	gc := readRuntime().sub(rt0)
	hostSamples := host.finish()
	rssMiB := rss.finish()
	if err := errors.Join(rn.ctx.Err(), r.close()); err != nil {
		return err
	}
	if len(rssMiB) == 0 {
		return fmt.Errorf("rss: no samples")
	}
	setup, err := setupTime(rn.ctx, rn.w, rn.in, rn.o, min(setupBudget, rn.measured/5))
	if err != nil {
		return err
	}
	rn.res.Metrics = endToEndMetrics(ph, rn.measured, gc, hostSamples, setup, rssMiB)
	return nil
}

// traceSlices is how many alternating untraced and traced slices a traced
// run's measured time is cut into, so machine drift falls on both sides
// alike and trace.overhead_frac compares like with like.
const traceSlices = 10

// traced measures the per-layer metrics on the instrumented topology,
// alternating with the untraced one for the runtime counters and the
// tracing overhead.
func (rn *runner) traced(spanPath string) error {
	t := newTracer()
	defer t.release()
	r, err := rn.w.open(rn.ctx, nil)
	if err != nil {
		return err
	}
	tr, err := rn.w.open(rn.ctx, t)
	if err != nil {
		return errors.Join(err, r.close())
	}
	li := layerInputs{workers: evaluatorWorkers}
	err = rn.slices(r, tr, t, &li)
	if cerr := errors.Join(tr.close(), r.close()); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	spans, dropped := t.snapshot()
	li.lt = aggregate(spans)
	for i := range li.counts {
		li.counts[i] = t.counts[i].Load()
	}
	if li.analyzeColdUS, err = analyzeColdUS(); err != nil {
		return err
	}
	rn.res.Metrics = layerMetrics(li)
	fmt.Fprintf(rn.log, "trace: %d spans (%d dropped) over %d requests, %.1fs traced phase\n",
		len(spans), dropped, li.lt.roots, li.traced.wall.Seconds())
	if spanPath != "" {
		return writeSpanFile(spanPath, t, spans)
	}
	return nil
}

// slices warms both topologies, then runs them in alternation, counting
// the runtime over the untraced slices and the caches and the Balancer
// over the traced ones.
func (rn *runner) slices(r, tr *rig, t *tracer, li *layerInputs) error {
	if err := rn.warmUp(r, rn.warm); err != nil {
		return err
	}
	if err := rn.warmUp(tr, rn.warm/2); err != nil {
		return err
	}
	t.reset()
	b := tr.balancer()
	var c0 uint64
	if b != nil {
		c0 = b.Chunks()
	}
	d := rn.measured / traceSlices
	for k := 0; k < traceSlices && !t.full() && rn.ctx.Err() == nil; k++ {
		rt0 := readRuntime()
		li.untraced.add(rn.run(r, d, nil))
		li.gc = li.gc.add(readRuntime().sub(rt0))
		p0, a0 := engine.SharedPrograms.Stats(), engine.SharedAnalyses.Stats()
		li.traced.add(rn.run(tr, d, t.full))
		li.programs = addDelta(li.programs, engine.SharedPrograms.Stats(), p0)
		li.analyses = addDelta(li.analyses, engine.SharedAnalyses.Stats(), a0)
	}
	if b != nil {
		li.chunks = b.Chunks() - c0
	}
	return rn.ctx.Err()
}

// addDelta adds the hits and misses between two cache snapshots to acc.
func addDelta(acc, now, then engine.CacheStats) engine.CacheStats {
	acc.Hits += now.Hits - then.Hits
	acc.Misses += now.Misses - then.Misses
	return acc
}

func printMetrics(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-14s %-32s %14.6g %-9s n=%d\n", res.Workload, n, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "%-14s %-32s %14.6g %-9s n=%d\n", res.Workload, "fail_ratio", res.FailRatio, "ratio", res.Attempted)
}

func printLine(w io.Writer, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of floats and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", raw)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func writeSpanFile(path string, t *tracer, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := t.writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// runAll runs every workload in a child process of its own, so memory and
// GC state never carry from one workload into the next, and prints one
// combined result line.
func runAll(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "art9-perf: %v\n", err)
		return 1
	}
	all := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	doc := map[string]any{"seed": cfg.seed, "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go_version": runtime.Version()}
	lines := map[string]resultLine{}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0"}
		if cfg.spans != "" {
			ext := filepath.Ext(cfg.spans)
			args[len(args)-1] = strings.TrimSuffix(cfg.spans, ext) + "." + w.name + ext
		} else if cfg.trace {
			args[len(args)-1] = "1"
		}
		line, err := runChild(ctx, exe, args, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "art9-perf: %s: %v\n", w.name, err)
			all.Correct = false
			code = 1
			if ctx.Err() != nil {
				break
			}
			continue
		}
		lines[w.name] = line
		all.Correct = all.Correct && line.Correct
		all.Attempted += line.Attempted
		all.Failed += line.Failed
		for n, m := range line.Metrics {
			all.Metrics[w.name+"/"+n] = m
		}
	}
	doc["workloads"] = lines
	if cfg.out != "" {
		if err := writeJSON(cfg.out, doc); err != nil {
			fmt.Fprintf(stderr, "art9-perf: %v\n", err)
			code = 1
		}
	}
	printLine(stdout, all)
	return code
}

// runChild runs one workload child, echoes its output, and returns its
// result line.
func runChild(ctx context.Context, exe string, args []string, stdout, stderr io.Writer) (resultLine, error) {
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout, cmd.Stderr = &out, stderr
	err := cmd.Run()
	text := strings.TrimRight(out.String(), "\n")
	body, last := "", text
	if i := strings.LastIndexByte(text, '\n'); i >= 0 {
		body, last = text[:i+1], text[i+1:]
	}
	fmt.Fprint(stdout, body)
	if err != nil {
		fmt.Fprintln(stdout, last)
		return resultLine{}, err
	}
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return resultLine{}, fmt.Errorf("result line: %w", err)
	}
	return line, nil
}
