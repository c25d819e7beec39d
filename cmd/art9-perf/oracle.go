package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/xlate"
)

// oracle holds every program's reference row, computed by the serial
// bench.Run path — no engine, no cache, no wire — and rendered with
// JobReportOf. Rows are kept in canonical form: elapsed_ms and worker,
// the two fields that legitimately vary between runs, are zeroed.
type oracle struct {
	rows map[string]bench.JobReport
	// digest is the sha256 over the canonical JSON rows in pool order:
	// two commits that simulate identically print the same digest.
	digest string
}

func buildOracle(progs []program) (*oracle, error) {
	o := &oracle{rows: make(map[string]bench.JobReport, len(progs))}
	h := sha256.New()
	for _, p := range progs {
		row, err := referenceRow(p)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(row)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", p.Name, err)
		}
		h.Write(raw)
		h.Write([]byte{'\n'})
		o.rows[p.Name] = row
	}
	o.digest = hex.EncodeToString(h.Sum(nil))
	return o, nil
}

func referenceRow(p program) (bench.JobReport, error) {
	techs, err := bench.Technologies(technologies)
	if err != nil {
		return bench.JobReport{}, err
	}
	out, err := bench.Run(bench.Workload{Name: p.Name, Source: p.Source, Iterations: p.Iterations}, xlate.Options{})
	if err != nil {
		return bench.JobReport{}, fmt.Errorf("oracle %s: %w", p.Name, err)
	}
	return canonical(bench.JobReportOf(engine.Result{ID: p.Name, Value: out}, techs)), nil
}

func canonical(jr bench.JobReport) bench.JobReport {
	jr.ElapsedMS, jr.Worker = 0, 0
	return jr
}

// matches reports whether p, run serially, renders exactly the reference
// row of the program it is named after — how a fresh variant (the same
// program with a unique comment) is shown to share its base's row.
func (o *oracle) matches(p program) error {
	row, err := referenceRow(p)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(row, o.rows[p.Name]) {
		return fmt.Errorf("oracle: variant of %s renders a different row", p.Name)
	}
	return nil
}

// check compares one request's rows with the reference rows and returns
// how many jobs succeeded. A job fails when its row is missing, not OK,
// or differs from the oracle in any field but elapsed_ms and worker.
// Rows may arrive in any order (a suite stream yields completion order).
func (o *oracle) check(req request, rows []bench.JobReport) (ok int) {
	used := make([]bool, len(req.names))
	for _, row := range rows {
		if !row.OK {
			continue
		}
		want, known := o.rows[row.Name]
		if !known || !reflect.DeepEqual(canonical(row), want) {
			continue
		}
		for i, name := range req.names {
			if name == row.Name && !used[i] {
				used[i] = true
				ok++
				break
			}
		}
	}
	return ok
}
