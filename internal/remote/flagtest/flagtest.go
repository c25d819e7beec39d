// Package flagtest holds the one table of fleet-flag cases (cases.txt):
// an argv, the -shards default of the CLI it was written for, and the
// outcome remote.FleetFlags must answer. art9-batch and art9-serve run
// the cases written for their own -shards default, so each CLI's default
// is pinned where it is declared; internal/remote runs every case and
// also checks the text of each diagnostic.
package flagtest

import (
	_ "embed"
	"errors"
	"flag"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/remote"
)

//go:embed cases.txt
var cases string

// Run parses each case written for the -shards default shards through a
// fresh remote.FleetFlags flag set, one subtest per case, and checks the
// kind of its outcome: an error wrapping engine.ErrInvalidOptions (the
// typed error art9.New returns for the library spelling), a warning, or
// neither. A non-nil text is then called with the case's expected
// substring and the outcome, to check the diagnostic's wording.
func Run(t *testing.T, shards int, text func(t *testing.T, substr, warn string, err error)) {
	ran := 0
	for _, line := range strings.Split(cases, "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "|")
		if len(f) != 4 {
			t.Fatalf("cases.txt: %q: want 4 fields separated by |", line)
		}
		for i := range f {
			f[i] = strings.TrimSpace(f[i])
		}
		def, err := strconv.Atoi(f[0])
		if err != nil {
			t.Fatalf("cases.txt: %q: %v", line, err)
		}
		if def != shards {
			continue
		}
		ran++
		name, args := f[1], strings.Fields(f[2])
		kind, substr, _ := strings.Cut(f[3], " ")
		t.Run(name, func(t *testing.T) {
			fs := flag.NewFlagSet(name, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			read := remote.FleetFlags(fs, shards)
			if err := fs.Parse(args); err != nil {
				t.Fatalf("parse %q: %v", args, err)
			}
			_, warn, err := read()
			switch {
			case kind != "err" && kind != "warn" && kind != "ok":
				t.Fatalf("cases.txt: want %q: not ok, err or warn", f[3])
			case kind == "err" && !errors.Is(err, engine.ErrInvalidOptions):
				t.Fatalf("err = %v, want one wrapping engine.ErrInvalidOptions", err)
			case kind != "err" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case kind == "warn" && warn == "", kind == "ok" && warn != "":
				t.Fatalf("warning %q, want %s", warn, f[3])
			}
			if text != nil {
				text(t, substr, warn, err)
			}
		})
	}
	if ran == 0 {
		t.Fatalf("cases.txt has no case for -shards default %d", shards)
	}
}
