package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/remote"
	"repro/internal/remote/flagtest"
	"repro/internal/serve"
)

// TestValidateFleetFlags runs the shared fleet-flag cases written for
// art9-serve's -shards default, the one main registers the fleet flags with.
// internal/remote's TestFleetFlags checks the same cases' wording.
func TestValidateFleetFlags(t *testing.T) { flagtest.Run(t, shardsDefault, nil) }

// TestListeningLineCountsBuiltShards builds the server from fleet flags
// whose -shards value is not the shard count that runs, and pins that the
// start-up line prints the count /v1/healthz reports.
func TestListeningLineCountsBuiltShards(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-autoscale-max", "2", "-workers", "1"}, "(1 shard(s): 1 local, 0 peer(s))"},
		{[]string{"-shards", "0", "-workers", "1"}, "(1 shard(s): 1 local, 0 peer(s))"},
		{[]string{"-shards", "2", "-workers", "1"}, "(2 shard(s): 2 local, 0 peer(s))"},
		{[]string{"-workers", "1", "-peers", "http://127.0.0.1:9", "-health-interval", "-1s"}, "(2 shard(s): 1 local, 1 peer(s))"},
	} {
		fs := flag.NewFlagSet("art9-serve", flag.ContinueOnError)
		fleetConfig := remote.FleetFlags(fs, shardsDefault)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		cfg, _, err := fleetConfig()
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		srv, err := serve.New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
		var health struct{ Shards int }
		if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
			t.Fatalf("%v: healthz: %v", c.args, err)
		}
		line := listeningLine(":9009", srv, len(cfg.Peers))
		srv.Close()
		if !strings.Contains(line, c.want) || !strings.Contains(line, fmt.Sprintf("(%d shard(s)", health.Shards)) {
			t.Errorf("%v: start-up line %q, healthz shards %d; want %s", c.args, line, health.Shards, c.want)
		}
	}
}
