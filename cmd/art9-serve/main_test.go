package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/remote"
)

// fakePeers renders n placeholder peer URLs — validation only counts
// them, so the hosts never resolve.
func fakePeers(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = "http://peer.invalid:9009"
	}
	return urls
}

// TestValidateFleetFlags pins the server's flag-validation contract,
// which differs from art9-batch only in its -shards default (1): the
// balancer tuning flags require a balanced topology (more than one
// shard, or peers), autoscale tuning requires
// -autoscale-min/-autoscale-max, and multi-backend fleets pass clean.
// Hard errors wrap engine.ErrInvalidOptions — the same typed error
// art9.New returns.
func TestValidateFleetFlags(t *testing.T) {
	tests := []struct {
		name    string
		cfg     remote.BackendConfig
		wantErr string
	}{
		{name: "default server is clean", cfg: remote.BackendConfig{Shards: 1}},
		{name: "chunk without failover", cfg: remote.BackendConfig{Shards: 1, Chunk: 4}, wantErr: "-chunk"},
		{name: "max-retries without failover", cfg: remote.BackendConfig{Shards: 1, MaxRetries: 1},
			wantErr: "-max-retries"},
		{name: "health-interval without failover",
			cfg:     remote.BackendConfig{Shards: 1, HealthInterval: 5 * time.Second},
			wantErr: "-health-interval"},
		{name: "negative chunk rejected",
			cfg:     remote.BackendConfig{Chunk: -3, Peers: fakePeers(2)},
			wantErr: "-chunk must be >= 0"},
		{name: "failover on the default single shard",
			cfg: remote.BackendConfig{Shards: 1, MaxRetries: -1, HealthInterval: -1}, wantErr: "nothing to fail over to"},
		{name: "failover proxy-only front", cfg: remote.BackendConfig{Peers: fakePeers(2), HealthInterval: time.Second}},
		{name: "failover mixed fleet", cfg: remote.BackendConfig{Shards: 1, Peers: fakePeers(1), MaxRetries: 1}},
		{name: "chunked failover fleet",
			cfg: remote.BackendConfig{Chunk: 8, Peers: fakePeers(2)}},
		{name: "elastic server pool", cfg: remote.BackendConfig{AutoscaleMin: 1, AutoscaleMax: 4}},
		{name: "autoscale with the fixed shard flag",
			cfg:     remote.BackendConfig{Shards: 2, AutoscaleMax: 4},
			wantErr: "-shards"},
		{name: "standby peers without autoscale",
			cfg:     remote.BackendConfig{Shards: 1, StandbyPeers: fakePeers(1)},
			wantErr: "-standby-peers"},
		{name: "autoscale bounds inverted",
			cfg:     remote.BackendConfig{AutoscaleMin: 3, AutoscaleMax: 1},
			wantErr: "bounds inverted"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			warn, err := validateFleetFlags(tt.cfg)
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("err = %v, want containing %q", err, tt.wantErr)
				}
				if !errors.Is(err, engine.ErrInvalidOptions) {
					t.Fatalf("err = %v, want wrapping engine.ErrInvalidOptions", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if warn != "" {
				t.Fatalf("unexpected warning %q", warn)
			}
		})
	}
}
