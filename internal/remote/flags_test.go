package remote_test

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/remote"
	"repro/internal/remote/flagtest"
)

// TestFleetFlags runs the shared fleet-flag cases for both CLIs'
// -shards defaults, checking the text of every diagnostic, then checks that each flag reaches its
// BackendConfig field: the -shards defaults, the unset -shards dropped
// under autoscaling, ART9_CACHE_EPOCH precedence and URL lists with
// blank entries.
func TestFleetFlags(t *testing.T) {
	for _, shards := range []int{0, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			flagtest.Run(t, shards, func(t *testing.T, substr, warn string, err error) {
				if err != nil && !strings.Contains(err.Error(), substr) {
					t.Fatalf("err = %v, want containing %q", err, substr)
				}
				if err == nil && !strings.Contains(warn, substr) {
					t.Fatalf("warning %q, want containing %q", warn, substr)
				}
			})
		})
	}
	for _, tc := range []struct {
		name    string
		shards  int
		args    []string
		env     string // ART9_CACHE_EPOCH
		want    remote.BackendConfig
		wantErr string
	}{
		{
			// No valid topology sets every knob (autoscaling excludes a
			// fixed shard count), so this one also errs; the config
			// still comes back as read.
			name: "every flag reaches its field", shards: 1,
			args: []string{"-shards", "3", "-workers", "4", "-peers", "http://p1.invalid",
				"-health-interval", "5s", "-max-retries", "6", "-chunk", "7",
				"-autoscale-min", "2", "-autoscale-max", "8", "-standby-peers", "http://s1.invalid",
				"-scale-up", "0.9", "-scale-down", "0.1", "-scale-cooldown", "3s", "-scale-interval", "2s",
				"-cache", "-cache-peers", "http://c1.invalid", "-cache-max-bytes", "1024", "-cache-epoch", "9"},
			want: remote.BackendConfig{
				Shards: 3, Workers: 4, Peers: []string{"http://p1.invalid"},
				HealthInterval: 5 * time.Second, MaxRetries: 6, Chunk: 7,
				AutoscaleMin: 2, AutoscaleMax: 8, StandbyPeers: []string{"http://s1.invalid"},
				ScaleUpThreshold: 0.9, ScaleDownThreshold: 0.1,
				ScaleCooldown: 3 * time.Second, ScaleInterval: 2 * time.Second,
				Cache: true, CachePeers: []string{"http://c1.invalid"}, CacheMaxBytes: 1024, CacheEpoch: 9,
			},
			wantErr: "-shards fixes the shard count",
		},
		{name: "art9-batch -shards default", shards: 0, want: remote.BackendConfig{}},
		{name: "art9-serve -shards default", shards: 1, want: remote.BackendConfig{Shards: 1}},
		{name: "unset -shards dropped under autoscaling", shards: 1, args: []string{"-autoscale-max", "2"},
			want: remote.BackendConfig{AutoscaleMax: 2}},
		{name: "set -shards kept under autoscaling", shards: 1, args: []string{"-shards", "1", "-autoscale-max", "2"},
			want: remote.BackendConfig{Shards: 1, AutoscaleMax: 2}, wantErr: "-shards fixes the shard count"},
		{name: "epoch from the environment", env: "7", args: []string{"-cache"},
			want: remote.BackendConfig{Cache: true, CacheEpoch: 7}},
		{name: "epoch flag wins over the environment", env: "7", args: []string{"-cache", "-cache-epoch", "3"},
			want: remote.BackendConfig{Cache: true, CacheEpoch: 3}},
		{name: "explicit zero epoch wins over the environment", env: "7", args: []string{"-cache", "-cache-epoch", "0"},
			want: remote.BackendConfig{Cache: true}},
		{name: "environment epoch ignored without -cache", env: "7", want: remote.BackendConfig{}},
		{name: "malformed environment epoch reads 0", env: "seven", args: []string{"-cache"},
			want: remote.BackendConfig{Cache: true}},
		{name: "URL lists drop blank entries",
			args: []string{"-peers", " http://p1.invalid, ,http://p2.invalid,", "-cache", "-cache-peers", ",",
				"-shards", "2"},
			want: remote.BackendConfig{Shards: 2, Peers: []string{"http://p1.invalid", "http://p2.invalid"}, Cache: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("ART9_CACHE_EPOCH", tc.env)
			fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			read := remote.FleetFlags(fs, tc.shards)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got, _, err := read()
			if tc.wantErr == "" && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("config\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
