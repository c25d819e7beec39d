// Facade tests for New's option validation: every incoherent
// combination is rejected with an error wrapping the typed
// ErrInvalidOptions and naming the offending options, never silently
// ignored.
package art9_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	art9 "repro"
)

func TestNewRejectsInvalidOptionCombinations(t *testing.T) {
	tests := []struct {
		name string
		opts []art9.Option
		want string // substring of the diagnostic
	}{
		{name: "chunk without failover",
			opts: []art9.Option{art9.WithChunk(8)},
			want: "WithChunk"},
		{name: "max-retries without failover",
			opts: []art9.Option{art9.WithShards(1), art9.WithMaxRetries(3)},
			want: "WithMaxRetries"},
		{name: "health-interval without failover",
			opts: []art9.Option{art9.WithHealthInterval(time.Second)},
			want: "WithHealthInterval"},
		{name: "all failover orphans named together",
			opts: []art9.Option{art9.WithChunk(8), art9.WithMaxRetries(3), art9.WithHealthInterval(time.Second)},
			want: "WithChunk, WithMaxRetries, WithHealthInterval"},
		{name: "negative tuning still needs failover",
			opts: []art9.Option{art9.WithMaxRetries(-1), art9.WithHealthInterval(-1)},
			want: "nothing to fail over to; add WithPeers or WithShards above 1"},
		{name: "negative chunk",
			opts: []art9.Option{art9.WithShards(2), art9.WithChunk(-1)},
			want: "WithChunk must be >= 0"},
		{name: "cache peers without result cache",
			opts: []art9.Option{art9.WithCachePeers("http://h:1")},
			want: "WithCachePeers"},
		{name: "cache bound without result cache",
			opts: []art9.Option{art9.WithCacheMaxBytes(1 << 20)},
			want: "WithCacheMaxBytes"},
		{name: "negative cache bound",
			opts: []art9.Option{art9.WithResultCache(), art9.WithCacheMaxBytes(-1)},
			want: "WithCacheMaxBytes must be >= 0"},
		{name: "autoscale bounds inverted",
			opts: []art9.Option{art9.WithAutoscale(4, 2)},
			want: "bounds inverted"},
		{name: "negative autoscale bound",
			opts: []art9.Option{art9.WithAutoscale(-1, 2)},
			want: "WithAutoscale bounds must be >= 0"},
		{name: "standby peers without autoscale",
			opts: []art9.Option{art9.WithStandbyPeers("http://peer.invalid:9009")},
			want: "WithStandbyPeers"},
		{name: "thresholds without autoscale",
			opts: []art9.Option{art9.WithScaleThresholds(0.9, 0.1)},
			want: "WithScaleThresholds"},
		{name: "cooldown without autoscale",
			opts: []art9.Option{art9.WithScaleCooldown(time.Second)},
			want: "WithScaleCooldown"},
		{name: "interval without autoscale",
			opts: []art9.Option{art9.WithScaleInterval(time.Second)},
			want: "WithScaleInterval"},
		{name: "every scale orphan named together",
			opts: []art9.Option{art9.WithStandbyPeers("http://peer.invalid:9009"),
				art9.WithScaleThresholds(0.9, 0.1), art9.WithScaleCooldown(time.Second),
				art9.WithScaleInterval(time.Second)},
			want: "WithStandbyPeers, WithScaleThresholds, WithScaleCooldown, WithScaleInterval"},
		{name: "autoscale mixed with failover",
			opts: []art9.Option{art9.WithAutoscale(1, 4), art9.WithMaxRetries(1)},
			want: "WithMaxRetries: tunes a fixed balancer, but WithAutoscale builds an elastic pool"},
		{name: "autoscale mixed with fixed shards",
			opts: []art9.Option{art9.WithAutoscale(1, 4), art9.WithShards(2)},
			want: "WithShards"},
		{name: "autoscale mixed with fixed peers",
			opts: []art9.Option{art9.WithAutoscale(1, 4), art9.WithPeers("http://peer.invalid:9009")},
			want: "WithStandbyPeers instead"},
		{name: "up threshold out of range",
			opts: []art9.Option{art9.WithAutoscale(1, 4), art9.WithScaleThresholds(1.5, 0.1)},
			want: "within [0,1]"},
		{name: "down threshold out of range",
			opts: []art9.Option{art9.WithAutoscale(1, 4), art9.WithScaleThresholds(0.8, -0.1)},
			want: "within [0,1]"},
		{name: "hysteresis gap inverted",
			opts: []art9.Option{art9.WithAutoscale(1, 4), art9.WithScaleThresholds(0.3, 0.6)},
			want: "hysteresis needs a gap"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ev, err := art9.New(tt.opts...)
			if err == nil {
				ev.Close()
				t.Fatalf("New accepted the combination, want an error containing %q", tt.want)
			}
			if !errors.Is(err, art9.ErrInvalidOptions) {
				t.Fatalf("err = %v, want wrapping art9.ErrInvalidOptions", err)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("err = %v, want containing %q", err, tt.want)
			}
		})
	}
}

// TestNewAcceptsCoherentCombinations pins the complement: the
// combinations the documentation advertises all build (and close)
// cleanly.
func TestNewAcceptsCoherentCombinations(t *testing.T) {
	tests := []struct {
		name string
		opts []art9.Option
	}{
		{name: "default local pool"},
		{name: "failover over local shards",
			opts: []art9.Option{art9.WithShards(2), art9.WithWorkers(1)}},
		{name: "tuned failover fleet",
			opts: []art9.Option{art9.WithShards(2), art9.WithWorkers(1),
				art9.WithChunk(4), art9.WithMaxRetries(1), art9.WithHealthInterval(-1)}},
		{name: "elastic pool",
			opts: []art9.Option{art9.WithAutoscale(1, 2), art9.WithWorkers(1),
				art9.WithScaleInterval(-1)}},
		{name: "tuned elastic pool",
			opts: []art9.Option{art9.WithAutoscale(1, 2), art9.WithWorkers(1),
				art9.WithScaleThresholds(0.9, 0.2), art9.WithScaleCooldown(-1),
				art9.WithScaleInterval(-1)}},
		{name: "result cache over local pool",
			opts: []art9.Option{art9.WithResultCache(), art9.WithWorkers(1)}},
		{name: "tuned result cache over failover fleet",
			opts: []art9.Option{art9.WithShards(2), art9.WithWorkers(1),
				art9.WithResultCache(), art9.WithCacheMaxBytes(1 << 20),
				art9.WithCachePeers("http://localhost:9")}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ev, err := art9.New(tt.opts...)
			if err != nil {
				t.Fatalf("New rejected a coherent combination: %v", err)
			}
			if err := ev.Close(); err != nil {
				t.Errorf("Close() = %v", err)
			}
		})
	}
}

// TestNewWithAutoscaleIsAutoscaler pins the topology selection: the
// autoscale options build the elastic front, which serves a batch like
// any other Evaluator and exposes its scale state through the facade
// aliases.
func TestNewWithAutoscaleIsAutoscaler(t *testing.T) {
	ev, err := art9.New(art9.WithAutoscale(1, 2), art9.WithWorkers(1), art9.WithScaleInterval(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	as, ok := ev.(*art9.Autoscaler)
	if !ok {
		t.Fatalf("New(WithAutoscale) built %T, want *Autoscaler", ev)
	}
	if as.Min() != 1 || as.Max() != 2 {
		t.Fatalf("bounds (%d, %d), want (1, 2)", as.Min(), as.Max())
	}
	got := runSuiteOn(t, ev)
	if len(got) != len(art9.Benchmarks()) {
		t.Fatalf("suite resolved %d jobs, want %d", len(got), len(art9.Benchmarks()))
	}
	var st art9.ScaleState = as.ScaleState()
	if st.ActiveShards < 1 {
		t.Errorf("scale state %+v, want at least the minimum shard active", st)
	}
	var _ []art9.ScaleEvent = as.Events()
}
