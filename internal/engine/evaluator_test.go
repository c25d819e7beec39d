package engine

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestJobTimeoutIsTyped pins the typed error surface: an engine-imposed
// per-job deadline surfaces as ErrTimeout (still unwrappable to
// context.DeadlineExceeded), while a cancellation on the caller's own
// context stays the caller's error.
func TestJobTimeoutIsTyped(t *testing.T) {
	e := New(Options{Workers: 1, JobTimeout: 5 * time.Millisecond})
	defer e.Close()

	r := <-e.Stream(context.Background(), []Job{{ID: "slow",
		Fn: func(ctx context.Context) (any, error) { <-ctx.Done(); return nil, ctx.Err() }}})
	if !errors.Is(r.Err, ErrTimeout) {
		t.Errorf("engine-deadline error %v, want ErrTimeout", r.Err)
	}
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Errorf("error %v no longer unwraps to DeadlineExceeded", r.Err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	ch := e.Stream(ctx, []Job{{ID: "caller-cancel",
		Fn: func(ctx context.Context) (any, error) { close(started); <-ctx.Done(); return nil, ctx.Err() }}})
	<-started
	cancel()
	if r := <-ch; errors.Is(r.Err, ErrTimeout) || !errors.Is(r.Err, context.Canceled) {
		t.Errorf("caller-cancel error %v, want context.Canceled without ErrTimeout", r.Err)
	}
}
