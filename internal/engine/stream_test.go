package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestStreamCompletionOrder gates job completions in reverse submission
// order and asserts the stream yields them in that completion order —
// the property that distinguishes Stream from Run.
func TestStreamCompletionOrder(t *testing.T) {
	const n = 4
	e := New(Options{Workers: n})
	defer e.Close()

	gates := make([]chan struct{}, n)
	running := make(chan int, n)
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		gates[i] = make(chan struct{})
		jobs[i] = Job{
			ID: fmt.Sprintf("job-%d", i),
			Fn: func(context.Context) (any, error) {
				running <- i
				<-gates[i]
				return i, nil
			},
		}
	}
	out := e.Stream(context.Background(), jobs)
	for i := 0; i < n; i++ {
		<-running // all jobs are resident on the n workers
	}
	for i := n - 1; i >= 0; i-- {
		close(gates[i]) // release in reverse order
		r := <-out
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
		if r.Value.(int) != i {
			t.Fatalf("stream yielded job %v, want %d (completion order)", r.Value, i)
		}
	}
	if _, ok := <-out; ok {
		t.Fatal("stream not closed after last result")
	}
	if s := e.Stats(); s.Streams != 1 {
		t.Errorf("stats %+v, want 1 stream", s)
	}
}

// TestStreamEmpty: a zero-job stream closes immediately.
func TestStreamEmpty(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	select {
	case _, ok := <-e.Stream(context.Background(), nil):
		if ok {
			t.Fatal("empty stream yielded a result")
		}
	case <-time.After(time.Second):
		t.Fatal("empty stream never closed")
	}
}

// TestStreamCancelMidStream cancels the context while one job holds the
// only worker; every outstanding job must resolve (with the context
// error) and the stream must close.
func TestStreamCancelMidStream(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Every job gates on release, so whichever one the single worker
	// dispatches first is the one pinned mid-run.
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("q%d", i), Fn: func(context.Context) (any, error) {
			started <- struct{}{}
			<-release
			return nil, nil
		}}
	}

	out := e.Stream(ctx, jobs)
	<-started // one job is resident on the only worker
	cancel()  // cancel ≺ close(release) ≺ the worker's next ctx check
	close(release)

	var got, canceled int
	deadline := time.After(5 * time.Second)
	for {
		select {
		case r, ok := <-out:
			if !ok {
				if got != len(jobs) {
					t.Fatalf("stream closed after %d results, want %d", got, len(jobs))
				}
				if canceled != len(jobs)-1 {
					t.Errorf("%d canceled results, want %d", canceled, len(jobs)-1)
				}
				return
			}
			got++
			if errors.Is(r.Err, context.Canceled) {
				canceled++
			} else if r.Err != nil {
				t.Errorf("job %s: error %v, want nil or context.Canceled", r.ID, r.Err)
			}
		case <-deadline:
			t.Fatalf("stream stalled after %d results — cancellation stranded a job", got)
		}
	}
}

// TestStreamHoldsOneGoroutinePerBatch holds a 1,024-job Stream on a
// 2-worker engine with both workers pinned: the jobs beyond the queue
// wait in the batch's one feeder, so the held stream costs a constant
// number of goroutines, not one or two per job.
func TestStreamHoldsOneGoroutinePerBatch(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	if held := heldStreamGoroutines(t, e, 1024, 2); held > 4 {
		t.Errorf("a held 1024-job Stream kept %d extra goroutines, want at most 4", held)
	}
}

// TestBalancerStreamHoldsOneGoroutinePerChunk holds a 64-job Stream on
// a Balancer over two 2-worker engines until all four workers hold a
// job: each chunk in flight costs one goroutine, beside the Stream's
// own, and nothing else watches the batch or its chunks.
func TestBalancerStreamHoldsOneGoroutinePerChunk(t *testing.T) {
	b := NewBalancer(BalancerOptions{HealthInterval: -1},
		New(Options{Workers: 2}), New(Options{Workers: 2}))
	defer b.Close()

	if held := heldStreamGoroutines(t, b, 64, 4); held > 6 {
		t.Errorf("a held 64-job Stream over 4 chunks kept %d extra goroutines, want at most 6", held)
	}
}

// heldStreamGoroutines streams n jobs on ev that each block until
// released, counts the goroutines the stream has added once the first
// workers jobs are running, then releases the batch and checks every
// job succeeded.
func heldStreamGoroutines(t *testing.T, ev Evaluator, n, workers int) int {
	t.Helper()
	started := make(chan struct{}, workers)
	release := make(chan struct{})
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("held-%d", i), Fn: func(context.Context) (any, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return nil, nil
		}}
	}
	before := runtime.NumGoroutine()
	out := ev.Stream(context.Background(), jobs)
	for i := 0; i < workers; i++ {
		<-started // every worker holds a job; the rest of the batch waits
	}
	held := runtime.NumGoroutine() - before
	close(release)

	got := 0
	for r := range out {
		if r.Err != nil {
			t.Errorf("job %s: %v", r.ID, r.Err)
		}
		got++
	}
	if got != n {
		t.Errorf("stream yielded %d results, want %d", got, n)
	}
	return held
}

// TestStreamCloseRaceStress interleaves Stream batches with a concurrent
// Close under the race detector: every stream must terminate, and every
// result must be success, ErrClosed, or a context error — nothing
// stranded, no double-resolution, no races on the counters.
func TestStreamCloseRaceStress(t *testing.T) {
	e := New(Options{Workers: 4})

	const streams, perStream = 8, 25
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			jobs := make([]Job, perStream)
			for i := range jobs {
				jobs[i] = Job{
					ID: fmt.Sprintf("s%d-j%d", s, i),
					Fn: func(context.Context) (any, error) { return s, nil },
				}
			}
			n := 0
			for r := range e.Stream(context.Background(), jobs) {
				n++
				if r.Err != nil && !errors.Is(r.Err, ErrClosed) {
					t.Errorf("job %s: error %v, want nil or ErrClosed", r.ID, r.Err)
				}
			}
			if n != perStream {
				t.Errorf("stream %d yielded %d results, want %d", s, n, perStream)
			}
		}(s)
	}
	e.Close() // race shutdown against the in-flight streams
	wg.Wait()

	s := e.Stats()
	if s.Submitted != s.Completed+s.Failed+s.Canceled+s.Rejected {
		t.Errorf("stats %+v do not balance after Close", s)
	}
}
