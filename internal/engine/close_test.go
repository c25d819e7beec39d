package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestCloseResolvesQueuedJobs is the regression test for the shutdown
// contract: Close with jobs buffered in the dispatch queue (and more
// still waiting to be fed) must resolve every job's Stream — each job
// either executed or rejected with ErrClosed, never stranded. The
// pre-fix engine could strand a queued task when a worker's two-way
// select took quit over a ready job, leaving its result forever
// undelivered and Run blocked. The race window opens only when quit
// closes while the queue is non-empty, so the scenario is staged — pin
// the single worker, fill the queue, begin Close, then let the worker
// go — and repeated, since the pre-fix select loses it with probability
// 1/2 per ready job.
func TestCloseResolvesQueuedJobs(t *testing.T) {
	for round := 0; round < 8; round++ {
		const queued = 24
		e := New(Options{Workers: 1})

		started := make(chan struct{})
		release := make(chan struct{})
		pinned := e.Stream(context.Background(), []Job{{ID: "pinned", Fn: func(context.Context) (any, error) {
			close(started)
			<-release
			return "pinned", nil
		}}})
		<-started // the only worker is mid-job; everything below queues

		chans := make([]<-chan Result, queued)
		for i := range chans {
			chans[i] = e.Stream(context.Background(), []Job{{
				ID: fmt.Sprintf("queued-%d", i),
				Fn: func(context.Context) (any, error) { return "ran", nil },
			}})
		}

		closed := make(chan struct{})
		go func() {
			e.Close()
			close(closed)
		}()
		// Let Close reach its shutdown signal while the worker is still
		// pinned, so the worker's next dispatch select races it.
		time.Sleep(10 * time.Millisecond)
		close(release)

		if r := <-pinned; r.Err != nil {
			t.Fatalf("pinned job: %v, want success (already executing when Close began)", r.Err)
		}
		var ran, rejected int
		for i, ch := range chans {
			select {
			case r := <-ch:
				switch {
				case r.Err == nil:
					ran++
				case errors.Is(r.Err, ErrClosed):
					rejected++
				default:
					t.Errorf("queued-%d: error %v, want nil or ErrClosed", i, r.Err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d, queued-%d: Stream never resolved — Close stranded it", round, i)
			}
		}
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Close never returned")
		}
		if ran+rejected != queued {
			t.Errorf("ran %d + rejected %d != %d queued", ran, rejected, queued)
		}
		s := e.Stats()
		if s.Submitted != s.Completed+s.Failed+s.Canceled+s.Rejected {
			t.Errorf("stats %+v do not balance after Close", s)
		}
		if s.Rejected != uint64(rejected) {
			t.Errorf("stats %+v, want %d rejected", s, rejected)
		}
	}
}

// TestCloseRejectsWithoutWaiters drives the same shutdown race without
// anyone reading the result channels first: Close itself must not block
// on unread Stream channels (they are buffered), and reads afterwards must
// still see every result.
func TestCloseRejectsWithoutWaiters(t *testing.T) {
	e := New(Options{Workers: 2})
	var chans []<-chan Result
	for i := 0; i < 16; i++ {
		chans = append(chans, e.Stream(context.Background(), []Job{{
			ID: fmt.Sprintf("j%d", i),
			Fn: func(context.Context) (any, error) { return nil, nil },
		}}))
	}
	done := make(chan struct{})
	go func() {
		e.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked with unread result channels")
	}
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Err != nil && !errors.Is(r.Err, ErrClosed) {
				t.Errorf("job %d: error %v, want nil or ErrClosed", i, r.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("job %d never resolved", i)
		}
	}
}
