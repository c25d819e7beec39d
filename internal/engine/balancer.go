package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Balancer is the health-aware front of the Evaluator stack: it wraps a
// set of backends — local pools, remote peers, other fronts, in any mix
// — and dispatches jobs to the healthiest backend with the most free
// slots, failing jobs over to another backend when the one that held
// them dies. It places work as slots free up and keeps a suite complete
// through mid-stream backend deaths:
//
//   - Health: a periodic loop probes every backend that implements
//     Prober (local engines answer from their closed flag, remote
//     clients GET /v1/healthz) and each job result updates the score
//     reactively — a backend-level failure (Retryable: ErrClosed or
//     ErrUnavailable) marks the backend down immediately, the next
//     success or clean probe revives it.
//   - Dispatch: one placement loop per batch moves jobs in chunks of up
//     to Chunk (1 unless configured): it reserves slots on the healthy
//     backend with the most free slots (ties rotate), bounded per
//     backend by its local worker count (or Width for backends that
//     report none, i.e. remote peers) and by its scraped free capacity,
//     so a slow backend holds only the jobs it is actually running while
//     the rest of the suite flows around it. Per-job dispatch is a chunk
//     of one.
//   - Failover: each job a chunk acknowledges resolves on arrival; a job
//     whose result is a backend-level failure, or that a severed chunk
//     left unresolved, is re-queued for another backend — bounded by
//     MaxRetries, excluding backends already tried until every one has
//     been — and resolves exactly once, so merged Run/Stream output
//     stays deduplicated. Job-level failures (a bad program, a per-job
//     timeout, the caller's context ending) are never retried.
//
// Failover re-runs jobs, so jobs must be idempotent — true of the whole
// evaluation suite (pure simulation), and the same assumption the remote
// client's dial retry already makes. Jobs reach remote backends through
// their serializable Job.Spec; spec-less closure jobs fail on remote
// backends with a not-remotable error and are not retried (placement
// cannot fix a job that cannot travel). MaxRetries -1 turns failover
// off: a backend-level failure then ends its job where it happened.
//
// A chunk is one dispatch unit: one acknowledged /v1/suite stream on a
// backend implementing ChunkDispatcher (the remote client), one Run
// batch otherwise. Larger chunks trade placement precision for fewer
// requests; a chunk of one sends every job as its own acknowledged
// request.
//
// Membership can change while batches run: the Autoscaler adds members
// and retires them (placement stops at once, in-flight jobs drain, then
// the member is closed).
type Balancer struct {
	maxRetries   int
	interval     time.Duration
	probeTimeout time.Duration
	threshold    int
	// width is the dispatch cap of members that report no local
	// workers (remote peers).
	width int
	// chunk caps one dispatch unit; 1 is per-job placement.
	chunk int
	// cache, when non-nil, is consulted before every placement: a hit
	// resolves the job without taking a slot or riding a chunk, and
	// successful attempts are stored back.
	cache ResultCache

	retries      atomic.Uint64
	chunks       atomic.Uint64
	chunkResumes atomic.Uint64
	cacheHits    atomic.Uint64
	streams      atomic.Uint64

	// mu guards members (appended by addLocked) and every member's mutable
	// state, plus closed, rr, queued and every placement's queue; cond
	// (on mu) wakes placement loops when a slot frees, a probe changes a
	// backend's health, membership changes, or the balancer closes.
	// Dispatch contexts get a watcher goroutine that broadcasts on
	// cancellation so waiters observe it.
	mu      sync.Mutex
	cond    *sync.Cond
	members []*member
	closed  bool
	rr      int
	// queued counts jobs waiting in dispatch queues for a slot — the
	// Autoscaler's queue-depth signal. Cache hits never enter a queue.
	queued int

	// revived is closed (and replaced) whenever any member transitions
	// to healthy; last-resort attempts on unhealthy backends watch it
	// so a recovery elsewhere rescues jobs stuck on a wedged backend.
	revived chan struct{}

	stop     chan struct{}
	stopOnce sync.Once
	drains   sync.WaitGroup // retired members still draining
}

// member is one backend plus the balancer's book-keeping about it. All
// mutable fields are guarded by Balancer.mu.
type member struct {
	ev      Evaluator
	name    string
	width   int  // max concurrent jobs dispatched to this backend
	standby bool // dialed from the Autoscaler's standby list

	healthy bool
	// retired members take no new jobs; they close once drained.
	retired     bool
	inflight    int
	consecutive int // consecutive backend-level failures
	lastErr     string
	// down is closed when the member transitions to unhealthy and
	// replaced with a fresh channel on revival; in-flight attempts
	// watch it so a backend declared dead (by a probe, or by another
	// job's failure) does not hold its jobs hostage.
	down chan struct{}

	dispatched    uint64
	completed     uint64
	failed        uint64
	failovers     uint64 // backend-level failures: jobs moved away from here
	probes        uint64
	probeFailures uint64

	chunks       uint64 // chunks dispatched to this backend
	chunkResumes uint64 // chunks severed here with unresolved jobs re-queued

	// cap is the most recent capacity scrape (nil until the first one
	// succeeds); chunk sizing and effective width read it so a busy
	// peer sheds load before it wedges.
	cap        *Capacity
	capScrapes uint64
}

// freeSlotsLocked reports how many more jobs this member can take right
// now: its static width — refined down to the live worker count when a
// capacity scrape has reported one — minus the jobs already in flight.
// Callers hold b.mu.
func (m *member) freeSlotsLocked() int {
	w := m.width
	if m.cap != nil && m.cap.Workers > 0 && m.cap.Workers < w {
		w = m.cap.Workers
	}
	return w - m.inflight
}

// setHealthLocked applies a health transition (callers hold b.mu):
// going down closes the member's down channel so in-flight attempts
// abandon the backend; coming up replaces it, clears the failure
// streak, and fires the balancer-wide revived signal so last-resort
// attempts stuck on other dead backends re-dispatch here.
func (b *Balancer) setHealthLocked(m *member, h bool) {
	if m.healthy == h {
		if h {
			m.consecutive = 0
		}
		return
	}
	m.healthy = h
	if h {
		m.consecutive = 0
		m.down = make(chan struct{})
		close(b.revived)
		b.revived = make(chan struct{})
	} else {
		close(m.down)
	}
}

// BackendHealth is one backend's point-in-time scorecard — the
// fleet-behaviour record BENCH reports and /v1/stats carry.
type BackendHealth struct {
	Name     string `json:"name"`
	Healthy  bool   `json:"healthy"`
	Width    int    `json:"width"`
	Inflight int    `json:"inflight"`
	// Dispatched counts jobs handed to this backend (including retries
	// of jobs other backends dropped). Completed counts successes;
	// Failed counts failures that ended the job here (its own fault, or
	// a backend-level failure with the retry budget spent); Failovers
	// counts backend-level failures whose job was re-queued elsewhere.
	Dispatched    uint64 `json:"dispatched"`
	Completed     uint64 `json:"completed"`
	Failed        uint64 `json:"failed"`
	Failovers     uint64 `json:"failovers"`
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	// Chunks counts dispatch units handed to this backend (one per job
	// under per-job placement); ChunkResumes counts chunks severed here
	// whose unresolved jobs were re-chunked onto other backends.
	Chunks       uint64 `json:"chunks,omitempty"`
	ChunkResumes uint64 `json:"chunk_resumes,omitempty"`
	// Capacity is the backend's most recent scraped load snapshot (nil
	// until a probe round's capacity query has succeeded);
	// CapacityScrapes counts the successful scrapes.
	Capacity        *Capacity `json:"capacity,omitempty"`
	CapacityScrapes uint64    `json:"capacity_scrapes,omitempty"`
	// Retired and Standby are the Autoscaler's scale-event plumbing: a
	// retired member was scaled down (drained, then closed) and no
	// longer takes jobs; a standby member was dialed from the
	// configured standby list rather than spawned locally. Always false
	// on a fixed-size Balancer's scorecards.
	Retired   bool   `json:"retired,omitempty"`
	Standby   bool   `json:"standby,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// BalancerOptions tune a Balancer. The zero value selects the defaults
// documented per field.
type BalancerOptions struct {
	// MaxRetries is how many times one job is re-dispatched after a
	// backend-level failure (0 selects 2; negative disables failover).
	MaxRetries int
	// HealthInterval is the period of the background probe loop
	// (0 selects 2s; negative disables the loop — probes then only run
	// through ProbeNow, which tests use for determinism).
	HealthInterval time.Duration
	// ProbeTimeout bounds one backend's probe (0 selects 2s).
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive backend-level failures mark
	// a backend unhealthy (0 selects 1: the first failure downs it).
	FailThreshold int
	// Width caps concurrent dispatch to backends that report no local
	// workers — remote peers, whose pool lives on the other machine
	// (0 selects 8). Backends with a local pool are capped at its size.
	Width int
	// Chunk caps one dispatch unit: up to Chunk jobs travel to a
	// backend together — over one acknowledged /v1/suite NDJSON stream
	// for backends implementing ChunkDispatcher, one Run batch
	// otherwise — with per-row acknowledgement, so a severed chunk
	// re-dispatches only its unresolved jobs. Chunks are sized down by
	// the backend's free slots and scraped live capacity. 0 (or
	// negative) selects 1: per-job placement, each job its own chunk.
	Chunk int
	// Cache, when set, is the fleet-wide result cache consulted before
	// every placement: a hit short-circuits dispatch (the job never
	// takes a backend slot or rides a chunk) and every successful
	// attempt is stored back for the rest of the fleet.
	Cache ResultCache
}

// Retryable reports whether a job result's error is a backend-level
// failure — the class a Balancer responds to by re-running the job on
// another backend. Job-level failures (the job ran and was wrong, timed
// out, or the caller cancelled) are not retryable.
func Retryable(err error) bool {
	return err != nil && (errors.Is(err, ErrClosed) || errors.Is(err, ErrUnavailable))
}

// NewBalancer builds a health-aware front over the given backends and
// takes ownership of them (Close closes every one). An empty call
// selects one default local engine.
func NewBalancer(opts BalancerOptions, backends ...Evaluator) *Balancer {
	if len(backends) == 0 {
		backends = []Evaluator{New(Options{})}
	}
	b := newBalancer(opts)
	b.mu.Lock()
	for i, ev := range backends {
		b.addLocked(ev, backendName(ev, i), false)
	}
	b.mu.Unlock()
	if b.interval > 0 {
		go b.healthLoop()
	}
	return b
}

// newBalancer applies the option defaults and returns a balancer with
// no members and no health loop — NewBalancer's and the Autoscaler's
// common start.
func newBalancer(opts BalancerOptions) *Balancer {
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 2
	} else if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.HealthInterval == 0 {
		opts.HealthInterval = 2 * time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = 1
	}
	if opts.Width <= 0 {
		opts.Width = 8
	}
	if opts.Chunk < 1 {
		opts.Chunk = 1
	}
	b := &Balancer{
		maxRetries:   opts.MaxRetries,
		interval:     opts.HealthInterval,
		probeTimeout: opts.ProbeTimeout,
		threshold:    opts.FailThreshold,
		width:        opts.Width,
		chunk:        opts.Chunk,
		cache:        opts.Cache,
		revived:      make(chan struct{}),
		stop:         make(chan struct{}),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// addLocked makes ev a new healthy member, placeable at once, and
// returns it. Members are only ever appended, so an index observed
// through Size stays valid. Callers hold b.mu and wake placement with
// cond.Broadcast after unlocking.
func (b *Balancer) addLocked(ev Evaluator, name string, standby bool) *member {
	w := LocalStats(ev).Workers
	if w <= 0 {
		w = b.width
	}
	m := &member{
		ev:      ev,
		name:    name,
		width:   w,
		standby: standby,
		healthy: true,
		down:    make(chan struct{}),
	}
	b.members = append(b.members, m)
	return m
}

// retireLocked stops placement on m at once and hands it to a drainer
// that closes it only once its in-flight jobs have resolved — so a
// retirement never loses work. If the balancer closes first, Close owns
// the member's shutdown. Callers hold b.mu.
func (b *Balancer) retireLocked(m *member) {
	m.retired = true
	b.drains.Add(1)
	go func() {
		defer b.drains.Done()
		b.mu.Lock()
		for m.inflight > 0 && !b.closed {
			b.cond.Wait()
		}
		closed := b.closed
		b.mu.Unlock()
		if !closed {
			// The member is drained, so nothing resolves with ErrClosed
			// here; a failure would only repeat what the job results
			// already reported.
			_ = m.ev.Close()
		}
	}()
}

// backendName labels one backend for health reports: its peer URL when
// it has one (the remote client), its self-reported name, or a
// positional fallback.
func backendName(ev Evaluator, i int) string {
	if p, ok := ev.(interface{ Peer() string }); ok {
		return p.Peer()
	}
	if n, ok := ev.(interface{ Name() string }); ok {
		return n.Name()
	}
	switch ev.(type) {
	case *Engine:
		return fmt.Sprintf("local/%d", i)
	default:
		return fmt.Sprintf("backend/%d", i)
	}
}

// Size returns the number of backends behind the balancer, retired
// members included.
func (b *Balancer) Size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.members)
}

// Backend returns backend i, for stats drill-down and tests.
func (b *Balancer) Backend(i int) Evaluator {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.members[i].ev
}

// MaxRetries returns the per-job failover budget.
func (b *Balancer) MaxRetries() int { return b.maxRetries }

// Retries returns how many re-dispatches (attempts after each job's
// first) the balancer has performed over its lifetime.
func (b *Balancer) Retries() uint64 { return b.retries.Load() }

// Chunk returns the chunk cap (1: per-job dispatch).
func (b *Balancer) Chunk() int { return b.chunk }

// Chunks returns how many dispatch units the balancer has issued over
// its lifetime.
func (b *Balancer) Chunks() uint64 { return b.chunks.Load() }

// ChunkResumes returns how many chunks ended with unresolved jobs that
// were re-chunked onto other backends — the severed-stream recoveries.
func (b *Balancer) ChunkResumes() uint64 { return b.chunkResumes.Load() }

// ResultCache returns the result-cache tier consulted before every
// placement, or nil when the balancer runs uncached.
func (b *Balancer) ResultCache() ResultCache { return b.cache }

// CacheHits returns how many jobs were resolved from the result cache
// without ever being placed on a backend.
func (b *Balancer) CacheHits() uint64 { return b.cacheHits.Load() }

// Streams returns how many Stream calls the balancer has served.
func (b *Balancer) Streams() uint64 { return b.streams.Load() }

// Health snapshots every backend's scorecard, in backend order. It
// reads only balancer-local state — no network I/O — so it is safe in
// liveness paths.
func (b *Balancer) Health() []BackendHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]BackendHealth, len(b.members))
	for i, m := range b.members {
		out[i] = BackendHealth{
			Name:            m.name,
			Healthy:         m.healthy && !m.retired,
			Width:           m.width,
			Inflight:        m.inflight,
			Dispatched:      m.dispatched,
			Completed:       m.completed,
			Failed:          m.failed,
			Failovers:       m.failovers,
			Probes:          m.probes,
			ProbeFailures:   m.probeFailures,
			Chunks:          m.chunks,
			ChunkResumes:    m.chunkResumes,
			CapacityScrapes: m.capScrapes,
			Retired:         m.retired,
			Standby:         m.standby,
			LastError:       m.lastErr,
		}
		if m.cap != nil {
			c := *m.cap
			out[i].Capacity = &c
		}
	}
	return out
}

// Stats sums the backends' own job counters and reports the balancer's
// own Stream count — the Evaluator view. Remote backends answer with a
// peer scrape; for the balancer's dispatch/failover view use Health.
func (b *Balancer) Stats() Stats {
	var t Stats
	for _, st := range b.BackendStats() {
		t = t.Add(st)
	}
	t.Streams = b.Streams()
	return t
}

// BackendStats returns one stats snapshot per backend, in backend
// order, queried concurrently (a remote backend's Stats is a network
// scrape, so the set pays the slowest backend, not the sum).
func (b *Balancer) BackendStats() []Stats { return BackendStats(b) }

// Close stops the health loop, wakes every placement waiting for a slot
// (their jobs resolve with ErrClosed), waits for retired members still
// draining, closes every backend concurrently, and releases the
// attached result cache last (a tier drains its queued peer fills
// there), joining every error. Idempotent.
func (b *Balancer) Close() error {
	var err error
	b.stopOnce.Do(func() {
		b.mu.Lock()
		b.closed = true
		members := append([]*member(nil), b.members...)
		b.mu.Unlock()
		close(b.stop)
		b.cond.Broadcast()
		b.drains.Wait()
		errs := make([]error, len(members), len(members)+1)
		var wg sync.WaitGroup
		for i, m := range members {
			wg.Add(1)
			go func(i int, ev Evaluator) {
				defer wg.Done()
				errs[i] = ev.Close()
			}(i, m.ev)
		}
		wg.Wait()
		errs = append(errs, closeResultCache(b.cache))
		err = errors.Join(errs...)
	})
	return err
}

// Run dispatches every job to the healthiest backend with free slots,
// failing over on backend-level errors, and returns results in
// submission order — Engine.Run semantics over the set.
func (b *Balancer) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	out := make([]Result, len(jobs))
	b.dispatch(ctx, jobs, func(i int, r Result) { out[i] = r })
	return out, ctx.Err()
}

// Stream dispatches like Run but yields each result the moment its job
// resolves (after any failover), in completion order. The channel is
// buffered to len(jobs) and always closes — the Evaluator contract.
func (b *Balancer) Stream(ctx context.Context, jobs []Job) <-chan Result {
	b.streams.Add(1)
	out := make(chan Result, len(jobs))
	if len(jobs) == 0 {
		close(out)
		return out
	}
	go func() {
		defer close(out)
		b.dispatch(ctx, jobs, func(_ int, r Result) { out <- r })
	}()
	return out
}

// cacheStore records one successful result in the result cache,
// best-effort — called outside b.mu because a tiered cache fans the
// fill out to peers.
func (b *Balancer) cacheStore(ctx context.Context, j Job, v any) {
	if b.cache == nil || j.Spec == nil {
		return
	}
	b.cache.Store(ctx, j.Spec, v)
}

// filterCached resolves every cache-hit job up front — concurrently,
// since a miss may cost a peer round-trip — and returns the indices
// still needing dispatch, so a hot job never rides a chunk.
func (b *Balancer) filterCached(ctx context.Context, jobs []Job, emit func(int, Result)) []int {
	hit := make([]bool, len(jobs))
	vals := make([]any, len(jobs))
	sem := make(chan struct{}, 16)
	var wg sync.WaitGroup
	for i := range jobs {
		if jobs[i].Spec == nil || ctx.Err() != nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			vals[i], hit[i] = b.cache.Lookup(ctx, jobs[i].Spec)
		}(i)
	}
	wg.Wait()
	pending := make([]int, 0, len(jobs))
	for i := range jobs {
		if hit[i] {
			b.cacheHits.Add(1)
			emit(i, Result{ID: jobs[i].ID, Value: vals[i], Worker: -1})
		} else {
			pending = append(pending, i)
		}
	}
	return pending
}

// chunkItem is one job's book-keeping in a placement queue: its index
// in the batch, how many attempts it has consumed, and the backends
// excluded by earlier failures (nil until its first one). An item is
// owned by exactly one party at a time — the placement loop while
// queued, one chunk attempt while in flight — so its fields need no
// lock of their own.
type chunkItem struct {
	idx     int
	attempt int
	exclude map[*member]bool
}

// placement is one batch's dispatch state. queue holds the items
// awaiting a slot, oldest first, and inflight counts the items riding
// chunk attempts; both are guarded by b.mu.
type placement struct {
	jobs     []Job
	emit     func(int, Result)
	queue    []*chunkItem
	inflight int
}

// take removes up to want items that admit m from the head of the
// queue, scanning no further than it must: items excluded from m stay
// in front, in order, so the oldest re-queued job keeps its place.
// Callers hold b.mu.
func (p *placement) take(m *member, want int) []*chunkItem {
	take := make([]*chunkItem, 0, want)
	skipped, i := 0, 0
	for ; i < len(p.queue) && len(take) < want; i++ {
		if it := p.queue[i]; it.exclude[m] {
			p.queue[skipped] = it
			skipped++
		} else {
			take = append(take, it)
		}
	}
	// Close the gap between the skipped items and the unscanned rest.
	copy(p.queue[i-skipped:i], p.queue[:skipped])
	p.queue = p.queue[i-skipped:]
	return take
}

// dispatch resolves every job exactly once through emit(jobIndex,
// result), moving jobs in chunks of up to b.chunk: a chunk rides one
// dispatch unit (one acknowledged /v1/suite stream on a ChunkDispatcher
// backend, one Run batch otherwise), each arriving row acknowledges its
// job, and a severed chunk re-queues only its unresolved jobs — so
// failover costs re-running the jobs a dying backend actually dropped,
// not the whole chunk.
//
// A single placement loop owns the queue: it waits for slots on the
// best backend for the oldest queued item, takes the largest admissible
// chunk from the head of the queue, and hands it to a concurrent
// attempt. Attempts re-queue unresolved or retryable items and wake the
// loop; the loop exits when the queue is empty and nothing is in
// flight.
func (b *Balancer) dispatch(ctx context.Context, jobs []Job, emit func(int, Result)) {
	if len(jobs) == 0 {
		return
	}
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			// Broadcast under mu: a waiter that checked ctx.Err() just
			// before the cancellation still holds mu until its Wait
			// parks it, so taking the lock here orders this wakeup
			// after that park — an unlocked Broadcast could fire into
			// the gap and strand the waiter forever.
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		case <-watchDone:
		}
	}()
	defer close(watchDone)

	// Cache hits resolve before the queue exists: a hot job neither
	// rides a chunk, occupies a reservation another job could use, nor
	// counts as queued demand.
	var items []chunkItem
	if b.cache != nil {
		pending := b.filterCached(ctx, jobs, emit)
		items = make([]chunkItem, len(pending))
		for k, i := range pending {
			items[k].idx = i
		}
	} else {
		items = make([]chunkItem, len(jobs))
		for k := range items {
			items[k].idx = k
		}
	}
	p := &placement{jobs: jobs, emit: emit, queue: make([]*chunkItem, len(items))}
	for k := range items {
		p.queue[k] = &items[k]
	}

	var wg sync.WaitGroup
	defer wg.Wait()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.queued += len(p.queue)
	for len(p.queue) > 0 || p.inflight > 0 {
		if len(p.queue) == 0 {
			b.cond.Wait() // an attempt always broadcasts on completion
			continue
		}
		// Place the front item first — acquireChunk honours its
		// exclusions, so the oldest re-queued job cannot starve behind
		// fresh ones — then widen the chunk with the items behind it
		// that admit the same backend.
		front := p.queue[0]
		m, want, err := b.acquireChunk(ctx, front.exclude)
		if err == errAllTried {
			clear(front.exclude)
			continue
		}
		if err != nil {
			// The caller's context ended or the balancer closed: resolve
			// everything still queued; in-flight attempts resolve their
			// own items against the same condition.
			rest := p.queue
			p.queue = nil
			b.queued -= len(rest)
			b.mu.Unlock()
			for _, it := range rest {
				emit(it.idx, Result{ID: jobs[it.idx].ID, Err: err, Worker: -1})
			}
			b.mu.Lock()
			continue
		}
		take := p.take(m, want)
		b.queued -= len(take)
		p.inflight += len(take)
		// Return the reservations the chunk could not fill.
		m.inflight -= want - len(take)
		m.dispatched += uint64(len(take))
		m.chunks++
		redispatched := 0
		for _, it := range take {
			if it.attempt > 0 {
				redispatched++
			}
		}
		if redispatched > 0 {
			b.retries.Add(uint64(redispatched))
		}
		b.chunks.Add(1)
		if want > len(take) {
			b.cond.Broadcast()
		}
		b.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.attemptChunk(ctx, m, p, take)
		}()
		b.mu.Lock()
	}
}

// errAllTried is acquireChunk's signal that every backend is excluded
// for the job at the head of the queue — the caller clears the
// exclusions so the retry budget starts a fresh pass, and a revived
// backend gets another chance.
var errAllTried = errors.New("engine: every backend already tried")

// acquireChunk reserves up to b.chunk dispatch slots on one backend:
// the healthy, non-retired, non-excluded backend with the most free
// slots (static width refined by the live worker count a capacity
// scrape reported), ties rotated, the chunk capped further by the
// peer's scraped free workers so a busy peer sheds load. When every
// eligible backend is unhealthy, the one with the most free slots is
// used as a last resort (its failure re-confirms it is down and keeps
// all-backends-down batches resolving instead of hanging). When
// eligible backends exist but all slots are taken, acquireChunk waits
// for a release, a health or membership change, cancellation, or Close.
// Callers hold b.mu and return unused reservations to best.inflight.
func (b *Balancer) acquireChunk(ctx context.Context, exclude map[*member]bool) (*member, int, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if b.closed {
			return nil, 0, ErrClosed
		}
		start := b.rr
		b.rr++
		var best *member
		bestFree := 0
		allTried, healthyLeft := true, false
		for k := range b.members {
			m := b.members[(start+k)%len(b.members)]
			if m.retired || exclude[m] {
				continue
			}
			allTried = false
			if !m.healthy {
				continue
			}
			healthyLeft = true
			if free := m.freeSlotsLocked(); free > 0 && (best == nil || free > bestFree) {
				best, bestFree = m, free
			}
		}
		if allTried && len(exclude) > 0 {
			return nil, 0, errAllTried
		}
		if best == nil && !healthyLeft {
			for k := range b.members {
				m := b.members[(start+k)%len(b.members)]
				if m.retired || exclude[m] {
					continue
				}
				if free := m.freeSlotsLocked(); free > 0 && (best == nil || free > bestFree) {
					best, bestFree = m, free
				}
			}
		}
		if best != nil {
			n := bestFree
			if n > b.chunk {
				n = b.chunk
			}
			// Live capacity caps the chunk further — including Free 0,
			// which caps to the 1-job minimum: a saturated peer must
			// shed load, not receive the largest chunk. Scrapes with no
			// reported pool (a proxy-only front's meaningless zeros)
			// are ignored, like freeSlotsLocked does.
			if c := best.cap; c != nil && c.Workers > 0 && c.Free < n {
				n = c.Free
			}
			if n < 1 {
				n = 1
			}
			best.inflight += n
			return best, n, nil
		}
		b.cond.Wait()
	}
}

// attemptChunk runs one chunk on one backend, then settles it (see
// settleChunk). While the chunk is in flight it watches an abandonment
// signal (see watchAttempt): a backend declared dead mid-chunk — a
// failed probe, another job's backend-level failure — has the chunk
// cancelled and its unresolved jobs re-classified ErrUnavailable, so a
// wedged-but-connected peer (a network partition, a stopped process
// holding its TCP connections open) cannot hold jobs hostage past the
// health verdict.
//
// Settling happens in its own call so that this frame, which sits under
// the backend's dispatch path in a goroutine started per chunk, stays
// small: a goroutine whose stack must grow deep inside that path pays
// for copying every frame above it.
func (b *Balancer) attemptChunk(ctx context.Context, m *member, p *placement, items []*chunkItem) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := make(chan struct{})
	go b.watchAttempt(m, stop, cancel)

	// A one-job chunk — per-job placement — rides the caller's slice;
	// the capacity bound keeps a backend from appending over its
	// neighbours.
	var chunkJobs []Job
	if len(items) == 1 {
		i := items[0].idx
		chunkJobs = p.jobs[i : i+1 : i+1]
	} else {
		chunkJobs = make([]Job, len(items))
		for i, it := range items {
			chunkJobs[i] = p.jobs[it.idx]
		}
	}
	acks := make([]chunkAck, len(items))
	var chunkErr error
	if cd, ok := m.ev.(ChunkDispatcher); ok {
		chunkErr = cd.DispatchChunk(actx, chunkJobs, func(i int, r Result) {
			if i < 0 || i >= len(acks) || acks[i].ok {
				return
			}
			acks[i] = chunkAck{r: r, ok: true}
		})
	} else {
		// Backends without the chunk capability run the chunk as one
		// Run batch — every result arrives together, which is still one
		// dispatch decision per chunk.
		rs, _ := m.ev.Run(actx, chunkJobs)
		for i := range acks {
			if i < len(rs) {
				acks[i] = chunkAck{r: rs[i], ok: true}
			}
		}
		if len(rs) < len(items) {
			chunkErr = fmt.Errorf("engine: backend %s returned %d results for a %d-job chunk: %w",
				m.name, len(rs), len(items), ErrUnavailable)
		}
	}
	close(stop)
	b.settleChunk(ctx, m, p, items, acks, chunkErr, actx.Err() != nil && ctx.Err() == nil)
}

// settleChunk scores one finished chunk and resolves its jobs: each
// job the backend acknowledged with a success or a job-level failure is
// emitted; jobs the chunk left unresolved (chunkErr explains why, when
// the backend said) and jobs acknowledged with a backend-level failure
// re-queue on p within the retry budget, and resolve with that failure
// once it is spent. abandoned reports that the balancer cancelled the
// chunk after the fleet's health changed, which makes every failure in
// it backend-level.
func (b *Balancer) settleChunk(ctx context.Context, m *member, p *placement, items []*chunkItem, acks []chunkAck, chunkErr error, abandoned bool) {
	requeued := 0
	sawSuccess, sawRetryable, sawJobLevel := false, false, false
	b.mu.Lock()
	m.inflight -= len(items)
	for i, it := range items {
		r := &acks[i].r
		if !acks[i].ok {
			err := chunkErr
			if err == nil {
				err = fmt.Errorf("engine: chunk on %s ended with job %q unresolved: %w",
					m.name, p.jobs[it.idx].ID, ErrUnavailable)
			}
			if abandoned {
				err = fmt.Errorf("engine: chunk on %s abandoned after the fleet's health changed: %w",
					m.name, ErrUnavailable)
			}
			*r = Result{ID: p.jobs[it.idx].ID, Err: err, Worker: -1}
		} else if r.Err != nil && abandoned {
			// The balancer abandoned the chunk, not the caller: the
			// failure is backend-level, so the job may run elsewhere.
			r.Err = fmt.Errorf("engine: chunk attempt on %s abandoned after the fleet's health changed: %w",
				m.name, ErrUnavailable)
			r.Worker = -1
		}
		switch {
		case r.Err == nil:
			m.completed++
			sawSuccess = true
		case Retryable(r.Err):
			sawRetryable = true
			m.lastErr = r.Err.Error()
			if it.attempt >= b.maxRetries {
				m.failed++
			} else {
				m.failovers++
				it.attempt++
				if it.exclude == nil {
					it.exclude = make(map[*member]bool)
				}
				it.exclude[m] = true
				// The item leaves this chunk for the queue.
				p.queue = append(p.queue, it)
				items[i] = nil
				requeued++
			}
		default:
			// The job ran and failed on its own terms (or the caller's
			// context ended); the backend is not at fault.
			m.failed++
			sawJobLevel = true
		}
	}
	// Evidence the backend ran jobs (a success, or a job-level failure)
	// clears the failure streak before this chunk's own backend-level
	// failures count against it, so a live backend is not marked down
	// by stale streaks.
	if sawSuccess {
		b.setHealthLocked(m, true)
	} else if sawJobLevel {
		m.consecutive = 0
	}
	if sawRetryable {
		m.consecutive++
		if m.consecutive >= b.threshold {
			b.setHealthLocked(m, false)
		}
	}
	if requeued > 0 {
		m.chunkResumes++
		b.chunkResumes.Add(1)
	}
	b.queued += requeued
	p.inflight -= len(items)
	b.mu.Unlock()
	b.cond.Broadcast()
	for i, it := range items {
		if it == nil {
			continue
		}
		if acks[i].r.Err == nil {
			b.cacheStore(ctx, p.jobs[it.idx], acks[i].r.Value)
		}
		p.emit(it.idx, acks[i].r)
	}
}

// chunkAck is one job's slot in a chunk attempt: its result, and
// whether the backend delivered one.
type chunkAck struct {
	r  Result
	ok bool
}

// watchAttempt watches one in-flight attempt on m and cancels it when
// the fleet's health says the job should move: a healthy member's
// attempt abandons when that member goes down; a last-resort attempt on
// an unhealthy member abandons when some OTHER member becomes healthy.
// The member's own recovery mid-attempt is not an abandonment — the
// running job is the evidence it recovered — so the watch re-arms on
// the member's fresh down channel instead of cancelling.
func (b *Balancer) watchAttempt(m *member, stop <-chan struct{}, cancel context.CancelFunc) {
	for {
		b.mu.Lock()
		wasHealthy := m.healthy
		ch := m.down
		if !wasHealthy {
			ch = b.revived
		}
		b.mu.Unlock()
		select {
		case <-stop:
			return
		case <-ch:
		}
		b.mu.Lock()
		abandon := wasHealthy // the member we were running on went down
		if !wasHealthy && !m.healthy {
			// A revival fired elsewhere while m stayed down: move the
			// job if somewhere healthy actually exists right now.
			for _, o := range b.members {
				if o != m && o.healthy && !o.retired {
					abandon = true
					break
				}
			}
		}
		b.mu.Unlock()
		if abandon {
			cancel()
			return
		}
	}
}

// healthLoop drives periodic probing until Close.
func (b *Balancer) healthLoop() {
	t := time.NewTicker(b.interval)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			b.ProbeNow(context.Background())
		}
	}
}

// ProbeNow probes every non-retired backend once, concurrently, and
// applies the verdicts — the health loop's body, exported so tests (and
// callers that just revived a peer) can force a deterministic round.
func (b *Balancer) ProbeNow(ctx context.Context) {
	b.mu.Lock()
	members := make([]*member, 0, len(b.members))
	for _, m := range b.members {
		if !m.retired {
			members = append(members, m)
		}
	}
	b.mu.Unlock()
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			b.probe(ctx, m)
		}(m)
	}
	wg.Wait()
}

// probe checks one backend's liveness under the probe timeout and
// applies the verdict. A clean probe revives a backend that job
// results had marked down; waiters are woken either way, since a
// health change can unblock placement. Backends without a Prober are
// left untouched: fabricating health with no evidence would revive a
// reactively-down backend and route fresh jobs into it — their
// verdicts come from job results alone (and from the last-resort
// dispatch path, where a success redeems them). A member retired while
// its probe ran keeps its health: it is draining toward Close, and a
// down verdict would abandon the jobs it is finishing.
func (b *Balancer) probe(ctx context.Context, m *member) {
	p, ok := m.ev.(Prober)
	if !ok {
		return
	}
	pctx, cancel := context.WithTimeout(ctx, b.probeTimeout)
	err := p.Probe(pctx)
	cancel()
	b.mu.Lock()
	if m.retired {
		b.mu.Unlock()
		return
	}
	m.probes++
	if err != nil {
		m.probeFailures++
		m.lastErr = err.Error()
		b.setHealthLocked(m, false)
	} else {
		b.setHealthLocked(m, true)
	}
	b.mu.Unlock()
	b.cond.Broadcast()
	if err == nil {
		b.scrapeCapacity(ctx, m)
	}
}

// scrapeCapacity refreshes one live backend's capacity snapshot — the
// probe round's second question, asked only after a clean liveness
// verdict so a dead peer is not asked twice. A failed scrape keeps the
// previous snapshot: stale capacity still beats the static width hint,
// and liveness is the probe's verdict to give, not this one's.
func (b *Balancer) scrapeCapacity(ctx context.Context, m *member) {
	cr, ok := m.ev.(CapacityReporter)
	if !ok {
		return
	}
	cctx, cancel := context.WithTimeout(ctx, b.probeTimeout)
	c, err := cr.Capacity(cctx)
	cancel()
	if err != nil {
		return
	}
	b.mu.Lock()
	m.cap = &c
	m.capScrapes++
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Capacity answers the CapacityReporter query from the balancer's
// tracked state — the active members' most recent scrapes where one
// exists, local counters otherwise — so nested balancers report fleet
// capacity without a fresh network round.
func (b *Balancer) Capacity(context.Context) (Capacity, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return Capacity{}, ErrClosed
	}
	var t Capacity
	for _, m := range b.members {
		if m.retired {
			continue
		}
		c := CapacityFromStats(LocalStats(m.ev))
		if m.cap != nil {
			c = *m.cap
		}
		t.Workers += c.Workers
		t.Busy += c.Busy
		t.Free += c.Free
		t.Queue += c.Queue
	}
	return t, nil
}

// Probe reports the balancer's own aggregate verdict — alive while any
// active backend is marked healthy — so balancers nest behind other
// balancers. It reads only tracked state; no backend is contacted.
func (b *Balancer) Probe(context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	for _, m := range b.members {
		if m.healthy && !m.retired {
			return nil
		}
	}
	return fmt.Errorf("%w: all %d backends unhealthy", ErrUnavailable, len(b.members))
}
