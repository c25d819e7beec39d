package engine

import (
	"errors"
	"fmt"
	"time"
)

// ErrInvalidOptions is returned (wrapped, with the offending options
// named) when an evaluator is configured with an incoherent option
// combination — balancer tuning on a lone engine, inverted autoscale
// bounds, standby peers without an autoscaler. Check with
// errors.Is; the art9.New facade and both CLIs reject configurations
// through the same rule set, so library and flag users get identical
// diagnostics.
var ErrInvalidOptions = errors.New("engine: invalid option combination")

// Autoscaler is the grow/shrink/standby/drain policy of an elastic
// pool: the scaling policy attached to a Balancer that NewAutoscaler
// builds, which (*Balancer).Autoscaler returns. The pool's members are
// local shard engines whose count floats between configured bounds —
// plus standby backends dialed when the local bound is exhausted, and
// any fixed backends the pool was built beside, which the policy never
// retires — driven by the Balancer's queue depth and the active
// members' utilization. Placement, health scoring and failover are the
// Balancer's.
//
// Scaling follows hysteresis: the pool grows when jobs are queued
// beyond the active capacity (or utilization crosses UpThreshold),
// shrinks when utilization falls below DownThreshold with nothing
// queued, and a cooldown separates consecutive scale events so a noisy
// load signal cannot thrash the pool. A retired member is drained
// before it is released: it stops receiving new jobs immediately, its
// in-flight jobs run to completion, and only then is its Close — the
// same drain-safe contract every Evaluator honours — invoked, so no
// job is ever lost to a shrink. The policy's loop stops when the
// Balancer closes.
type Autoscaler struct {
	b        *Balancer
	min, max int
	up, down float64
	cooldown time.Duration
	spawn    func() Evaluator
	standby  []StandbyBackend

	// Policy state, guarded by b.mu.
	locals  int       // currently active local members
	live    []*member // per standby factory: its active member, nil when idle
	last    time.Time // most recent scale event, for the cooldown
	events  []ScaleEvent
	seq     int    // scale-event sequence
	spawned int    // local members ever spawned, for stable naming
	ups     uint64 // lifetime scale-up events
	downs   uint64 // lifetime scale-down events
}

// StandbyBackend is one standby member the autoscaler may dial when the
// local bound is exhausted and retire first when load drops.
type StandbyBackend struct {
	// Name labels the backend in health reports and scale events.
	Name string
	// Dial builds the backend. It is called on each scale-up that
	// recruits this standby (a retired standby is re-dialed fresh) and
	// must not block — the remote client's constructor, which validates
	// the URL without connecting, is the intended shape.
	Dial func() (Evaluator, error)
}

// ScaleEvent records one pool transition — the fleet-breathing record
// BENCH artifacts and /v1/stats carry.
type ScaleEvent struct {
	Seq       int    `json:"seq"`
	Direction string `json:"direction"` // "up" or "down"
	Backend   string `json:"backend"`   // the member added or retired
	Reason    string `json:"reason"`    // the signal that triggered it
	Width     int    `json:"width"`     // active dispatch width after the event
	UnixMS    int64  `json:"unix_ms"`
}

// ScaleState is the autoscaler's point-in-time summary, served by the
// serve layer's /v1/stats.
type ScaleState struct {
	Min            int     `json:"min"`
	Max            int     `json:"max"`
	ActiveShards   int     `json:"active_shards"`
	ActiveStandbys int     `json:"active_standbys"`
	Standbys       int     `json:"standbys"` // configured standby backends
	Width          int     `json:"width"`    // active dispatch width
	Busy           int     `json:"busy"`     // jobs in flight on active members
	Queue          int     `json:"queue"`    // jobs waiting for a slot
	UpThreshold    float64 `json:"up_threshold"`
	DownThreshold  float64 `json:"down_threshold"`
	ScaleUps       uint64  `json:"scale_ups"`
	ScaleDowns     uint64  `json:"scale_downs"`
}

// AutoscalerOptions configure an elastic pool. The zero value of each
// field selects the documented default.
type AutoscalerOptions struct {
	// BalancerOptions tune the pool's Balancer, with one difference in
	// defaults: HealthInterval 0 runs no probe loop, so standby peers
	// see no probe traffic unless asked for — membership is the
	// policy's call, and job results still score every member's health.
	BalancerOptions
	// Min and Max bound the local shard count (Min 0 selects 1; Max 0
	// selects Min). Standby backends are recruited beyond Max.
	Min, Max int
	// Engine configures each spawned local shard.
	Engine Options
	// Spawn overrides how a local shard is built (tests inject scripted
	// backends); nil selects engine.New(Engine).
	Spawn func() Evaluator
	// Standby lists backends dialed when the local bound is exhausted
	// and retired first when load drops.
	Standby []StandbyBackend
	// UpThreshold is the busy/width utilization at or above which the
	// pool grows; queued jobs grow it regardless. DownThreshold is the
	// utilization below which an idle-enough pool shrinks. See
	// ScaleThresholds for the defaults.
	UpThreshold, DownThreshold float64
	// Cooldown is the minimum gap between consecutive scale events
	// (0 selects 2s; negative disables the gap).
	Cooldown time.Duration
	// Interval is the period of the background evaluation loop
	// (0 selects 1s; negative disables the loop — scaling then only
	// happens through ScaleNow, which tests use for determinism).
	Interval time.Duration
}

// ScaleThresholds returns the hysteresis bounds an elastic pool runs
// with for configured ones: an up threshold of 0 selects 0.8 and a
// down threshold of 0 selects 0.25.
func ScaleThresholds(up, down float64) (float64, float64) {
	if up <= 0 {
		up = 0.8
	}
	if down <= 0 {
		down = 0.25
	}
	return up, down
}

// NewAutoscaler builds an elastic pool: a Balancer over the fixed
// backends, which it owns like NewBalancer does and the policy never
// retires, and Min local shards, with the scaling policy attached
// ((*Balancer).Autoscaler). Unless the evaluation interval is negative
// it starts the background scale loop, which stops when the Balancer
// closes; Close drains and releases every member.
func NewAutoscaler(opts AutoscalerOptions, fixed ...Evaluator) *Balancer {
	if opts.Min <= 0 {
		opts.Min = 1
	}
	if opts.Max < opts.Min {
		opts.Max = opts.Min
	}
	if opts.Cooldown == 0 {
		opts.Cooldown = 2 * time.Second
	}
	if opts.Interval == 0 {
		opts.Interval = time.Second
	}
	if opts.HealthInterval == 0 {
		opts.HealthInterval = -1
	}
	spawn := opts.Spawn
	if spawn == nil {
		spawn = func() Evaluator { return New(opts.Engine) }
	}
	b := newBalancer(opts.BalancerOptions, fixed)
	a := &Autoscaler{
		b:        b,
		min:      opts.Min,
		max:      opts.Max,
		cooldown: opts.Cooldown,
		spawn:    spawn,
		standby:  opts.Standby,
		live:     make([]*member, len(opts.Standby)),
	}
	a.up, a.down = ScaleThresholds(opts.UpThreshold, opts.DownThreshold)
	b.scaler = a
	b.mu.Lock()
	for i := 0; i < a.min; i++ {
		a.addLocalLocked()
	}
	b.mu.Unlock()
	if opts.Interval > 0 {
		go a.loop(opts.Interval)
	}
	return b
}

// addLocalLocked spawns one local shard as a new member. Callers hold
// b.mu.
func (a *Autoscaler) addLocalLocked() *member {
	m := a.b.addLocked(a.spawn(), fmt.Sprintf("pool/%d", a.spawned))
	a.spawned++
	a.locals++
	return m
}

// loop drives periodic scale evaluation until the Balancer closes.
func (a *Autoscaler) loop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-a.b.stop:
			return
		case <-t.C:
			a.ScaleNow()
		}
	}
}

// ScaleNow evaluates the load signal once and applies at most one scale
// event — the loop's body, exported so tests (and operators reacting to
// a known burst) can force a deterministic round. It reports whether
// the pool changed.
func (a *Autoscaler) ScaleNow() bool {
	b := a.b
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	now := time.Now()
	if a.cooldown > 0 && !a.last.IsZero() && now.Sub(a.last) < a.cooldown {
		b.mu.Unlock()
		return false
	}
	width, busy := a.loadLocked()
	queue := b.queued
	util := 0.0
	if width > 0 {
		util = float64(busy) / float64(width)
	}
	var scaled bool
	switch {
	case (queue > 0 || util >= a.up) && a.canGrowLocked():
		reason := fmt.Sprintf("utilization %.2f >= %.2f", util, a.up)
		if queue > 0 {
			reason = fmt.Sprintf("queue depth %d", queue)
		}
		scaled = a.growLocked(now, reason)
	case queue == 0 && util < a.down && a.canShrinkLocked():
		scaled = a.shrinkLocked(now, fmt.Sprintf("utilization %.2f < %.2f", util, a.down))
	}
	b.mu.Unlock()
	if scaled {
		// New capacity (or a retirement) changes what placement can get.
		b.cond.Broadcast()
	}
	return scaled
}

// loadLocked sums the active members' dispatch width and in-flight jobs.
func (a *Autoscaler) loadLocked() (width, busy int) {
	for _, m := range a.b.members {
		if !m.retired {
			width += m.width
			busy += m.inflight
		}
	}
	return width, busy
}

func (a *Autoscaler) canGrowLocked() bool {
	if a.locals < a.max {
		return true
	}
	for _, m := range a.live {
		if m == nil {
			return true
		}
	}
	return false
}

func (a *Autoscaler) canShrinkLocked() bool {
	if a.locals > a.min {
		return true
	}
	for _, m := range a.live {
		if m != nil {
			return true
		}
	}
	return false
}

// growLocked adds one member: a local shard while the local bound
// allows, then the first idle standby. A standby whose dial fails is
// skipped this round.
func (a *Autoscaler) growLocked(now time.Time, reason string) bool {
	var m *member
	if a.locals < a.max {
		m = a.addLocalLocked()
	} else {
		for i, sb := range a.standby {
			if a.live[i] != nil {
				continue
			}
			ev, err := sb.Dial()
			if err != nil {
				continue
			}
			name := sb.Name
			if name == "" {
				name = fmt.Sprintf("standby/%d", i)
			}
			m = a.b.addLocked(ev, name)
			m.standby = true
			a.live[i] = m
			break
		}
	}
	if m == nil {
		return false
	}
	a.ups++
	a.recordLocked(now, "up", m.name, reason)
	return true
}

// shrinkLocked retires one member — standbys first (they cost a wire
// hop), then locals down to the minimum, preferring the least-loaded
// candidate, and never a fixed member — through the Balancer, which
// closes it only once its in-flight jobs have resolved.
func (a *Autoscaler) shrinkLocked(now time.Time, reason string) bool {
	var victim *member
	for _, m := range a.b.members {
		if m.retired || m.fixed || (!m.standby && a.locals <= a.min) {
			continue // retired already, fixed, or the local floor
		}
		if victim == nil ||
			(m.standby && !victim.standby) || // standbys retire first
			(m.standby == victim.standby && m.inflight < victim.inflight) {
			victim = m
		}
	}
	if victim == nil {
		return false
	}
	if victim.standby {
		for i, m := range a.live {
			if m == victim {
				a.live[i] = nil
			}
		}
	} else {
		a.locals--
	}
	a.b.retireLocked(victim)
	a.downs++
	a.recordLocked(now, "down", victim.name, reason)
	return true
}

// recordLocked appends one scale event, bounding the retained history.
func (a *Autoscaler) recordLocked(now time.Time, dir, backend, reason string) {
	a.seq++
	width, _ := a.loadLocked()
	a.last = now
	a.events = append(a.events, ScaleEvent{
		Seq:       a.seq,
		Direction: dir,
		Backend:   backend,
		Reason:    reason,
		Width:     width,
		UnixMS:    now.UnixMilli(),
	})
	const maxEvents = 256
	if len(a.events) > maxEvents {
		a.events = append(a.events[:0:0], a.events[len(a.events)-maxEvents:]...)
	}
}

// Min and Max report the configured local-shard bounds.
func (a *Autoscaler) Min() int { return a.min }
func (a *Autoscaler) Max() int { return a.max }

// ScaleUps and ScaleDowns report the lifetime scale-event counters.
func (a *Autoscaler) ScaleUps() uint64 {
	a.b.mu.Lock()
	defer a.b.mu.Unlock()
	return a.ups
}

func (a *Autoscaler) ScaleDowns() uint64 {
	a.b.mu.Lock()
	defer a.b.mu.Unlock()
	return a.downs
}

// Events snapshots the retained scale-event history, oldest first.
func (a *Autoscaler) Events() []ScaleEvent {
	a.b.mu.Lock()
	defer a.b.mu.Unlock()
	out := make([]ScaleEvent, len(a.events))
	copy(out, a.events)
	return out
}

// ScaleState snapshots the pool's shape and load signal.
func (a *Autoscaler) ScaleState() ScaleState {
	a.b.mu.Lock()
	defer a.b.mu.Unlock()
	width, busy := a.loadLocked()
	st := ScaleState{
		Min:           a.min,
		Max:           a.max,
		ActiveShards:  a.locals,
		Standbys:      len(a.standby),
		Width:         width,
		Busy:          busy,
		Queue:         a.b.queued,
		UpThreshold:   a.up,
		DownThreshold: a.down,
		ScaleUps:      a.ups,
		ScaleDowns:    a.downs,
	}
	for _, m := range a.live {
		if m != nil {
			st.ActiveStandbys++
		}
	}
	return st
}
