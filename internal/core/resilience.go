package core

import (
	"errors"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/device"
	"mpixccl/internal/metrics"
	"mpixccl/internal/trace"
)

// Resilience tunes how the dispatch layer reacts to CCL failures beyond
// the basic fall-back-to-MPI of §1.2: bounded retries for transient
// errors, a per-(backend, operation) circuit breaker that stops paying
// the CCL launch-and-fail cost under persistent errors, and a channel-
// budget reduction while the fabric reports a degraded link.
type Resilience struct {
	// MaxRetries bounds reissues of a transient CCL failure
	// (xcclRemoteError) before the call falls back to MPI. 0 disables
	// retries.
	MaxRetries int
	// RetryBackoff is the virtual-time wait before the first reissue; it
	// doubles per attempt.
	RetryBackoff time.Duration
	// BreakerThreshold opens the (backend, op) breaker after this many
	// consecutive CCL failures, demoting the op to the MPI path. 0
	// disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects CCL dispatch
	// before letting one half-open probe wave through.
	BreakerCooldown time.Duration
	// WatchdogTimeout arms the CCL collective watchdog: a rank whose
	// stream task waits longer than this for its peers (collective start
	// rendezvous, point-to-point match) abandons the operation with an
	// ErrRankDead verdict instead of blocking forever on a fail-stopped
	// peer, bounding every collective in virtual time. 0 (the default)
	// leaves operations unbounded — pre-fail-stop behavior, and what keeps
	// the non-faulty hot paths allocation-free. The deadline must exceed
	// the largest healthy inter-rank skew (compute imbalance, injected
	// straggler delays) or slow ranks are misread as dead.
	WatchdogTimeout time.Duration
	// HeartbeatInterval arms the proactive heartbeat failure detector:
	// every rank runs a daemon that sends a control-message heartbeat to
	// its peers each interval and accrues suspicion (phi-accrual style,
	// calibrated to observed inter-arrival jitter) against peers whose
	// beats stop. A confirmed suspicion feeds the same ErrRankDead path
	// as the watchdog, so crashes are detected in a few intervals instead
	// of a full collective timeout. 0 (the default) disables the
	// detector. Pick an interval several times smaller than
	// WatchdogTimeout — detection latency is a small multiple of it.
	HeartbeatInterval time.Duration
	// HeartbeatPhi is the suspicion threshold, in units of inter-arrival
	// deviations beyond the mean, at which a silent peer is checked
	// against the fail-stop oracle. Higher values tolerate more jitter
	// (brownouts, stragglers) before suspecting. 0 means 8.
	HeartbeatPhi float64
	// Integrity turns on end-to-end CRC32C verification of fabric data
	// transfers with detect-and-retransmit: a corrupted payload (see
	// fault.CorruptRule) is caught by the checksum and retransmitted, up
	// to MaxRetries times per transfer. Off by default; the transfer hot
	// path is byte-identical in virtual time when off.
	Integrity bool
	// Disabled turns the whole policy off (PR-1 behavior: every CCL
	// error falls back immediately, no breaker).
	Disabled bool
}

// DefaultResilience is the policy used when Options.Resilience is nil.
func DefaultResilience() *Resilience {
	return &Resilience{
		MaxRetries:       2,
		RetryBackoff:     10 * time.Microsecond,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Millisecond,
	}
}

// breakerKey scopes one circuit breaker: failures of one operation on one
// backend must not demote the others.
type breakerKey struct {
	backend BackendKind
	op      OpKind
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	}
	return "unknown"
}

// breaker is a consecutive-failure circuit breaker in virtual time.
type breaker struct {
	state    breakerState
	fails    int           // consecutive failures while closed
	openedAt time.Duration // virtual time of the open transition
}

// Wave-consistency bookkeeping: a collective deadlocks if its ranks
// disagree on the dispatch path (the CCL side would wait forever for the
// ranks that went to MPI), so breaker verdicts are memoized per call
// "wave". The i-th call of op on a communicator forms one wave across all
// its ranks; the first-arriving rank evaluates the breaker and peers of
// the same wave reuse the verdict.
type rankKey struct {
	ctx  int
	op   OpKind
	rank int
}

type waveKey struct {
	ctx int
	op  OpKind
	idx int
}

type waveVerdict struct {
	allow    bool
	consumed int
}

func (rt *Runtime) breakerFor(op OpKind) *breaker {
	key := breakerKey{rt.kind, op}
	b, ok := rt.breakers[key]
	if !ok {
		b = &breaker{}
		rt.breakers[key] = b
	}
	return b
}

// allowCCL gates one rank's CCL dispatch on the (backend, op) breaker,
// with wave-consistent verdicts (see above). Call it only for ranks whose
// decision chose the CCL path.
func (rt *Runtime) allowCCL(x *Comm, op OpKind) bool {
	pol := rt.policy
	if pol.Disabled || pol.BreakerThreshold <= 0 {
		return true
	}
	ctx := x.mpi.ContextID()
	rk := rankKey{ctx, op, x.Rank()}
	idx := rt.waveIdx[rk]
	rt.waveIdx[rk] = idx + 1
	wk := waveKey{ctx, op, idx}
	wv, ok := rt.waves[wk]
	if !ok {
		wv = &waveVerdict{allow: rt.breakerAllow(x, op)}
		rt.waves[wk] = wv
	}
	wv.consumed++
	if wv.consumed == x.Size() {
		delete(rt.waves, wk)
	}
	return wv.allow
}

// breakerAllow evaluates the breaker once per wave, moving an open breaker
// whose cooldown elapsed into half-open (the probe wave runs on the CCL).
func (rt *Runtime) breakerAllow(x *Comm, op OpKind) bool {
	b := rt.breakerFor(op)
	if b.state != breakerOpen {
		return true
	}
	now := x.mpi.Proc().Now()
	if now-b.openedAt >= rt.policy.BreakerCooldown {
		b.state = breakerHalfOpen
		rt.noteBreaker(op, breakerHalfOpen, now)
		return true
	}
	return false
}

// breakerSuccess records a completed CCL operation: consecutive-failure
// count resets and a half-open probe closes the breaker.
func (rt *Runtime) breakerSuccess(x *Comm, op OpKind) {
	pol := rt.policy
	if pol.Disabled || pol.BreakerThreshold <= 0 {
		return
	}
	b := rt.breakerFor(op)
	b.fails = 0
	if b.state != breakerClosed {
		b.state = breakerClosed
		rt.noteBreaker(op, breakerClosed, x.mpi.Proc().Now())
	}
}

// breakerFailure records a failed CCL operation (after retries): a failed
// half-open probe re-opens, and threshold consecutive failures open a
// closed breaker.
func (rt *Runtime) breakerFailure(x *Comm, op OpKind) {
	pol := rt.policy
	if pol.Disabled || pol.BreakerThreshold <= 0 {
		return
	}
	b := rt.breakerFor(op)
	now := x.mpi.Proc().Now()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.fails = 0
		b.openedAt = now
		rt.noteBreaker(op, breakerOpen, now)
	case breakerClosed:
		b.fails++
		if b.fails >= pol.BreakerThreshold {
			b.state = breakerOpen
			b.fails = 0
			b.openedAt = now
			rt.noteBreaker(op, breakerOpen, now)
		}
	case breakerOpen:
		// Late failures of the wave that opened the breaker: extend the
		// cooldown from the most recent evidence.
		b.openedAt = now
	}
}

// noteBreaker publishes a breaker transition to the metrics registry and
// the trace recorder (rank -1: the event belongs to the runtime, not to
// one rank).
func (rt *Runtime) noteBreaker(op OpKind, to breakerState, now time.Duration) {
	rt.opts.Metrics.Counter("xccl_breaker_transitions_total",
		"Circuit-breaker state transitions by backend, operation, and target state.",
		metrics.Labels{"backend": string(rt.kind), "op": string(op), "to": to.String()}).Inc()
	rec := trace.Record{
		Op: string(op), Backend: string(rt.kind), Rank: -1,
		Event: "breaker_" + to.String(), Start: now,
	}
	rt.emit(rec)
}

// countRetry publishes one transient-failure reissue.
func (rt *Runtime) countRetry(x *Comm, op OpKind, err error) {
	rt.stats.Retries++
	result := "unknown"
	var ce *ccl.Error
	if errors.As(err, &ce) {
		result = ce.Result.String()
	}
	rt.opts.Metrics.Counter("xccl_retries_total",
		"CCL-path reissues of transient failures by operation, backend, and result code.",
		metrics.Labels{"op": string(op), "backend": string(rt.kind), "result": result}).Inc()
	rec := trace.Record{
		Op: string(op), Backend: string(rt.kind), Rank: x.Rank(),
		Event: "retry", Start: x.mpi.Proc().Now(),
	}
	rt.emit(rec)
}

// runResilient executes the CCL path under the retry policy: a transient
// failure (ccl.IsTransient) is reissued after a doubling virtual-time
// backoff, up to MaxRetries times. Transient validation errors fail before
// the rank enqueues its part of the collective, so a retried rank joins
// the same operation its peers are already waiting on.
func (x *Comm) runResilient(op OpKind, cclPath func(cc *ccl.Comm, s *device.Stream) error) error {
	pol := x.rt.policy
	err := x.runCCL(cclPath)
	if pol.Disabled || pol.MaxRetries <= 0 {
		return err
	}
	backoff := pol.RetryBackoff
	for attempt := 0; attempt < pol.MaxRetries && err != nil && ccl.IsTransient(err); attempt++ {
		x.rt.countRetry(x, op, err)
		if backoff > 0 {
			x.mpi.Proc().Sleep(backoff)
			backoff *= 2
		}
		err = x.runCCL(cclPath)
	}
	return err
}
