// Package stop provides the cooperative cancellation token threaded through
// every long-running solver loop of the flow (placer CG iterations, lp
// simplex pivots and branch-and-bound nodes, mcmf augmenting paths, assign
// candidate construction, skew scheduling iterations).
//
// A Token is a cheap atomic flag, not a context.Context: the solver loops
// are pure compute with no I/O to unblock, so all they need is a load-and-
// branch per iteration — Check on a nil token with fault injection disarmed
// costs two atomic loads. Tokens are fired either explicitly (Cancel) or by
// a wall-clock deadline (WithTimeout). The serving layer arms a WithTimeout
// token when it admits a request, so queue wait counts against the
// deadline; it does not watch the HTTP request's context.
//
// Error discipline: a fired token surfaces as an error wrapping ErrCanceled
// or ErrDeadlineExceeded from the solver entry point that observed it. The
// solvers leave their best-effort state behind exactly as they do for
// non-convergence (placer positions are written back, branch-and-bound
// returns its incumbent), which is what lets core.Run turn cancellation into
// a degraded best-so-far result instead of a hang or a partial write.
package stop

import (
	"errors"
	"sync/atomic"
	"time"

	"rotaryclk/internal/faultinject"
)

// ErrCanceled reports that the caller explicitly canceled the work.
var ErrCanceled = errors.New("stop: canceled")

// ErrDeadlineExceeded reports that the work's deadline fired. It matches
// context.DeadlineExceeded under errors.Is so callers bridging from contexts
// can classify either way.
var ErrDeadlineExceeded = errors.New("stop: deadline exceeded")

// Token states. The zero state means "running"; tokens only ever move
// forward into one of the two stopped states (first writer wins).
const (
	running  uint32 = iota
	canceled        // Cancel
	expired         // deadline fired
)

// Token is a cooperative stop signal shared by one job and every solver loop
// working for it. All methods are safe for concurrent use and nil-safe: a
// nil *Token never stops, so solvers check unconditionally.
type Token struct {
	state atomic.Uint32
}

// New returns a token in the running state.
func New() *Token { return &Token{} }

// Cancel moves the token to the canceled state. The first of Cancel and the
// deadline wins; later firings are no-ops.
func (t *Token) Cancel() {
	if t != nil {
		t.state.CompareAndSwap(running, canceled)
	}
}

// expire moves the token to the deadline-exceeded state.
func (t *Token) expire() {
	if t != nil {
		t.state.CompareAndSwap(running, expired)
	}
}

// Stopped reports whether the token has fired. Nil-safe.
func (t *Token) Stopped() bool {
	return t != nil && t.state.Load() != running
}

// Err returns nil while running, ErrCanceled after Cancel, and
// ErrDeadlineExceeded after the deadline fired. Nil-safe.
func (t *Token) Err() error {
	if t == nil {
		return nil
	}
	switch t.state.Load() {
	case canceled:
		return ErrCanceled
	case expired:
		return ErrDeadlineExceeded
	}
	return nil
}

// WithTimeout returns a token that fires ErrDeadlineExceeded after d, and a
// release function that must be called when the work finishes to stop the
// timer (releasing early never un-fires the token). A non-positive d returns
// an already-expired token.
func WithTimeout(d time.Duration) (*Token, func()) {
	t := New()
	if d <= 0 {
		t.expire()
		return t, func() {}
	}
	timer := time.AfterFunc(d, t.expire)
	return t, func() { timer.Stop() }
}

// IsStop reports whether err wraps either stop sentinel — the test callers
// use to tell cancellation apart from mathematical failure.
func IsStop(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadlineExceeded)
}

// Check is the per-iteration test every solver loop performs: it first gives
// the named fault-injection site a chance to simulate a mid-loop deadline
// (tests arm the site with ErrDeadlineExceeded or ErrCanceled to force the
// cancellation path at an exact iteration), then reads the token. Disarmed
// and with a nil token it costs two atomic loads; solvers wrap the returned
// error with their own context before surfacing it.
func Check(t *Token, site string) error {
	if err := faultinject.Hook(site); err != nil {
		return err
	}
	return t.Err()
}
