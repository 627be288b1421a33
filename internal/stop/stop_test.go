package stop

import (
	"errors"
	"sync"
	"testing"
	"time"

	"rotaryclk/internal/faultinject"
)

func TestNilTokenNeverStops(t *testing.T) {
	var tok *Token
	if tok.Stopped() {
		t.Error("nil token reports Stopped")
	}
	if err := tok.Err(); err != nil {
		t.Errorf("nil token Err = %v", err)
	}
	// Firing a nil token must be a no-op, not a panic.
	tok.Cancel()
	tok.expire()
	if err := Check(tok, "stop.test"); err != nil {
		t.Errorf("Check(nil) = %v", err)
	}
}

func TestCancel(t *testing.T) {
	tok := New()
	if tok.Stopped() || tok.Err() != nil {
		t.Fatal("fresh token already stopped")
	}
	tok.Cancel()
	if !tok.Stopped() {
		t.Error("canceled token not Stopped")
	}
	if err := tok.Err(); !errors.Is(err, ErrCanceled) {
		t.Errorf("Err = %v, want ErrCanceled", err)
	}
}

// TestFirstWriterWins: a token only ever moves forward into one stopped
// state; the loser of the Cancel/deadline race must not overwrite it.
func TestFirstWriterWins(t *testing.T) {
	tok := New()
	tok.Cancel()
	tok.expire()
	if err := tok.Err(); !errors.Is(err, ErrCanceled) {
		t.Errorf("expire after Cancel changed Err to %v", err)
	}
	tok = New()
	tok.expire()
	tok.Cancel()
	if err := tok.Err(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("Cancel after expire changed Err to %v", err)
	}
}

func TestCancelConcurrent(t *testing.T) {
	tok := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				tok.Cancel()
			} else {
				tok.expire()
			}
		}(i)
	}
	wg.Wait()
	if !tok.Stopped() {
		t.Fatal("token not stopped after concurrent firings")
	}
	if err := tok.Err(); !IsStop(err) {
		t.Fatalf("Err = %v, want a stop sentinel", err)
	}
}

func TestWithTimeout(t *testing.T) {
	tok, release := WithTimeout(5 * time.Millisecond)
	defer release()
	if tok.Stopped() {
		t.Fatal("token stopped before its deadline")
	}
	deadline := time.Now().Add(2 * time.Second)
	for !tok.Stopped() {
		if time.Now().After(deadline) {
			t.Fatal("token never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if err := tok.Err(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("Err = %v, want ErrDeadlineExceeded", err)
	}
}

func TestWithTimeoutNonPositive(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		tok, release := WithTimeout(d)
		release()
		if err := tok.Err(); !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("WithTimeout(%v).Err = %v, want pre-expired", d, err)
		}
	}
}

func TestWithTimeoutRelease(t *testing.T) {
	tok, release := WithTimeout(10 * time.Millisecond)
	release() // before the deadline: the timer must not fire afterwards
	time.Sleep(20 * time.Millisecond)
	if tok.Stopped() {
		t.Error("released timer still fired")
	}
	// Releasing never un-fires a token that already stopped.
	tok2, release2 := WithTimeout(time.Nanosecond)
	for !tok2.Stopped() {
		time.Sleep(time.Millisecond)
	}
	release2()
	if !tok2.Stopped() {
		t.Error("release un-fired a stopped token")
	}
}

func TestIsStop(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrCanceled, true},
		{ErrDeadlineExceeded, true},
		{errors.New("solver blew up"), false},
	}
	for _, c := range cases {
		if got := IsStop(c.err); got != c.want {
			t.Errorf("IsStop(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	// Wrapped sentinels still classify: that is what lets core tell a
	// canceled solver apart from a broken one.
	if !IsStop(errors.Join(errors.New("cg"), ErrCanceled)) {
		t.Error("IsStop missed a wrapped ErrCanceled")
	}
}

func TestCheck(t *testing.T) {
	tok := New()
	if err := Check(tok, "stop.test"); err != nil {
		t.Fatalf("Check on a running token = %v", err)
	}
	tok.Cancel()
	if err := Check(tok, "stop.test"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Check on a canceled token = %v", err)
	}
}

// TestCheckInjection: the fault-injection hook inside Check is what the
// recovery-matrix tests rely on — an armed site simulates a deadline at an
// exact iteration even though the token itself never fired.
func TestCheckInjection(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: "stop.test.site", Call: 2, Err: ErrDeadlineExceeded,
	})()
	tok := New()
	if err := Check(tok, "stop.test.site"); err != nil {
		t.Fatalf("call 1 = %v, want nil", err)
	}
	if err := Check(tok, "stop.test.site"); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("call 2 = %v, want the injected deadline", err)
	}
	if err := Check(tok, "stop.test.site"); err != nil {
		t.Fatalf("call 3 = %v, want nil (token still running)", err)
	}
}
