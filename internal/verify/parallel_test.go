package verify

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"fuiov/internal/telemetry"
)

// withGOMAXPROCS runs f at each GOMAXPROCS setting in turn.
func withGOMAXPROCS(t *testing.T, procs []int, f func(t *testing.T)) {
	for _, p := range procs {
		t.Run("procs"+strconv.Itoa(p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			f(t)
		})
	}
}

// TestSuiteGoldenBits pins the fitted attack and every Score field of
// a small seeded suite to the bits the serial shadow loop produced,
// at GOMAXPROCS 1 and 4: fanning the shadows out over workers must not
// move a single bit.
func TestSuiteGoldenBits(t *testing.T) {
	fed := newTestFederation(t, 5, 40)
	// A less-trained model of the same federation: its membership
	// signal sits strictly between none and the before-model's.
	after := newTestFederation(t, 5, 12).before
	withGOMAXPROCS(t, []int{1, 4}, func(t *testing.T) {
		ctx := context.Background()
		s, err := NewSuite(ctx, fed.target(), fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		bits := func(name string, got float64, want uint64) {
			t.Helper()
			if b := math.Float64bits(got); b != want {
				t.Errorf("%s = %v (%#x), want %#x", name, got, b, want)
			}
		}
		bits("att.wLoss", s.att.wLoss, 0xbff2e2b4a4649162)
		bits("att.wConf", s.att.wConf, 0x3fe650c7d3562ff0)
		bits("att.bias", s.att.bias, 0xbff30b3fd40789f9)

		sc, err := s.Score(ctx, after)
		if err != nil {
			t.Fatal(err)
		}
		bits("MIAAdvantageBefore", sc.MIAAdvantageBefore, 0x3fc5999999999998)
		bits("MIAAdvantageAfter", sc.MIAAdvantageAfter, 0x3fb6eeeeeeeeeef0)
		bits("RelearnThreshold", sc.RelearnThreshold, 0x3fdef5c28f5c28f6)
		want := [8]float64{0.16874999999999996, 0.08958333333333335,
			0.7663551401869159, 0.18691588785046728, 0.3177570093457944, -1, 0.48375, 0}
		if got := derefScore(sc); got != want {
			t.Errorf("score = %v, want %v", got, want)
		}
	})
}

// cancelAfterCtx cancels itself on its (after+1)-th Err call — the
// shadow workers poll Err before each shadow, so cancellation lands
// deterministically mid-fit — and counts every Err call.
type cancelAfterCtx struct {
	context.Context
	cancel context.CancelFunc
	after  int64
	calls  atomic.Int64
}

func (c *cancelAfterCtx) Err() error {
	if c.calls.Add(1) > c.after {
		c.cancel()
	}
	return c.Context.Err()
}

// TestNewSuiteCancelMidFit cancels after the first shadow has started:
// NewSuite must return context.Canceled, and only once every shadow
// worker has exited — no shadow finishes, and no worker polls the
// context, after it returns.
func TestNewSuiteCancelMidFit(t *testing.T) {
	fed := newTestFederation(t, 5, 10)
	withGOMAXPROCS(t, []int{1, 4}, func(t *testing.T) {
		base := runtime.NumGoroutine()
		inner, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx := &cancelAfterCtx{Context: inner, cancel: cancel, after: 1}
		reg := telemetry.New()
		cfg := fastConfig()
		cfg.Shadows, cfg.ShadowSteps, cfg.Telemetry = 6, 400, reg

		s, err := NewSuite(ctx, fed.target(), cfg)
		if !errors.Is(err, context.Canceled) || s != nil {
			t.Fatalf("NewSuite = %v, %v; want nil, context.Canceled", s, err)
		}
		trained := reg.Counter(telemetry.VerifyShadowModels).Value()
		polls := ctx.calls.Load()
		if trained != 1 {
			t.Errorf("%d shadows trained, want 1 (only the first poll passes)", trained)
		}
		// Nothing signals a leaked worker, so give one time to show:
		// it would finish its shadow or poll again within this window.
		time.Sleep(50 * time.Millisecond)
		if got := reg.Counter(telemetry.VerifyShadowModels).Value(); got != trained {
			t.Errorf("shadows trained after NewSuite returned: %d → %d", trained, got)
		}
		if got := ctx.calls.Load(); got != polls {
			t.Errorf("context polled after NewSuite returned: %d → %d calls", polls, got)
		}
		// A worker that has signalled the WaitGroup may not be torn
		// down yet, so the goroutine count gets a moment to settle.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after NewSuite returned, %d before", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
