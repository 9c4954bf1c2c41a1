package loadgen

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func mustScenario(t *testing.T, name string) Scenario {
	t.Helper()
	s, err := NamedScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunSameSeedBitIdentical(t *testing.T) {
	scen := mustScenario(t, "diurnal")
	cfg := Config{Scenario: scen, Planner: PlannerArbiter, Seed: 99}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("digests differ: %016x vs %016x", a.Digest, b.Digest)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("reports differ beyond digest")
	}
}

func TestRunSeedsDiverge(t *testing.T) {
	scen := mustScenario(t, "diurnal")
	a, err := Run(Config{Scenario: scen, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Scenario: scen, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatal("different seeds produced equal digests")
	}
}

func TestRunChurnLifecycle(t *testing.T) {
	scen := mustScenario(t, "churn")
	rep, err := Run(Config{Scenario: scen, Planner: PlannerArbiter, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]TenantReport{}
	for _, tr := range rep.Tenants {
		byID[tr.ID] = tr
	}
	// The late-booting and dying tenants each see roughly half the horizon;
	// their offered counts must reflect their live windows, not the full run.
	full := byID["steady"]
	if full.Offered == 0 {
		t.Fatal("steady tenant offered nothing")
	}
	for _, id := range []string{"dies", "lateboot"} {
		tr := byID[id]
		if tr.Offered == 0 {
			t.Fatalf("%s tenant offered nothing", id)
		}
	}
	// The planner must keep closing epochs after the death and around the
	// boot — the inactive-tenant barrier skip in Host.noteOp.
	if rep.Epochs < 2 {
		t.Fatalf("churn run closed only %d epochs; barrier stalled on the dead tenant?", rep.Epochs)
	}
}

func TestRunGoodputCollapsesPastKnee(t *testing.T) {
	scen := mustScenario(t, "flashcrowd")
	low, err := Run(Config{Scenario: scen, Seed: 5, RateScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(Config{Scenario: scen, Seed: 5, RateScale: 8})
	if err != nil {
		t.Fatal(err)
	}
	if low.Good > low.Offered || high.Good > high.Offered {
		t.Fatal("goodput exceeded offered load")
	}
	// Below the knee nearly everything is good; far past it most is not.
	if frac := float64(low.Good) / float64(low.Offered); frac < 0.9 {
		t.Fatalf("below-knee good fraction %v, want > 0.9", frac)
	}
	if frac := float64(high.Good) / float64(high.Offered); frac > 0.5 {
		t.Fatalf("past-knee good fraction %v, want < 0.5", frac)
	}
	if high.SojournP99 <= low.SojournP99 {
		t.Fatalf("p99 did not grow with load: %v vs %v", low.SojournP99, high.SojournP99)
	}
	if high.Backlog == 0 {
		t.Fatal("past-knee run reports zero backlog")
	}
}

// A NaN or infinite rate scale is refused: run, it would make every slice's
// Poisson count loop forever. Run gets a deadline so that a hang fails here
// with a message instead of at the go test timeout.
func TestRunRejectsNonFiniteRateScale(t *testing.T) {
	scen := mustScenario(t, "diurnal")
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		done := make(chan error, 1)
		go func() {
			_, err := Run(Config{Scenario: scen, RateScale: scale})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "not a finite non-negative number") {
				t.Fatalf("RateScale %v: err = %v, want it refused", scale, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("RateScale %v: Run still running after 10s; a non-finite scale must be refused", scale)
		}
	}
}

// TestNonFiniteRateTerminates: a curve whose measure is not a finite number
// — a NaN or infinite rate, a DiurnalRate with no Period (ω = +Inf makes
// CumOps NaN) — has no arrivals to draw. Schedule returns none, Arrivals
// stops with an error, and Run fails naming the tenant, under both
// processes and each under a watchdog, so a generator that loops forever
// fails here rather than hanging the suite.
func TestNonFiniteRateTerminates(t *testing.T) {
	for _, c := range []struct {
		name  string
		curve RateCurve
	}{
		{"NaN rate", ConstantRate{PerSec: math.NaN()}},
		{"+Inf rate", ConstantRate{PerSec: math.Inf(1)}},
		{"-Inf rate", ConstantRate{PerSec: math.Inf(-1)}},
		{"no Period", DiurnalRate{Base: 30_000, Swing: 0.9}},
		{"scaled NaN Base", Scale(DiurnalRate{Base: math.NaN(), Swing: 0.5, Period: time.Millisecond}, 2)},
	} {
		for _, proc := range []Process{Poisson, Deterministic} {
			cfg := ArrivalConfig{Process: proc, Curve: c.curve, Seed: 1}
			watchdog(t, fmt.Sprintf("%s, process %d: Schedule", c.name, proc), func() error {
				if got := cfg.Schedule(0, 2*time.Millisecond); len(got) != 0 {
					return fmt.Errorf("%d arrivals", len(got))
				}
				return nil
			})
			watchdog(t, fmt.Sprintf("%s, process %d: Arrivals", c.name, proc), func() error {
				a := NewArrivals(cfg, 0, 2*time.Millisecond)
				for _, ok := a.Next(); ok; _, ok = a.Next() {
				}
				if a.Err() == nil {
					return errors.New("stream ended with no error")
				}
				return nil
			})
		}
		scen := mustScenario(t, "diurnal")
		scen.Tenants[1].Curve = c.curve
		watchdog(t, c.name+": Run", func() error {
			if _, err := Run(Config{Scenario: scen}); err == nil || !strings.Contains(err.Error(), "tenant night") {
				return fmt.Errorf("err = %v, want one naming tenant night", err)
			}
			return nil
		})
	}
}

// watchdog runs f on a goroutine and fails the test if f reports an error,
// or if it has not returned within 10 s.
func watchdog(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still running after 10s; a measure that is not finite must end the stream", what)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty scenario accepted")
	}
	scen := mustScenario(t, "diurnal")
	if _, err := Run(Config{Scenario: scen, Planner: "chaos"}); err == nil {
		t.Fatal("unknown planner accepted")
	}
	if _, err := Run(Config{Scenario: scen, RateScale: -1}); err == nil {
		t.Fatal("negative rate scale accepted")
	}
	bad := scen
	bad.Horizon = 0
	if _, err := Run(Config{Scenario: bad}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := NamedScenario("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
}

func TestRunReportRenders(t *testing.T) {
	scen := mustScenario(t, "diurnal")
	scen.Horizon = 40 * time.Millisecond
	rep, err := Run(Config{Scenario: scen, Planner: PlannerMarket, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Render()
	for _, want := range []string{"diurnal", "market", "offered", "goodput", "digest"} {
		if !contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
