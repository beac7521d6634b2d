package retrain

import (
	"testing"

	"mpicollpred/internal/obs"
)

// refMonitor is an oracle for the detector's monitor: a bare RateMonitor
// built from the detector's constants.
func refMonitor() *obs.RateMonitor {
	m := obs.NewRateMonitor(detAlpha, detWarn, detBreach)
	m.SetMinEvents(detMinEvents)
	return m
}

// TestDetectorSingleOutlierIsNotDrift: one wildly wrong observation in an
// otherwise healthy stream must never declare drift — the hysteresis and
// the EWMA both have to agree.
func TestDetectorSingleOutlierIsNotDrift(t *testing.T) {
	d := newDetector()
	for i := 0; i < 100; i++ {
		relErr := 0.05
		if i == 50 {
			relErr = 25.0 // a single 25x outlier mid-stream
		}
		if d.observe("m", relErr) {
			t.Fatalf("drift declared at observation %d from a single outlier", i)
		}
	}
	if st := d.models["m"]; st.drifts != 0 || st.errorEvents != 1 {
		t.Fatalf("outlier accounting wrong: drifts=%d events=%d", st.drifts, st.errorEvents)
	}
}

// TestDetectorSustainedBreachIsDrift: a stream that goes permanently wrong
// declares drift on exactly the detHysteresis-th consecutive observation
// at breach, and only once until reset.
func TestDetectorSustainedBreachIsDrift(t *testing.T) {
	d := newDetector()
	ref := refMonitor()
	for i := 0; i < 20; i++ {
		ref.Observe(false)
		if d.observe("m", 0.02) {
			t.Fatalf("drift declared on healthy stream at %d", i)
		}
	}
	streak, want, declaredAt := 0, -1, -1
	for i := 0; i < 60; i++ {
		ref.Observe(true)
		if ref.Level() == obs.LevelBreach {
			streak++
		} else {
			streak = 0
		}
		if streak == detHysteresis && want < 0 {
			want = i
		}
		if d.observe("m", -0.8) {
			if declaredAt >= 0 {
				t.Fatalf("drift declared twice (at %d and %d) without a reset", declaredAt, i)
			}
			declaredAt = i
		}
	}
	if want < 0 {
		t.Fatalf("reference monitor never sat at breach %d times in a row", detHysteresis)
	}
	if declaredAt != want {
		t.Fatalf("drift declared at breach observation %d, want %d (the %d-th consecutive at breach)",
			declaredAt, want, detHysteresis)
	}
	if st := d.models["m"]; st.drifts != 1 {
		t.Fatalf("drifts=%d after one sustained episode", st.drifts)
	}
}

// TestDetectorBreachMustBeConsecutive: a stream that oscillates in and out
// of breach never satisfies the hysteresis.
func TestDetectorBreachMustBeConsecutive(t *testing.T) {
	d := newDetector()
	for i := 0; i < 20; i++ {
		d.observe("m", 0.0)
	}
	breached := false
	for i := 0; i < 200; i++ {
		// Alternate hard error and clean observation: from a healthy start
		// the EWMA climbs to a cycle around the breach line and then
		// crosses it on every error and back on every clean observation,
		// so the breach streak never exceeds one.
		relErr := 0.0
		if i%2 == 0 {
			relErr = 2.0
		}
		if d.observe("m", relErr) {
			t.Fatalf("oscillating stream declared drift at %d", i)
		}
		breached = breached || d.models["m"].monitor.Level() == obs.LevelBreach
	}
	if !breached {
		t.Fatal("oscillating stream never reached breach")
	}
}

// TestDetectorResetRearms: after reset, the warm-up applies again, a new
// sustained breach declares a second drift, and the generation floor only
// rises.
func TestDetectorResetRearms(t *testing.T) {
	d := newDetector()
	first := -1
	for i := 0; i < 40 && first < 0; i++ {
		if d.observe("m", -0.8) {
			first = i
		}
	}
	if first < 0 {
		t.Fatalf("first drift never declared")
	}
	d.reset("m", 7)
	if st := d.models["m"]; st.minGen != 7 || st.breachStreak != 0 {
		t.Fatalf("reset state wrong: minGen=%d streak=%d", st.minGen, st.breachStreak)
	}
	// A fresh monitor fed only errors has rate 1, so it sits at breach from
	// the last warm-up observation on; drift comes detHysteresis-1
	// observations later. Without a re-armed warm-up it would come sooner.
	want := detMinEvents - 1 + detHysteresis - 1
	second := -1
	for i := 0; i < 40 && second < 0; i++ {
		if d.observe("m", -0.8) {
			second = i
		}
		if i < detMinEvents-1 && d.models["m"].monitor.Level() != obs.LevelOk {
			t.Fatalf("monitor left ok at post-reset observation %d, inside the warm-up", i)
		}
	}
	if second != want {
		t.Fatalf("second drift declared at post-reset observation %d, want %d", second, want)
	}
	// reset never lowers the generation floor.
	d.reset("m", 3)
	if st := d.models["m"]; st.minGen != 7 {
		t.Fatalf("reset lowered minGen to %d", st.minGen)
	}
}
