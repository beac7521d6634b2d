package bench

import (
	"math"
	"testing"

	"mpicollpred/internal/fault"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/par"
)

// noCap leaves Options.MaxReps as a measurement's only repetition cap.
const noCap = 1 << 30

func testSetup(t *testing.T) (mpilib.Config, netmodel.Params, netmodel.Topology) {
	t.Helper()
	mach := machine.Hydra()
	s, err := mpilib.OpenMPI().Collective(mpilib.Bcast)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config(1) // basic_linear
	if err != nil {
		t.Fatal(err)
	}
	return cfg, mach.Net, netmodel.Topology{Nodes: 3, PPN: 4}
}

func TestMeasureRepCap(t *testing.T) {
	cfg, net, topo := testSetup(t)
	r := NewRunner(Options{MaxReps: 7, MaxTime: 100, SyncJitter: 1e-7})
	m, err := r.Measure(cfg, net, topo, 1024, 42, noCap)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reps() != 7 {
		t.Errorf("reps = %d, want 7", m.Reps())
	}
	min, max := m.Quantile(0), m.Quantile(1)
	if min <= 0 {
		t.Error("non-positive statistics")
	}
	if min > m.Median() || max > m.Median()*3 {
		t.Errorf("implausible stats: min=%v median=%v max=%v", min, m.Median(), max)
	}
}

func TestMeasureTimeBudgetStopsEarly(t *testing.T) {
	cfg, net, topo := testSetup(t)
	// First find the typical single-rep time, then set a budget of ~3 reps.
	r := NewRunner(Options{MaxReps: 1, MaxTime: 0, SyncJitter: 1e-7})
	one, err := r.Measure(cfg, net, topo, 1<<20, 42, noCap)
	if err != nil {
		t.Fatal(err)
	}
	budget := 3 * one.Times[0]
	r = NewRunner(Options{MaxReps: 500, MaxTime: budget, SyncJitter: 1e-7})
	m, err := r.Measure(cfg, net, topo, 1<<20, 42, noCap)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reps() >= 10 {
		t.Errorf("budget did not stop the loop: %d reps", m.Reps())
	}
	if m.Reps() < 1 {
		t.Error("at least one rep must run")
	}
	if m.Consumed < budget && m.Reps() == 500 {
		t.Error("inconsistent budget accounting")
	}
}

func TestMeasureDeterministic(t *testing.T) {
	cfg, net, topo := testSetup(t)
	r1 := NewRunner(Options{MaxReps: 5, SyncJitter: 1e-7})
	r2 := NewRunner(Options{MaxReps: 5, SyncJitter: 1e-7})
	a, err := r1.Measure(cfg, net, topo, 4096, 7, noCap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r2.Measure(cfg, net, topo, 4096, 7, noCap)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			t.Fatalf("rep %d differs: %v vs %v", i, a.Times[i], b.Times[i])
		}
	}
	c, err := r1.Measure(cfg, net, topo, 4096, 8, noCap)
	if err != nil {
		t.Fatal(err)
	}
	if c.Times[0] == a.Times[0] {
		t.Error("different seeds should give different noise")
	}
}

func TestRepsVaryUnderNoise(t *testing.T) {
	cfg, net, topo := testSetup(t)
	r := NewRunner(Options{MaxReps: 8, SyncJitter: 1e-7})
	m, err := r.Measure(cfg, net, topo, 65536, 13, noCap)
	if err != nil {
		t.Fatal(err)
	}
	allEqual := true
	for _, tt := range m.Times[1:] {
		if tt != m.Times[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Error("repetitions under noise should not be identical")
	}
	// But they should be within a plausible noise band.
	if m.Times[0] <= 0 {
		t.Fatal("bad time")
	}
	spread := (m.Median() - m.Quantile(0)) / m.Median()
	if spread < 0 || spread > 0.8 {
		t.Errorf("noise spread %.2f implausible", spread)
	}
}

func TestDefaultOptionsPerMachine(t *testing.T) {
	if DefaultOptions("SuperMUC-NG").MaxTime != 0.5 {
		t.Error("SuperMUC-NG budget must be 0.5s")
	}
	if DefaultOptions("Hydra").MaxTime != 1.0 {
		t.Error("Hydra budget must be 1s")
	}
	if DefaultOptions("Hydra").MaxReps != 500 {
		t.Error("rep cap must be 500")
	}
	// The budget comes from the machine registry, not a name comparison:
	// every registered machine must resolve to its profile's budget.
	for _, m := range machine.All() {
		if got := DefaultOptions(m.Name).MaxTime; got != m.BenchBudget {
			t.Errorf("%s: MaxTime = %v, want BenchBudget %v", m.Name, got, m.BenchBudget)
		}
	}
	// Unknown machines fall back to the common 1 s budget instead of
	// silently matching a hard-coded string.
	if got := DefaultOptions("no-such-machine").MaxTime; got != 1.0 {
		t.Errorf("unknown machine MaxTime = %v, want 1.0 fallback", got)
	}
}

func TestBudgetUpperBound(t *testing.T) {
	o := Options{MaxTime: 0.5}
	// The paper's SuperMUC-NG bound: 23184 measurements * 0.5s ~ 3.2h.
	if got := o.Budget(23184); math.Abs(got-11592) > 1e-9 {
		t.Errorf("Budget = %v", got)
	}
}

func TestMedianEvenOdd(t *testing.T) {
	m := Measurement{Times: []float64{3, 1, 2}}
	if m.Median() != 2 {
		t.Errorf("odd median = %v", m.Median())
	}
	m = Measurement{Times: []float64{4, 1, 3, 2}}
	if m.Median() != 2.5 {
		t.Errorf("even median = %v", m.Median())
	}
}

func TestZeroRepStatsAreNaN(t *testing.T) {
	// A zero-repetition measurement has no statistics: every summary must
	// be NaN, never a fake 0 that downstream code could read as "free".
	var m Measurement
	for name, v := range map[string]float64{
		"Median":        m.Median(),
		"Quantile(0)":   m.Quantile(0),
		"Quantile(0.5)": m.Quantile(0.5),
		"Quantile(1)":   m.Quantile(1),
		"MAD":           m.MAD(),
	} {
		if !math.IsNaN(v) {
			t.Errorf("empty Measurement.%s = %v, want NaN", name, v)
		}
	}
}

func TestTinyBudgetStillRunsOneRep(t *testing.T) {
	// Regression: a MaxTime so small that not even one repetition fits must
	// still produce one measured repetition (marked exhausted), never a
	// zero-rep measurement whose statistics are NaN.
	cfg, net, topo := testSetup(t)
	r := NewRunner(Options{MaxReps: 500, MaxTime: 1e-12, SyncJitter: 1e-7})
	m, err := r.Measure(cfg, net, topo, 1<<20, 42, noCap)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reps() != 1 {
		t.Fatalf("reps = %d, want exactly 1 under a sub-rep budget", m.Reps())
	}
	if !m.Exhausted {
		t.Error("sub-rep budget must mark the measurement exhausted")
	}
	if math.IsNaN(m.Median()) || m.Median() <= 0 {
		t.Errorf("median = %v, want a positive measured time", m.Median())
	}
}

func TestQuantilesInterpolate(t *testing.T) {
	m := Measurement{Times: []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}}
	if p10, p90 := m.Quantile(0.1), m.Quantile(0.9); p10 != 1.9 || p90 != 9.1 {
		t.Errorf("interpolated percentiles: p10=%v p90=%v", p10, p90)
	}
	if m.Quantile(0) != 1 || m.Quantile(1) != 10 {
		t.Errorf("extremes: %v, %v", m.Quantile(0), m.Quantile(1))
	}
	// Quantiles must not reorder the raw repetition times.
	if m.Times[0] != 10 {
		t.Error("Times must keep measurement order")
	}
	// Every statistic reads Times as it is now, so an in-place write (as
	// outlier re-measurement does) shows at once.
	m.Times[0] = 100
	if m.Quantile(1) != 100 || m.Median() != 5.5 {
		t.Errorf("after an in-place write: max=%v median=%v, want 100 and 5.5", m.Quantile(1), m.Median())
	}
}

func TestMeasureMarksExhausted(t *testing.T) {
	cfg, net, topo := testSetup(t)
	// A one-rep budget: find the single-rep cost, then undercut it.
	r := NewRunner(Options{MaxReps: 1, MaxTime: 0, SyncJitter: 1e-7})
	one, err := r.Measure(cfg, net, topo, 1<<20, 42, noCap)
	if err != nil {
		t.Fatal(err)
	}
	if one.Exhausted {
		t.Error("rep-capped measurement must not count as budget-exhausted")
	}
	r = NewRunner(Options{MaxReps: 500, MaxTime: one.Times[0] / 2, SyncJitter: 1e-7})
	m, err := r.Measure(cfg, net, topo, 1<<20, 42, noCap)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Exhausted {
		t.Errorf("budget-stopped measurement must be marked exhausted: %+v reps", m.Reps())
	}
}

func TestMetricsRecorded(t *testing.T) {
	cfg, net, topo := testSetup(t)
	reg := obs.NewRegistry()
	met := NewMetrics(reg, obs.Labels{"dataset": "test"})
	cells := []Cell{
		{Cfg: cfg, Net: net, Topo: topo, Msize: 1024, Seed: 1, MaxReps: 4},
		{Skip: true},
		{Cfg: cfg, Net: net, Topo: topo, Msize: 4096, Seed: 2, MaxReps: 4},
	}
	var got []Measurement
	opts := Options{MaxReps: 4, MaxTime: 100, SyncJitter: 1e-7, Metrics: met}
	var err error
	par.AtProcs(2, func() {
		err = Sweep(cells, opts, nil, func(i int, m Measurement) error {
			if !cells[i].Skip {
				got = append(got, m)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := got[0], got[1]
	if got := met.Measurements.Value(); got != 2 {
		t.Errorf("measurements counter = %d, want 2 (skipped cells are not booked)", got)
	}
	if got, want := met.Reps.Value(), int64(m1.Reps()+m2.Reps()); got != want {
		t.Errorf("reps counter = %d, want %d", got, want)
	}
	if got, want := met.Consumed.Value(), m1.Consumed+m2.Consumed; math.Abs(got-want) > 1e-12 {
		t.Errorf("consumed gauge = %v, want %v", got, want)
	}
	if met.Exhausted.Value() != 0 {
		t.Error("nothing should be exhausted under a 100s budget")
	}
	if got, want := met.RepSeconds.Count(), uint64(m1.Reps()+m2.Reps()); got != want {
		t.Errorf("rep histogram count = %d, want %d", got, want)
	}
	// A Runner books nothing, even when its options carry a sink.
	r := NewRunner(opts)
	if _, err := r.Measure(cfg, net, topo, 1024, 3, noCap); err != nil {
		t.Fatal(err)
	}
	if got := met.Measurements.Value(); got != 2 {
		t.Errorf("a bare Runner booked a measurement: counter = %d, want 2", got)
	}
	// A nil Metrics field must be a no-op, not a panic.
	opts.Metrics = nil
	if err := Sweep(cells[:1], opts, nil, func(int, Measurement) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestMADFlagsOutliers(t *testing.T) {
	// One gross outlier among nine well-behaved reps.
	m := Measurement{Times: []float64{1, 1.1, 0.9, 1.05, 0.95, 1, 1.02, 0.98, 100}}
	if med := m.Median(); med < 0.9 || med > 1.1 {
		t.Errorf("median %v should shrug off the outlier", med)
	}
	if mad := m.MAD(); mad <= 0 || mad > 0.2 {
		t.Errorf("MAD = %v, want a small positive spread", mad)
	}
	if idx := m.outlierIndices(DefaultOutlierK); len(idx) != 1 || idx[0] != 8 {
		t.Errorf("outlier indices = %v, want [8]", idx)
	}
	// Identical reps: MAD 0, nothing flagged.
	flat := Measurement{Times: []float64{2, 2, 2, 2}}
	if idx := flat.outlierIndices(DefaultOutlierK); len(idx) != 0 {
		t.Errorf("flat measurement flagged %v", idx)
	}
}

func TestFaultsPerturbDeterministically(t *testing.T) {
	cfg, net, topo := testSetup(t)
	plan, err := fault.Parse("straggler:node=0,factor=4")
	if err != nil {
		t.Fatal(err)
	}
	clean := NewRunner(Options{MaxReps: 3, SyncJitter: 1e-7})
	faulty1 := NewRunner(Options{MaxReps: 3, SyncJitter: 1e-7, Faults: plan})
	faulty2 := NewRunner(Options{MaxReps: 3, SyncJitter: 1e-7, Faults: plan})
	c, err := clean.Measure(cfg, net, topo, 65536, 42, noCap)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := faulty1.Measure(cfg, net, topo, 65536, 42, noCap)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := faulty2.Measure(cfg, net, topo, 65536, 42, noCap)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Median() <= c.Median() {
		t.Errorf("straggler should slow the collective: clean %v, faulty %v", c.Median(), f1.Median())
	}
	for i := range f1.Times {
		if f1.Times[i] != f2.Times[i] {
			t.Fatalf("fault injection is not deterministic: rep %d %v vs %v", i, f1.Times[i], f2.Times[i])
		}
	}
	// A nil plan must reproduce the fault-free measurement bit for bit.
	nilPlan := NewRunner(Options{MaxReps: 3, SyncJitter: 1e-7, Faults: nil})
	n, err := nilPlan.Measure(cfg, net, topo, 65536, 42, noCap)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Times {
		if c.Times[i] != n.Times[i] {
			t.Fatalf("nil fault plan changed rep %d: %v vs %v", i, c.Times[i], n.Times[i])
		}
	}
}

func TestClockOutlierFaultInflatesStart(t *testing.T) {
	cfg, net, topo := testSetup(t)
	// prob=1 makes every rank an outlier with a large offset: the makespan
	// must absorb it.
	plan, err := fault.Parse("clock:prob=1,scale=0.001")
	if err != nil {
		t.Fatal(err)
	}
	clean := NewRunner(Options{MaxReps: 2, SyncJitter: 1e-7})
	faulty := NewRunner(Options{MaxReps: 2, SyncJitter: 1e-7, Faults: plan})
	c, err := clean.Measure(cfg, net, topo, 1024, 7, noCap)
	if err != nil {
		t.Fatal(err)
	}
	f, err := faulty.Measure(cfg, net, topo, 1024, 7, noCap)
	if err != nil {
		t.Fatal(err)
	}
	if f.Median() < c.Median() {
		t.Errorf("clock outliers should not speed things up: clean %v, faulty %v", c.Median(), f.Median())
	}
}

func TestOutlierRetryRepairsMeasurement(t *testing.T) {
	cfg, net, topo := testSetup(t)
	// Rare huge clock outliers + retry budget: MAD flags the outlier
	// repetitions, each retry draws clock outliers of its own, so the
	// retried measurement flags fewer outliers and its tail is no worse
	// than the unrepaired one, and retries are counted.
	plan, err := fault.Parse("clock:prob=0.02,scale=0.05")
	if err != nil {
		t.Fatal(err)
	}
	raw := NewRunner(Options{MaxReps: 12, SyncJitter: 1e-7, Faults: plan})
	m1, err := raw.Measure(cfg, net, topo, 1024, 99, noCap)
	if err != nil {
		t.Fatal(err)
	}
	flagged := len(m1.outlierIndices(DefaultOutlierK))
	if flagged == 0 {
		t.Fatal("MAD flags no outlier under this plan and seed; the test needs some")
	}
	repaired := NewRunner(Options{MaxReps: 12, SyncJitter: 1e-7, Faults: plan,
		OutlierRetries: 4})
	m2, err := repaired.Measure(cfg, net, topo, 1024, 99, noCap)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Retried == 0 {
		t.Fatal("expected at least one retried repetition")
	}
	if left := len(m2.outlierIndices(DefaultOutlierK)); left >= flagged {
		t.Errorf("retries left %d of %d flagged outliers", left, flagged)
	}
	if m2.Quantile(0.9) > m1.Quantile(0.9) {
		t.Errorf("retry made the tail worse: %v > %v", m2.Quantile(0.9), m1.Quantile(0.9))
	}
	// Without retries the measurement must be byte-identical to m1.
	again := NewRunner(Options{MaxReps: 12, SyncJitter: 1e-7, Faults: plan})
	m3, err := again.Measure(cfg, net, topo, 1024, 99, noCap)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Times {
		if m1.Times[i] != m3.Times[i] {
			t.Fatal("retry-free measurements must be reproducible")
		}
	}
}
