package obs

import (
	"math"
	"sort"
	"sync"
)

// Drift and SLO monitors for the serving path. All three primitives are
// event-driven — state advances only when Observe is called, never on a
// wall-clock tick — so a seeded request sequence produces bit-identical
// monitor state run after run (the golden-testability contract of DESIGN
// §5 extended to telemetry).

// MonitorLevel is a monitor's threshold state.
type MonitorLevel int

// Monitor threshold states, ordered by severity.
const (
	LevelOk MonitorLevel = iota
	LevelWarn
	LevelBreach
)

// String renders the level for /v1/telemetry and reports.
func (l MonitorLevel) String() string {
	switch l {
	case LevelWarn:
		return "warn"
	case LevelBreach:
		return "breach"
	default:
		return "ok"
	}
}

// QuantileWindow keeps the last capacity observations in a ring and answers
// exact quantiles over that window — the streaming sketch watching served
// predictions per model for drift. Unlike the exponential-bucket Histogram
// it forgets: a distribution shift shows up within one window.
type QuantileWindow struct {
	mu    sync.Mutex
	buf   []float64
	next  int
	n     int
	total uint64
}

// NewQuantileWindow returns a window over the last capacity observations
// (minimum 1).
func NewQuantileWindow(capacity int) *QuantileWindow {
	if capacity < 1 {
		capacity = 1
	}
	return &QuantileWindow{buf: make([]float64, capacity)}
}

// Observe records one value; NaNs are dropped (a fallback decision has no
// predicted time and must not poison the window).
func (w *QuantileWindow) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	w.mu.Lock()
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.total++
	w.mu.Unlock()
}

// Count returns how many observations were ever recorded.
func (w *QuantileWindow) Count() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// Len returns how many observations the window currently holds.
func (w *QuantileWindow) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Quantile returns the q-quantile of the current window with linear
// interpolation between order statistics, NaN when the window is empty.
func (w *QuantileWindow) Quantile(q float64) float64 {
	w.mu.Lock()
	s := append([]float64(nil), w.buf[:w.n]...)
	w.mu.Unlock()
	return Quantile(s, q)
}

// Quantile returns the q-quantile of vs with linear interpolation between
// order statistics, NaN when vs is empty. vs is not modified.
func Quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := q * float64(len(s)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// RateMonitor tracks the rate of a boolean event stream (fallbacks,
// envelope violations) as an exponentially weighted moving average with
// ok/warn/breach thresholds. Warm-up protection: until MinEvents
// observations arrive the level stays ok, so a single early event cannot
// page anyone.
type RateMonitor struct {
	mu sync.Mutex
	// Alpha is the EWMA weight of a new observation (0 < alpha <= 1).
	alpha  float64
	warn   float64
	breach float64
	// minEvents is the warm-up threshold before levels apply.
	minEvents uint64

	ewma        float64
	n           uint64
	events      uint64
	transitions uint64
	level       MonitorLevel
}

// DefaultMonitorMinEvents is the warm-up observation count before a
// RateMonitor reports warn/breach.
const DefaultMonitorMinEvents = 16

// NewRateMonitor returns an EWMA rate monitor. alpha <= 0 defaults to 0.05
// (a ~20-event memory); warn/breach are rate thresholds in [0,1], breach
// clamped to at least warn.
func NewRateMonitor(alpha, warn, breach float64) *RateMonitor {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.05
	}
	if breach < warn {
		breach = warn
	}
	return &RateMonitor{alpha: alpha, warn: warn, breach: breach, minEvents: DefaultMonitorMinEvents}
}

// SetMinEvents overrides the warm-up observation count (0 disables warm-up).
func (m *RateMonitor) SetMinEvents(n uint64) {
	m.mu.Lock()
	m.minEvents = n
	m.levelLocked()
	m.mu.Unlock()
}

// Observe records one event outcome and updates the threshold state.
func (m *RateMonitor) Observe(event bool) {
	m.mu.Lock()
	x := 0.0
	if event {
		x = 1.0
		m.events++
	}
	if m.n == 0 {
		m.ewma = x
	} else {
		m.ewma = m.alpha*x + (1-m.alpha)*m.ewma
	}
	m.n++
	m.levelLocked()
	m.mu.Unlock()
}

func (m *RateMonitor) levelLocked() {
	next := LevelOk
	switch {
	case m.n < m.minEvents:
		next = LevelOk
	case m.ewma >= m.breach:
		next = LevelBreach
	case m.ewma >= m.warn:
		next = LevelWarn
	}
	if next != m.level {
		m.transitions++
		m.level = next
	}
}

// Rate returns the current EWMA event rate.
func (m *RateMonitor) Rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ewma
}

// Level returns the current threshold state.
func (m *RateMonitor) Level() MonitorLevel {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.level
}

// Stats returns (observations, events, level transitions).
func (m *RateMonitor) Stats() (n, events, transitions uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n, m.events, m.transitions
}

// BurnRate tracks an SLO over a count-based rolling window: the burn rate
// is the window's bad fraction divided by the SLO's error budget (1 -
// objective). Burn 1.0 means the budget is being spent exactly as fast as
// allowed; above ~1 sustained, the SLO will be missed. Count-based windows
// (not wall-clock buckets) keep the monitor deterministic under seeded
// load.
type BurnRate struct {
	mu        sync.Mutex
	objective float64
	window    []bool // true = bad
	next      int
	n         int
	bad       int
	totalOK   uint64
	totalBad  uint64
}

// NewBurnRate returns an SLO burn monitor with the given objective (e.g.
// 0.999 availability) over the last windowSize requests (minimum 16).
func NewBurnRate(objective float64, windowSize int) *BurnRate {
	if objective <= 0 || objective >= 1 {
		objective = 0.999
	}
	if windowSize < 16 {
		windowSize = 16
	}
	return &BurnRate{objective: objective, window: make([]bool, windowSize)}
}

// Observe records one request outcome.
func (b *BurnRate) Observe(good bool) {
	b.mu.Lock()
	if b.n == len(b.window) {
		if b.window[b.next] {
			b.bad--
		}
	} else {
		b.n++
	}
	b.window[b.next] = !good
	if !good {
		b.bad++
		b.totalBad++
	} else {
		b.totalOK++
	}
	b.next = (b.next + 1) % len(b.window)
	b.mu.Unlock()
}

// Burn returns the current burn rate (0 when the window is empty).
func (b *BurnRate) Burn() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n == 0 {
		return 0
	}
	badFrac := float64(b.bad) / float64(b.n)
	return badFrac / (1 - b.objective)
}

// Level maps the burn rate onto ok/warn/breach: warn at burn >= 1 (budget
// spending exactly at the limit), breach at >= 10 (fast burn, the standard
// page-now multiple).
func (b *BurnRate) Level() MonitorLevel {
	burn := b.Burn()
	switch {
	case burn >= 10:
		return LevelBreach
	case burn >= 1:
		return LevelWarn
	default:
		return LevelOk
	}
}

// Objective returns the SLO target fraction.
func (b *BurnRate) Objective() float64 { return b.objective }

// Totals returns the all-time (good, bad) outcome counts.
func (b *BurnRate) Totals() (good, bad uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.totalOK, b.totalBad
}
