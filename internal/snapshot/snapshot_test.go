package snapshot

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"mpicollpred/internal/floats"
	"mpicollpred/internal/ml"
	"mpicollpred/internal/ml/gam"
	"mpicollpred/internal/ml/knn"
	"mpicollpred/internal/ml/rf"
	"mpicollpred/internal/ml/xgb"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var w Writer
	w.U32(7)
	w.U64(1 << 40)
	w.Int(-42)
	w.F64(math.Pi)
	w.F64(math.Inf(1))
	w.Bool(true)
	w.String("héllo")
	w.F64s([]float64{1.5, -2.25, 0})
	w.Ints([]int{3, -1})
	w.Bools([]bool{true, false, true})
	w.F64Rows([][]float64{{1, 2}, {}, {3}})

	r := NewReader(w.Bytes())
	if v := r.U32(); v != 7 {
		t.Errorf("u32 = %d", v)
	}
	if v := r.U64(); v != 1<<40 {
		t.Errorf("u64 = %d", v)
	}
	if v := r.Int(); v != -42 {
		t.Errorf("int = %d", v)
	}
	if v := r.F64(); !floats.Exact(v, math.Pi) {
		t.Errorf("f64 = %v", v)
	}
	if v := r.F64(); !math.IsInf(v, 1) {
		t.Errorf("inf = %v", v)
	}
	if !r.Bool() {
		t.Error("bool = false")
	}
	if s := r.String(); s != "héllo" {
		t.Errorf("string = %q", s)
	}
	fs := r.F64s()
	if len(fs) != 3 || !floats.Exact(fs[1], -2.25) {
		t.Errorf("f64s = %v", fs)
	}
	is := r.Ints()
	if len(is) != 2 || is[1] != -1 {
		t.Errorf("ints = %v", is)
	}
	bs := r.Bools()
	if len(bs) != 3 || bs[1] {
		t.Errorf("bools = %v", bs)
	}
	rows := r.F64Rows()
	if len(rows) != 3 || len(rows[0]) != 2 || len(rows[1]) != 0 || !floats.Exact(rows[2][0], 3) {
		t.Errorf("rows = %v", rows)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("reader error: %v", err)
	}
	if r.off != len(w.Bytes()) {
		t.Errorf("reader consumed %d of %d bytes", r.off, len(w.Bytes()))
	}
}

func TestReaderTruncation(t *testing.T) {
	var w Writer
	w.F64s([]float64{1, 2, 3})
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.F64s()
		if r.Err() == nil {
			t.Fatalf("no error reading %d of %d bytes", cut, len(full))
		}
	}
}

func TestReaderRejectsAbsurdLength(t *testing.T) {
	var w Writer
	w.U32(1 << 30) // claims a gigabyte of rows that are not there
	r := NewReader(w.Bytes())
	if out := r.F64Rows(); out != nil || r.Err() == nil {
		t.Fatalf("absurd length accepted: %v, err %v", out, r.Err())
	}
}

func TestFrameUnframe(t *testing.T) {
	payload := []byte("deterministic payload")
	data := Frame(payload)
	got, err := Unframe(data)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload %q", got)
	}

	// Truncated file.
	if _, err := Unframe(data[:len(data)-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: %v", err)
	}
	if _, err := Unframe(data[:4]); !errors.Is(err, ErrTruncated) {
		t.Errorf("tiny file: %v", err)
	}
	// One flipped payload byte.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0x40
	if _, err := Unframe(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt: %v", err)
	}
	// Foreign file.
	alien := append([]byte("NOTASNAP"), data[8:]...)
	if _, err := Unframe(alien); !errors.Is(err, ErrMagic) {
		t.Errorf("magic: %v", err)
	}
	// Future version.
	future := append([]byte(nil), data...)
	future[8] = 99
	if _, err := Unframe(future); !errors.Is(err, ErrVersion) {
		t.Errorf("version: %v", err)
	}
}

// trainingSet is a small non-trivial regression problem every learner can
// fit: positive targets over a 3-feature grid.
func trainingSet() (x [][]float64, y []float64) {
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			f := []float64{float64(i), float64(j * j), float64(i + j)}
			x = append(x, f)
			y = append(y, 1e-5*(1+float64(i)*2+float64(j)*3)+1e-7*float64(i*j))
		}
	}
	return x, y
}

func TestLearnerCodecRoundTripsAll(t *testing.T) {
	x, y := trainingSet()
	queries := [][]float64{
		{0, 0, 0}, {2.5, 7, 4.1}, {5, 16, 9}, {10, 40, 22}, // includes extrapolation
	}
	for _, name := range ml.Names() {
		m, err := ml.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(x, y); err != nil {
			t.Fatalf("%s: fit: %v", name, err)
		}
		var w Writer
		if err := EncodeLearner(&w, m); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := DecodeLearner(NewReader(w.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		for _, q := range queries {
			want, have := m.Predict(q), got.Predict(q)
			if !floats.Exact(want, have) {
				t.Errorf("%s: predict(%v) = %v after round trip, want %v", name, q, have, want)
			}
		}
	}
}

func TestDecodeLearnerRejectsUnknownKind(t *testing.T) {
	var w Writer
	w.String("perceptron")
	if _, err := DecodeLearner(NewReader(w.Bytes())); err == nil {
		t.Fatal("unknown learner kind accepted")
	}
}

func TestDecodeLearnerRejectsBrokenTree(t *testing.T) {
	// An xgboost payload whose single tree has a child pointing at itself
	// must be rejected — otherwise Predict would loop forever.
	var w Writer
	w.String("xgboost")
	w.Int(xgb.Rounds)
	w.F64(xgb.Eta)
	w.Int(xgb.MaxDepth)
	w.F64(xgb.Lambda)
	w.F64(xgb.MinChild)
	w.String(xgb.Tweedie)
	w.F64(xgb.TweedieRho)
	w.F64(-10) // base
	w.U32(1)   // one tree
	w.U32(1)   // one node
	w.U32(0)   // feature 0: internal node...
	w.F64(0.5)
	w.U32(0) // ...whose left child is itself
	w.U32(0)
	w.F64(0)
	_, err := DecodeLearner(NewReader(w.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "xgb: snapshot") {
		t.Fatalf("self-referential tree: err %v, want the tree rejected", err)
	}
}

// hyperSlot writes one hyper-parameter slot: the constant, or another value
// when changed is set.
type hyperSlot struct {
	field string
	put   func(w *Writer, changed bool)
}

func intSlot(field string, v int) hyperSlot {
	return hyperSlot{field, func(w *Writer, changed bool) {
		if changed {
			w.Int(v + 1)
			return
		}
		w.Int(v)
	}}
}

func f64Slot(field string, v float64) hyperSlot {
	return hyperSlot{field, func(w *Writer, changed bool) {
		if changed {
			w.F64(v * 1.5)
			return
		}
		w.F64(v)
	}}
}

// TestDecodeLearnerRejectsChangedSlots: every learner fits at its package's
// constants, so a snapshot whose hyper-parameter slot holds anything else
// describes a model this build does not fit and must be refused, with an
// error naming the learner and the field. The unchanged slots are the
// prefix EncodeLearner writes.
func TestDecodeLearnerRejectsChangedSlots(t *testing.T) {
	cases := []struct {
		learner string
		slots   []hyperSlot
	}{
		{"knn", []hyperSlot{intSlot("k", knn.K)}},
		{"gam", []hyperSlot{
			intSlot("basis size", gam.NumBasis),
			{"lambda grid", func(w *Writer, changed bool) {
				grid := gam.Lambdas()
				if changed {
					grid = append([]float64{0}, grid...)
				}
				w.F64s(grid)
			}},
			intSlot("IRLS iterations", gam.MaxIter),
		}},
		{"xgboost", []hyperSlot{
			intSlot("rounds", xgb.Rounds),
			f64Slot("eta", xgb.Eta),
			intSlot("max depth", xgb.MaxDepth),
			f64Slot("lambda", xgb.Lambda),
			f64Slot("min child weight", xgb.MinChild),
			{"loss", func(w *Writer, changed bool) {
				if changed {
					w.String("gamma")
					return
				}
				w.String(xgb.Tweedie)
			}},
			f64Slot("Tweedie power", xgb.TweedieRho),
		}},
		{"rf", []hyperSlot{
			intSlot("trees", rf.NumTrees),
			intSlot("max depth", rf.MaxDepth),
			intSlot("min leaf", rf.MinLeaf),
			intSlot("mtry", rf.MTry),
			{"seed", func(w *Writer, changed bool) {
				if changed {
					w.U64(rf.Seed + 1)
					return
				}
				w.U64(rf.Seed)
			}},
		}},
	}
	x, y := trainingSet()
	for _, c := range cases {
		m, err := ml.New(c.learner)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(x, y); err != nil {
			t.Fatalf("%s: fit: %v", c.learner, err)
		}
		var enc Writer
		if err := EncodeLearner(&enc, m); err != nil {
			t.Fatalf("%s: encode: %v", c.learner, err)
		}
		// with writes the learner with slot k changed (none for k < 0).
		with := func(k int) []byte {
			var w Writer
			w.String(c.learner)
			for i, s := range c.slots {
				s.put(&w, i == k)
			}
			return w.Bytes()
		}
		head := with(-1)
		if !bytes.HasPrefix(enc.Bytes(), head) {
			t.Fatalf("%s: EncodeLearner does not start with the constant slots", c.learner)
		}
		body := enc.Bytes()[len(head):]
		for k, s := range c.slots {
			data := append(with(k), body...)
			_, err := DecodeLearner(NewReader(data))
			if err == nil {
				t.Errorf("%s: changed %s slot accepted", c.learner, s.field)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, c.learner+" "+s.field+" slot") {
				t.Errorf("%s: changed %s slot: error %q does not name the learner and the field", c.learner, s.field, msg)
			}
		}
	}
}
