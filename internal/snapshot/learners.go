// Learner codecs: one encode/decode pair per learner ml.New builds. The
// codec works on the exported State of each learner package and tags every
// encoded learner with its ml.New name, so a snapshot is self-describing
// and a decoded model goes back through the same validation wrapper ml.New
// applies.
//
// A learner's encoding starts with its hyper-parameter slots, which keep
// the format, and so existing snapshots, unchanged. Learners fit only at
// their packages' constants, so the encoder writes those, and the decoder
// refuses a slot holding anything else, naming the learner and the field:
// such a snapshot describes a model this build does not fit.
package snapshot

import (
	"bytes"
	"fmt"

	"mpicollpred/internal/ml"
	"mpicollpred/internal/ml/gam"
	"mpicollpred/internal/ml/knn"
	"mpicollpred/internal/ml/linreg"
	"mpicollpred/internal/ml/rf"
	"mpicollpred/internal/ml/tree"
	"mpicollpred/internal/ml/xgb"
)

// slot is one hyper-parameter slot of a learner's encoding and the
// constant it holds: an int, a uint64, a float64, a string or a []float64
// (put writes nothing for any other type, which breaks the pinned snapshot
// digests and TestDecodeLearnerRejectsChangedSlots).
type slot struct {
	field string
	value any
}

// slots lists, per learner kind, the hyper-parameter slots that follow the
// kind tag, in format order; linear regression has none.
var slots = map[string][]slot{
	"knn": {{"k", knn.K}},
	"gam": {{"basis size", gam.NumBasis}, {"lambda grid", gam.Lambdas()}, {"IRLS iterations", gam.MaxIter}},
	"xgboost": {{"rounds", xgb.Rounds}, {"eta", xgb.Eta}, {"max depth", xgb.MaxDepth}, {"lambda", xgb.Lambda},
		{"min child weight", xgb.MinChild}, {"loss", xgb.Tweedie}, {"Tweedie power", xgb.TweedieRho}},
	"rf": {{"trees", rf.NumTrees}, {"max depth", rf.MaxDepth}, {"min leaf", rf.MinLeaf}, {"mtry", rf.MTry},
		{"seed", uint64(rf.Seed)}},
}

func (s slot) put(w *Writer) {
	switch v := s.value.(type) {
	case int:
		w.Int(v)
	case uint64:
		w.U64(v)
	case float64:
		w.F64(v)
	case string:
		w.String(v)
	case []float64:
		w.F64s(v)
	}
}

// putHeader writes a learner's kind tag and its hyper-parameter slots.
func putHeader(w *Writer, kind string) {
	w.String(kind)
	for _, s := range slots[kind] {
		s.put(w)
	}
}

// checkSlots reads the hyper-parameter slots of kind and fails on the
// first one whose bytes are not those of this build's constant.
func checkSlots(r *Reader, kind string) error {
	for _, s := range slots[kind] {
		var want Writer
		s.put(&want)
		got := r.take(len(want.Bytes()), s.field)
		if err := r.Err(); err != nil {
			return err
		}
		if !bytes.Equal(got, want.Bytes()) {
			return fmt.Errorf("snapshot: %s %s slot does not hold %v, the value this build fits at", kind, s.field, s.value)
		}
	}
	return nil
}

// EncodeLearner appends a fitted regressor (as returned by ml.New and
// trained via Fit) to the writer.
func EncodeLearner(w *Writer, r ml.Regressor) error {
	switch m := ml.Unwrap(r).(type) {
	case *knn.Regressor:
		putHeader(w, "knn")
		s := m.State()
		w.F64s(s.Mean)
		w.F64s(s.Scale)
		w.F64Rows(s.X)
		w.F64s(s.Y)
	case *gam.Regressor:
		putHeader(w, "gam")
		s := m.State()
		w.F64s(s.Lo)
		w.F64s(s.Hi)
		w.Bools(s.Active)
		w.F64s(s.Beta)
		w.F64(s.Lambda)
		w.F64(s.EDF)
	case *xgb.Regressor:
		putHeader(w, "xgboost")
		s := m.State()
		w.F64(s.Base)
		encodeTrees(w, s.Trees)
	case *rf.Regressor:
		putHeader(w, "rf")
		encodeTrees(w, m.State().Trees)
	case *linreg.Regressor:
		putHeader(w, "linear")
		w.F64s(m.State().Beta)
	default:
		return fmt.Errorf("snapshot: no codec for learner type %T", m)
	}
	return nil
}

// DecodeLearner reads one regressor written by EncodeLearner and returns it
// wrapped in ml.New's validation layer.
func DecodeLearner(r *Reader) (ml.Regressor, error) {
	kind := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := checkSlots(r, kind); err != nil {
		return nil, err
	}
	var (
		m   ml.Regressor
		err error
	)
	switch kind {
	case "knn":
		var s knn.State
		s.Mean = r.F64s()
		s.Scale = r.F64s()
		s.X = r.F64Rows()
		s.Y = r.F64s()
		if err = r.Err(); err == nil {
			m, err = knn.FromState(s)
		}
	case "gam":
		var s gam.State
		s.Lo = r.F64s()
		s.Hi = r.F64s()
		s.Active = r.Bools()
		s.Beta = r.F64s()
		s.Lambda = r.F64()
		s.EDF = r.F64()
		if err = r.Err(); err == nil {
			m, err = gam.FromState(s)
		}
	case "xgboost":
		s := xgb.State{Base: r.F64(), Trees: decodeTrees(r)}
		if err = r.Err(); err == nil {
			m, err = xgb.FromState(s)
		}
	case "rf":
		s := rf.State{Trees: decodeTrees(r)}
		if err = r.Err(); err == nil {
			m, err = rf.FromState(s)
		}
	case "linear":
		s := linreg.State{Beta: r.F64s()}
		if err = r.Err(); err == nil {
			m, err = linreg.FromState(s)
		}
	default:
		return nil, fmt.Errorf("snapshot: unknown learner kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	return ml.Validated(m), nil
}

func encodeTrees(w *Writer, trees [][]tree.Node) {
	w.U32(uint32(len(trees)))
	for _, nodes := range trees {
		w.U32(uint32(len(nodes)))
		for _, n := range nodes {
			w.U32(uint32(n.Feature))
			w.F64(n.Thresh)
			w.U32(uint32(n.Left))
			w.U32(uint32(n.Right))
			w.F64(n.Value)
		}
	}
}

func decodeTrees(r *Reader) [][]tree.Node {
	nt := int(r.U32())
	if !r.checkLen(nt*4, "tree list") {
		return nil
	}
	out := make([][]tree.Node, nt)
	for i := range out {
		nn := int(r.U32())
		if !r.checkLen(nn*28, "tree nodes") {
			return nil
		}
		nodes := make([]tree.Node, nn)
		for j := range nodes {
			nodes[j] = tree.Node{
				Feature: int32(r.U32()),
				Thresh:  r.F64(),
				Left:    int32(r.U32()),
				Right:   int32(r.U32()),
				Value:   r.F64(),
			}
		}
		out[i] = nodes
	}
	return out
}
