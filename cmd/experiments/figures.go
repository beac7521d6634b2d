package main

import (
	"fmt"
	"sort"
	"strings"

	"mpicollpred/internal/core"
	"mpicollpred/internal/eval"
	"mpicollpred/internal/tablefmt"
)

// runFig2 regenerates the chain-broadcast parameter study (paper Fig. 2):
// speedup of every (segment size × chain count) configuration of the chain
// algorithm over the linear broadcast, on 32x32 processes on Hydra.
func runFig2(c *expCtx) (string, error) {
	d, err := c.dataset("d1")
	if err != nil {
		return "", err
	}
	_, set, err := c.resolved(d)
	if err != nil {
		return "", err
	}
	rows, err := eval.ChainSpeedup(d, set, 32, 32)
	if err != nil {
		return "", err
	}
	// One table per segment size (the paper's facets), message sizes as
	// rows, chain counts as columns.
	segs := sortedInt64Keys(rows, func(r eval.ChainSpeedupRow) int64 { return r.Seg })
	chains := sortedIntKeys(rows, func(r eval.ChainSpeedupRow) int { return r.Chains })
	msizes := sortedInt64Keys(rows, func(r eval.ChainSpeedupRow) int64 { return r.Msize })
	lookup := map[[3]int64]float64{}
	for _, r := range rows {
		lookup[[3]int64{r.Seg, int64(r.Chains), r.Msize}] = r.Speedup
	}

	var b strings.Builder
	b.WriteString("Fig. 2: Speed-up of chain-bcast configurations (alg 2) vs linear bcast (alg 1)\n")
	b.WriteString("32 nodes x 32 ppn, Open MPI profile, Hydra\n\n")
	for _, seg := range segs {
		t := &tablefmt.Table{Title: fmt.Sprintf("segment size %s:", tablefmt.Bytes(seg))}
		header := []string{"msize"}
		for _, ch := range chains {
			header = append(header, fmt.Sprintf("chains=%d", ch))
		}
		t.Headers = header
		for _, m := range msizes {
			row := []string{tablefmt.Bytes(m)}
			for _, ch := range chains {
				row = append(row, tablefmt.F(lookup[[3]int64{seg, int64(ch), m}], 2))
			}
			t.AddRow(row...)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// strategyFigure renders a Fig. 4/6/7/8-style comparison: normalized
// running time (vs exhaustive best) of the default strategy and the
// GAM-predicted strategy, for panels (test nodes × selected ppn values).
func strategyFigure(c *expCtx, dsName, figTitle string, nodes []int, ppns []int) (string, error) {
	d, err := c.dataset(dsName)
	if err != nil {
		return "", err
	}
	mach, set, err := c.resolved(d)
	if err != nil {
		return "", err
	}
	// All prediction results in the paper's figures use GAM.
	e, err := c.evaluation(dsName, "gam", "full")
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString(figTitle + "\n")
	b.WriteString("normalized running time = measured / exhaustive best (1.00 is optimal)\n\n")
	for _, n := range nodes {
		for _, ppn := range ppns {
			series, err := eval.NormalizedRuntime(d, mach, set, e.Selector, n, ppn)
			if err != nil {
				return "", err
			}
			t := &tablefmt.Table{
				Title:   fmt.Sprintf("nodes: %d   ppn: %d", n, ppn),
				Headers: []string{"msize", "Exhaustive(Best)", "Default", "Prediction"},
			}
			for i, m := range series.Msizes {
				t.AddRow(tablefmt.Bytes(m), tablefmt.F(series.Best[i], 2),
					tablefmt.F(series.Default[i], 2), tablefmt.F(series.Pred[i], 2))
			}
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

func runFig4(c *expCtx) (string, error) {
	return strategyFigure(c, "d1",
		"Fig. 4: Algorithm selection strategies for MPI_Bcast; Open MPI profile; Hydra (GAM)",
		[]int{27, 35}, []int{1, 16, 32})
}

func runFig6(c *expCtx) (string, error) {
	return strategyFigure(c, "d5",
		"Fig. 6: Algorithm selection strategies for MPI_Allreduce; Intel MPI profile; Hydra (GAM)",
		[]int{27, 35}, []int{1, 16, 32})
}

func runFig7(c *expCtx) (string, error) {
	return strategyFigure(c, "d4",
		"Fig. 7: Algorithm selection strategies for MPI_Allreduce; Open MPI profile; Jupiter (GAM)",
		[]int{27, 35}, []int{1, 8, 16})
}

func runFig8(c *expCtx) (string, error) {
	return strategyFigure(c, "d8",
		"Fig. 8: Algorithm selection strategies for MPI_Bcast; Open MPI profile; SuperMUC-NG (GAM)",
		[]int{27, 35}, []int{1, 24, 48})
}

// runFig5 regenerates the predicted-algorithm map (paper Fig. 5): for each
// learner, the algorithm id selected for every (nodes x ppn) configuration
// and message size, on the Hydra broadcast dataset.
func runFig5(c *expCtx) (string, error) {
	d, err := c.dataset("d1")
	if err != nil {
		return "", err
	}
	var sels []*core.Selector
	for _, learner := range c.learners {
		e, err := c.evaluation("d1", learner, "full")
		if err != nil {
			return "", err
		}
		sels = append(sels, e.Selector)
	}
	choices := eval.AlgorithmMap(d, sels, []int{7, 19, 35})

	// Index: learner -> (nodes, ppn) -> msize -> algid.
	type colKey struct{ n, ppn int }
	byLearner := map[string]map[colKey]map[int64]int{}
	colsSeen := map[colKey]bool{}
	msizeSeen := map[int64]bool{}
	for _, ch := range choices {
		if byLearner[ch.Learner] == nil {
			byLearner[ch.Learner] = map[colKey]map[int64]int{}
		}
		ck := colKey{ch.Nodes, ch.PPN}
		if byLearner[ch.Learner][ck] == nil {
			byLearner[ch.Learner][ck] = map[int64]int{}
		}
		byLearner[ch.Learner][ck][ch.Msize] = ch.AlgID
		colsSeen[ck] = true
		msizeSeen[ch.Msize] = true
	}
	var cols []colKey
	for ck := range colsSeen {
		cols = append(cols, ck)
	}
	sort.Slice(cols, func(i, j int) bool {
		if cols[i].n != cols[j].n {
			return cols[i].n < cols[j].n
		}
		return cols[i].ppn < cols[j].ppn
	})
	var msizes []int64
	for m := range msizeSeen {
		msizes = append(msizes, m)
	}
	sort.Slice(msizes, func(i, j int) bool { return msizes[i] > msizes[j] }) // paper: largest on top

	var b strings.Builder
	b.WriteString("Fig. 5: Predicted algorithm id per process configuration (#nodes x ppn) and\n")
	b.WriteString("message size, for each regression learner; MPI_Bcast, Open MPI profile, Hydra.\n")
	b.WriteString("(Algorithm 8 is excluded from the search space, as in the paper.)\n\n")
	for _, learner := range c.learners {
		t := &tablefmt.Table{Title: learnerLabel(learner) + ":"}
		header := []string{"msize"}
		for _, ck := range cols {
			header = append(header, fmt.Sprintf("%02dx%02d", ck.n, ck.ppn))
		}
		t.Headers = header
		usedAlgs := map[int]bool{}
		for _, m := range msizes {
			row := []string{tablefmt.Bytes(m)}
			for _, ck := range cols {
				alg := byLearner[learner][ck][m]
				usedAlgs[alg] = true
				row = append(row, tablefmt.I(alg))
			}
			t.AddRow(row...)
		}
		b.WriteString(t.String())
		var used []int
		for a := range usedAlgs {
			used = append(used, a)
		}
		sort.Ints(used)
		fmt.Fprintf(&b, "algorithms used: %v\n\n", used)
	}
	return b.String(), nil
}

func sortedInt64Keys(rows []eval.ChainSpeedupRow, key func(eval.ChainSpeedupRow) int64) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, r := range rows {
		if k := key(r); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedIntKeys(rows []eval.ChainSpeedupRow, key func(eval.ChainSpeedupRow) int) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range rows {
		if k := key(r); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}
