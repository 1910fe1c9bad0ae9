package core

import (
	"fmt"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/semivalue"
)

// This file is the multi-head accumulation layer: the machinery that lets
// one permutation pass price several semivalues (Shapley, Beta(α,β),
// Banzhaf, Absolute Shapley) simultaneously. The heads are pure
// bookkeeping — they consume no randomness and never touch the stripe
// workers — so a pass with extra heads draws the exact random stream of a
// Shapley-only pass, and the Shapley estimate itself still flows through
// the historic unweighted accumulation: bit-identical output whether zero
// or ten extra heads ride along. See DESIGN.md §16.

// semivalueBanzhaf is the shared Banzhaf weighting of ExactBanzhaf.
var semivalueBanzhaf = semivalue.Banzhaf()

// headFold accumulates the extra semivalue heads of a full-walk pass: for
// each head h, vals_h[p] += ω_h(pos)·T_h(marginal of p at pos).
type headFold struct {
	ws   []semivalue.Weighting
	abs  []bool
	pos  [][]float64 // ω_h(pos) tables, one per head
	sums [][]float64
}

func newHeadFold(ws []semivalue.Weighting, n int) *headFold {
	if len(ws) == 0 || n == 0 {
		return nil
	}
	hf := &headFold{
		ws:   ws,
		abs:  make([]bool, len(ws)),
		pos:  make([][]float64, len(ws)),
		sums: make([][]float64, len(ws)),
	}
	for h, w := range ws {
		hf.abs[h] = w.Abs()
		hf.pos[h] = w.PosWeights(n)
		hf.sums[h] = make([]float64, n)
	}
	return hf
}

// foldWalk credits every walked position's marginal to each head. Under
// truncation (walk < n) the tail positions contribute zero — the same
// stratified-truncation bias the Shapley head carries.
func (hf *headFold) foldWalk(perm []int, utilities []float64, uEmpty float64, walk int) {
	for h := range hf.ws {
		omega, sums, absH := hf.pos[h], hf.sums[h], hf.abs[h]
		prev := uEmpty
		for pos := 0; pos < walk; pos++ {
			cur := utilities[pos]
			m := cur - prev
			if absH && m < 0 {
				m = -m
			}
			sums[perm[pos]] += omega[pos] * m
			prev = cur
		}
	}
}

// finish converts the accumulated sums into per-head averages. The
// division (rather than a reciprocal multiply) matches the Shapley path's
// normalisation exactly, keeping the Shapley head bit-identical to the
// pass's native output.
func (hf *headFold) finish(issued int) [][]float64 {
	out := make([][]float64, len(hf.sums))
	for h, s := range hf.sums {
		vals := make([]float64, len(s))
		for i, v := range s {
			vals[i] = v / float64(issued)
		}
		out[h] = vals
	}
	return out
}

// addHeadTables holds the per-head differential coefficient tables for one
// n → n+1 insertion transition (semivalue.AddCoeffs), shared read-only by
// every walk of a pass — and by every worker of a striped batch pass.
type addHeadTables struct {
	ws         []semivalue.Weighting
	abs        []bool
	cNo, cWith [][]float64 // [head][pos 0..n−1]
	wNew       [][]float64 // [head][k 0..n]
}

func newAddHeadTables(ws []semivalue.Weighting, n int) *addHeadTables {
	if len(ws) == 0 {
		return nil
	}
	t := &addHeadTables{
		ws:    ws,
		abs:   make([]bool, len(ws)),
		cNo:   make([][]float64, len(ws)),
		cWith: make([][]float64, len(ws)),
		wNew:  make([][]float64, len(ws)),
	}
	for h, w := range ws {
		t.abs[h] = w.Abs()
		t.cNo[h], t.cWith[h], t.wNew[h] = w.AddCoeffs(n)
	}
	return t
}

// addHeadSums accumulates one pending point's head contributions over an
// insertion walk: per-head differential sums for the n old players and the
// pivot's own stratified sum. In a striped batch pass each pending point's
// sums are owned by exactly one worker.
type addHeadSums struct {
	t     *addHeadTables
	sums  [][]float64 // [head][old player]
	pivot []float64   // [head]
}

func newAddHeadSums(t *addHeadTables, n int) *addHeadSums {
	if t == nil {
		return nil
	}
	hs := &addHeadSums{
		t:     t,
		sums:  make([][]float64, len(t.ws)),
		pivot: make([]float64, len(t.ws)),
	}
	for h := range t.ws {
		hs.sums[h] = make([]float64, n)
	}
	return hs
}

// foldD0 credits the pivot's empty-prefix stratum (d0 = U({pivot}) − U(∅)).
func (hs *addHeadSums) foldD0(d0 float64) {
	for h := range hs.t.ws {
		v := d0
		if hs.t.abs[h] && v < 0 {
			v = -v
		}
		hs.pivot[h] += hs.t.wNew[h][0] * v
	}
}

// foldPos credits old player p observed at position pos: mNo/mWith are its
// pivot-free and pivot-included marginals, dd = curWith − curNo the
// pivot's own marginal on the size-(pos+1) prefix.
func (hs *addHeadSums) foldPos(pos, p int, mNo, mWith, dd float64) {
	for h := range hs.t.ws {
		x, y, z := mNo, mWith, dd
		if hs.t.abs[h] {
			if x < 0 {
				x = -x
			}
			if y < 0 {
				y = -y
			}
			if z < 0 {
				z = -z
			}
		}
		hs.sums[h][p] += hs.t.cNo[h][pos]*x + hs.t.cWith[h][pos]*y
		hs.pivot[h] += hs.t.wNew[h][pos+1] * z
	}
}

// delHeadFold accumulates the survivors' head changes over a deletion walk
// (n-player game shrinking to n−1): survivor q observed at position pos
// with pivot-free marginal mNo and pivot-included marginal mWith
// contributes cNo[pos]·T(mNo) + cWith[pos]·T(mWith).
type delHeadFold struct {
	ws         []semivalue.Weighting
	abs        []bool
	cNo, cWith [][]float64 // [head][pos 0..n−2]
	sums       [][]float64 // [head][player]
}

func newDelHeadFold(ws []semivalue.Weighting, n int) *delHeadFold {
	if len(ws) == 0 || n < 2 {
		return nil
	}
	f := &delHeadFold{
		ws:    ws,
		abs:   make([]bool, len(ws)),
		cNo:   make([][]float64, len(ws)),
		cWith: make([][]float64, len(ws)),
		sums:  make([][]float64, len(ws)),
	}
	for h, w := range ws {
		f.abs[h] = w.Abs()
		f.cNo[h], f.cWith[h] = w.DeleteCoeffs(n)
		f.sums[h] = make([]float64, n)
	}
	return f
}

func (f *delHeadFold) foldPos(pos, q int, mNo, mWith float64) {
	for h := range f.ws {
		x, y := mNo, mWith
		if f.abs[h] {
			if x < 0 {
				x = -x
			}
			if y < 0 {
				y = -y
			}
		}
		f.sums[h][q] += f.cNo[h][pos]*x + f.cWith[h][pos]*y
	}
}

// finishDelete returns the survivors' updated head values (deleted point
// zeroed, like the Shapley output). A nil base counts as zero.
func (f *delHeadFold) finishDelete(base [][]float64, p, issued int) [][]float64 {
	out := make([][]float64, len(f.sums))
	for h, s := range f.sums {
		vals := make([]float64, len(s))
		for i, v := range s {
			if i == p {
				continue
			}
			vals[i] = v / float64(issued)
			if base != nil && h < len(base) && i < len(base[h]) {
				vals[i] += base[h][i]
			}
		}
		out[h] = vals
	}
	return out
}

// ExactSemivalues computes exact values for every weighting in ws by one
// complete enumeration of the 2^n coalitions (n ≤ MaxExactPlayers): the
// utility table is filled once and each head folds it with its own subset
// weights. The Shapley head uses the historic recurrence weights and the
// historic weight·marginal expression, so Exact(g) ≡
// ExactSemivalues(g, [Shapley])[0] bit for bit; Banzhaf's power-of-two
// weight makes ExactBanzhaf's divide and this multiply identical too.
func ExactSemivalues(g game.Game, ws []semivalue.Weighting) [][]float64 {
	n := g.N()
	if n > MaxExactPlayers {
		panic(fmt.Sprintf("core: ExactSemivalues limited to %d players, got %d", MaxExactPlayers, n))
	}
	out := make([][]float64, len(ws))
	if n == 0 {
		return out
	}
	size := 1 << uint(n)
	util := make([]float64, size)
	s := bitset.New(n)
	for mask := 0; mask < size; mask++ {
		s.Clear()
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				s.Add(i)
			}
		}
		util[mask] = g.Value(s)
	}
	for h, w := range ws {
		weight := w.SubsetWeights(n)
		absH := w.Abs()
		sv := make([]float64, n)
		for mask := 0; mask < size; mask++ {
			sz := popcount(mask)
			for i := 0; i < n; i++ {
				bit := 1 << uint(i)
				if mask&bit == 0 {
					d := util[mask|bit] - util[mask]
					if absH && d < 0 {
						d = -d
					}
					sv[i] += weight[sz] * d
				}
			}
		}
		out[h] = sv
	}
	return out
}

// ExactSemivalue is ExactSemivalues for a single weighting.
func ExactSemivalue(g game.Game, w semivalue.Weighting) []float64 {
	return ExactSemivalues(g, []semivalue.Weighting{w})[0]
}
