package utility

import (
	"slices"
	"sort"

	"dynshap/internal/dataset"
	"dynshap/internal/game"
)

// knnPivot is the KNN utility's one window kernel (game.PivotPrefixEvaluator):
// it walks ONE base chain of the KNN utility over the players outside the
// pivot set and prices, from that chain's windows, every chain that adds
// pivots to it. Walk serves the delta algorithms' U(S) / U(S ∪ {v}) pairs,
// and with no pivots it is the plain prefix walk every full-walk pass
// makes; WalkNested serves the batched Pivot-s walk's nested chains; the
// step view (knnStep, Prefix) advances the base chain one member per Add.
//
// The base chain. For every test point it keeps the window of the K
// nearest coalition members ordered by (distance, original index) —
// exactly the selection rule of dataset.Nearest scanning a coalition
// subset in increasing index order, so the maintained windows, votes and
// accuracy are bit-identical to a scratch ModelUtility.Value call on the
// same coalition. Distances come from the utility's precomputed kernel
// when it has one (one contiguous column read per member) and are
// recomputed with Euclidean otherwise; the two sources carry identical
// bits. The score is maintained by integer ±1 updates per membership
// change, so a member costs O(m·(K + classes)) with the kernel and no
// distance work at all.
//
// Why one chain suffices. Under the (distance, index) order the window of
// S ∪ {v} at test point t is the base window W_t(S) with v appended while
// |S| < K, with v in place of W_t(S)'s K-th entry when v sorts before that
// entry, and W_t(S) itself otherwise. So the two chains' correct counts
// differ only at the test points whose window v is in, by
//
//	C_v = Σ_t [v in window t]·(ok_with − ok_base),
//
// and that set only shrinks as S grows: the K-th entry v must beat only
// moves closer, so once v falls out of window t it never returns. Both
// factors change only when the base window at t changes, so each step
// refreshes the pivots only at the test points the entering member changed
// (dropping the pivots it pushed out for good). U(S ∪ {v}) is then
// (correct + C_v)/m — soft: (softTotal + C_v)/(K·m) — the same integer over
// the same denominator a separate chain computes, bit for bit.
//
// Nested chains. Chain j of WalkNested holds the base players walked so
// far, S, and the pivots 0..j that have arrived. Its window at t is the
// first K of W_t(S) merged with those pivots, and only pivots still live
// at t — sorting before W_t(S)'s K-th entry — can be among them; each test
// point keeps its live arrived pivots and drops for good those the K-th
// entry passes. Chain j's score is the
// base score plus Σ_t T_t(j), where T_t(j) is the merged window's term
// over the base window's; as j grows T_t moves only at the live arrived
// pivots, so each test point keeps its few steps (j, change), and diff
// sums them over t: C_j = Σ_{i≤j} diff[i]. Only test points that hold a
// live arrived pivot are repriced, when their base window changes or a
// pivot arrives: a base window change elsewhere moves no term, and an
// arriving pivot is checked against the window's tail directly. A test
// point with one live arrived pivot — nearly every one — prices that
// pivot's term straight off the base window, as refresh prices a label
// (hard vote: the vote with the pivot's label in and the tail's out,
// against ok; soft: [c = y] − [tail = y]); only two or more are merged.
// Chain j opens just before pivot j arrives, at its slot: pivots above j
// never move C_j, so the chain's value then is its entry there (U(∅) at
// slot 0). From then on each position writes only the open chains.
type knnPivot struct {
	u       *ModelUtility
	k       int
	m       int
	classes int
	soft    bool

	// The distance source: kernel columns when the utility has a kernel,
	// otherwise scratch, filled with Euclidean calls per member (column).
	// labels/testLabels cache the labels as flat arrays so the hot loop
	// never chases Point structs.
	kernel     *dataset.DistanceKernel
	scratch    []float64
	labels     []int32
	testLabels []int32

	// The base chain: m×k windows; once full, their tails packed in
	// worst/worstIdx, so the steady-state reject test ("not among the K
	// nearest") reads two unit-stride values instead of striding across
	// window rows; and for the hard vote the m×classes vote table and
	// per-test correctness. score is the correct count (hard) or the
	// same-label total (soft).
	dists    []float64
	idxs     []int32
	worst    []float64
	worstIdx []int32
	votes    []int32
	ok       []bool
	score    int

	// The pivots. order[t*np:(t+1)*np] lists them for test point t from the
	// last to sort to the first under (distance, index) — the order in which
	// they leave window t, with their distances in orderDist — so in Walk
	// the pivots still in window t are order[t*np+gone[t] : (t+1)*np]; the
	// first Walk with pivots builds it (sortPivots).
	// pDist[j*m+t] is pivot j's distance to test point t.
	pivots    []int32
	pLabels   []int32
	pDist     []float64
	order     []int32
	orderDist []float64
	gone      []int32

	// A pivot's term at test point t depends only on its label:
	// termAt[t*classes+c] is the term of every live pivot of label c there.
	// corr[j] is C_j; gain is one refresh's scratch.
	termAt []int32
	corr   []int
	gain   []int32

	// values[c] = c/denom for every reachable count c: one table lookup per
	// served utility in place of a division, with the same bits.
	values []float64

	// The nested walk's state, allocated by its first WalkNested; nested
	// routes the base chain's refreshes to it. rank[p] is training point
	// p's pivot index, −1 for the others. The arrived pivots still live at
	// test point t are liveJ[t*np:], live[t] of them, in pivot order. Its
	// steps are stepJ/stepD[t*np:], nstep[t] of them, in pivot order;
	// diff[j] sums the steps at j over every test point, and corr holds
	// its prefix sums while dirty is false. The chains whose pivot has
	// arrived are open, listed in opened by index. The rest is one
	// restep's scratch: the new steps (newJ, newD), the merged window
	// (mDist, mIdx) and its votes (mVotes).
	nested       bool
	rank         []int32
	liveJ        []int32
	live         []int32
	stepJ, stepD []int32
	nstep        []int32
	diff         []int
	dirty        bool
	opened       []openChain
	newJ, newD   []int32
	mDist        []float64
	mIdx         []int32
	mVotes       []int32
}

// PivotPrefix implements game.PivotPrefixer for the KNN trainers
// (majority-vote and soft), with kernel or Euclidean distances; other
// trainers return nil, sending callers to one chain per pivot. pivots are
// training indices; with none, Walk is the plain prefix walk. Walks train
// no model; a Walk counts (len(pivots)+1)·len(perm) prefix adds and a
// WalkNested one per chain position (game.NestedPositions), added once per
// walk. PivotPrefix is safe for concurrent calls; each returned evaluator
// must stay on one goroutine.
func (u *ModelUtility) PivotPrefix(pivots []int) game.PivotPrefixEvaluator {
	if u.knnK == 0 {
		return nil
	}
	return u.knnPivot(pivots)
}

// knnPivot builds the window kernel over the given pivots; the utility
// must be a KNN one (knnK > 0).
func (u *ModelUtility) knnPivot(pivots []int) *knnPivot {
	m, np, classes := u.test.Len(), len(pivots), u.train.Classes
	e := &knnPivot{
		u:          u,
		k:          u.knnK,
		m:          m,
		classes:    classes,
		soft:       u.soft,
		kernel:     u.kernel,
		labels:     make([]int32, u.train.Len()),
		testLabels: make([]int32, m),
		dists:      make([]float64, m*u.knnK),
		idxs:       make([]int32, m*u.knnK),
		worst:      make([]float64, m),
		worstIdx:   make([]int32, m),
		pivots:     make([]int32, np),
		pLabels:    make([]int32, np),
		pDist:      make([]float64, np*m),
		gone:       make([]int32, m),
		termAt:     make([]int32, m*classes),
		corr:       make([]int, np),
		gain:       make([]int32, classes),
	}
	for i, p := range u.train.Points {
		e.labels[i] = int32(p.Y)
	}
	for t, p := range u.test.Points {
		e.testLabels[t] = int32(p.Y)
	}
	if e.kernel == nil {
		e.scratch = make([]float64, m)
	}
	for j, v := range pivots {
		e.pivots[j] = int32(v)
		e.pLabels[j] = e.labels[v]
		copy(e.pDist[j*m:], e.column(v))
	}
	denom := m
	if e.soft {
		denom = e.k * m
	} else {
		e.votes = make([]int32, m*classes)
		e.ok = make([]bool, m)
	}
	e.values = []float64{0} // m = 0: every utility is 0, as ml.Accuracy scores it
	if m > 0 {
		e.values = make([]float64, denom+1)
		for c := range e.values {
			e.values[c] = float64(c) / float64(denom)
		}
	}
	return e
}

// column returns the distances from training point p to every test point:
// a kernel column, or Euclidean calls into scratch (identical bits).
func (e *knnPivot) column(p int) []float64 {
	if e.kernel != nil {
		return e.kernel.Col(p)
	}
	px := e.u.train.Points[p].X
	for t := range e.scratch {
		e.scratch[t] = dataset.Euclidean(e.u.test.Points[t].X, px)
	}
	return e.scratch
}

// Walk implements game.PivotPrefixEvaluator.
func (e *knnPivot) Walk(perm []int, row []float64) {
	e.reset()
	e.nested = false
	if e.order == nil && len(e.pivots) > 0 {
		e.sortPivots()
	}
	stride := len(e.pivots) + 1
	for pos, p := range perm {
		e.add(p, pos)
		out := row[pos*stride : (pos+1)*stride]
		out[0] = e.values[e.score]
		for j, c := range e.corr {
			out[1+j] = e.values[e.score+c]
		}
	}
	e.u.prefixAdds.Add(int64(len(perm) * stride))
}

// sortPivots builds the per-test pivot order only Walk's refresh reads:
// for each test point, the pivots from the last to sort to the first under
// (distance, index), with their distances. The plain walk, the step view
// and the nested walk never read it, so it waits for the first Walk with
// pivots.
func (e *knnPivot) sortPivots() {
	m, np := e.m, len(e.pivots)
	e.order = make([]int32, m*np)
	e.orderDist = make([]float64, m*np)
	for t := 0; t < m; t++ {
		ord := e.order[t*np : (t+1)*np]
		for j := range ord {
			ord[j] = int32(j)
		}
		sort.Slice(ord, func(a, b int) bool {
			da, db := e.pDist[int(ord[a])*m+t], e.pDist[int(ord[b])*m+t]
			return da > db || (da == db && e.pivots[ord[a]] > e.pivots[ord[b]])
		})
		for a, j := range ord {
			e.orderDist[t*np+a] = e.pDist[int(j)*m+t]
		}
	}
}

// WalkNested implements game.PivotPrefixEvaluator: one walk of final's
// base players, with each pivot's arrival, prices every chain. Chain j
// opens at its start when pivot j arrives; from then on every base player
// and every arriving pivot up to j is one more of its positions, read off
// the base score and C_j. A chain that starts at 0 opens on U(∅), the
// utility's empty value, as the scratch path does.
func (e *knnPivot) WalkNested(final, starts []int, row []float64) {
	e.reset()
	e.resetNested()
	stride := len(final) + 1
	size := 0 // base players walked
	for _, p := range final {
		from := 0 // the first open chain p belongs to
		if a := int(e.rank[p]); a >= 0 {
			from = e.open(a, starts[a], a*stride, row)
			e.arrive(a, min(size, e.k))
		} else {
			e.add(p, size)
			size++
		}
		if e.dirty {
			c := 0
			for j, d := range e.diff {
				c += d
				e.corr[j] = c
			}
			for i := range e.opened {
				e.opened[i].c = e.corr[e.opened[i].j]
			}
			e.dirty = false
		}
		for i := from; i < len(e.opened); i++ {
			ch := &e.opened[i]
			ch.at++
			row[ch.at] = e.values[e.score+ch.c]
		}
	}
	e.u.prefixAdds.Add(game.NestedPositions(len(final), len(starts)))
}

// open starts chain a, whose segment begins at row[seg], just before pivot
// a arrives at the chain's position slot: it writes the chain's value
// there — U(∅) at slot 0 — and files the chain among the open ones by
// index, returning its place; every open chain from that place on holds
// pivot a. Pivots above a never move C_a, so C_a already holds the chain's
// correction.
func (e *knnPivot) open(a, slot, seg int, row []float64) int {
	at := seg + slot
	if slot == 0 {
		row[at] = e.u.emptyValue
	} else {
		row[at] = e.values[e.score+e.corr[a]]
	}
	i := len(e.opened)
	e.opened = append(e.opened, openChain{})
	for ; i > 0 && e.opened[i-1].j > a; i-- {
		e.opened[i] = e.opened[i-1]
	}
	e.opened[i] = openChain{j: a, at: at, c: e.corr[a]}
	return i
}

// openChain is an open chain of the nested walk: its index j, the row
// offset of its last written position, and its correction C_j.
type openChain struct{ j, at, c int }

// reset empties the base chain and puts every pivot back in every window,
// with term 0: C_j = 0 on the empty prefix.
func (e *knnPivot) reset() {
	e.score = 0
	clear(e.votes)
	clear(e.ok)
	clear(e.gone)
	clear(e.termAt)
	clear(e.corr)
}

// resetNested switches the evaluator to the nested walk, allocating its
// state on first use, and restarts it with no pivot arrived.
func (e *knnPivot) resetNested() {
	e.nested = true
	np := len(e.pivots)
	if e.rank == nil {
		e.rank = make([]int32, len(e.labels))
		for i := range e.rank {
			e.rank[i] = -1
		}
		for j, v := range e.pivots {
			e.rank[v] = int32(j)
		}
		e.liveJ = make([]int32, e.m*np)
		e.live = make([]int32, e.m)
		e.stepJ = make([]int32, e.m*np)
		e.stepD = make([]int32, e.m*np)
		e.nstep = make([]int32, e.m)
		e.diff = make([]int, np)
		e.opened = make([]openChain, 0, np)
		e.newJ = make([]int32, 0, np)
		e.newD = make([]int32, 0, np)
		e.mDist = make([]float64, 0, e.k)
		e.mIdx = make([]int32, 0, e.k)
		e.mVotes = make([]int32, e.classes)
	}
	clear(e.live)
	clear(e.nstep)
	clear(e.diff)
	e.opened = e.opened[:0]
	e.dirty = false
}

// add inserts training point p into the base chain, whose size before the
// insertion is size. While windows are not full no candidate can be
// rejected: each slides into place and extends its window by one. Once
// they are full, p enters window t only if it beats the tail under the
// (distance, index) order — the rule dataset.Nearest's index-order scan
// implements implicitly: strictly smaller distance displaces, equal
// distance keeps the earlier (smaller) index — and the packed tails
// decide the common rejection on two sequential loads.
func (e *knnPivot) add(p, size int) {
	col := e.column(p)
	wlen := min(size, e.k)
	if wlen < e.k {
		for t, d := range col {
			e.enter(t, p, wlen, d)
		}
		return
	}
	idx := int32(p)
	worst, worstIdx := e.worst[:len(col)], e.worstIdx[:len(col)]
	for t, d := range col {
		if d > worst[t] || (d == worst[t] && idx > worstIdx[t]) {
			continue
		}
		e.enter(t, p, wlen, d)
	}
}

// enter puts training point p, at distance d, into window t of length
// wlen — displacing the tail when the window is full — updates the
// chain's score, and refreshes the pivots still in window t (in the
// nested walk, only while t holds a live arrived pivot).
func (e *knnPivot) enter(t, p, wlen int, d float64) {
	k, idx := e.k, int32(p)
	row := t * k
	pos := wlen
	dLabel := int32(-1) // the displaced member's label, −1 for none
	if wlen == k {
		dLabel = e.labels[e.idxs[row+k-1]]
		pos = k - 1
	}
	for pos > 0 && (e.dists[row+pos-1] > d || (e.dists[row+pos-1] == d && e.idxs[row+pos-1] > idx)) {
		e.dists[row+pos] = e.dists[row+pos-1]
		e.idxs[row+pos] = e.idxs[row+pos-1]
		pos--
	}
	e.dists[row+pos] = d
	e.idxs[row+pos] = idx
	full := wlen+1 >= k
	if full {
		e.worst[t], e.worstIdx[t] = e.dists[row+k-1], e.idxs[row+k-1]
	}
	pLabel := e.labels[p]
	e.score += e.scoreChange(t, pLabel, dLabel)
	if int(e.gone[t]) < len(e.pivots) {
		if !e.nested {
			kept := int32(-1)
			if pLabel == dLabel {
				kept = dLabel
			}
			e.refresh(t, full, kept)
		} else if e.live[t] > 0 {
			e.refreshNested(t, min(wlen+1, k))
		}
	}
}

// scoreChange applies the base window change {+pLabel, −dLabel} (no
// removal when dLabel is −1) at test point t and returns the change in the
// chain's score. Integer counts updated by ±1 are exact, so the argmax —
// ties toward the smaller label, as in the scratch classifier — equals a
// full recount, and the soft count matches softValue's total, bit for bit.
func (e *knnPivot) scoreChange(t int, pLabel, dLabel int32) int {
	if e.soft {
		y, delta := e.testLabels[t], 0
		if pLabel == y {
			delta++
		}
		if dLabel == y {
			delta--
		}
		return delta
	}
	if pLabel == dLabel {
		return 0 // a same-label swap leaves the vote row as it was
	}
	v := e.votes[t*e.classes : (t+1)*e.classes]
	v[pLabel]++
	if dLabel >= 0 {
		v[dLabel]--
	}
	best, _ := argmax(v, -1)
	ok := best == e.testLabels[t]
	if ok == e.ok[t] {
		return 0
	}
	e.ok[t] = ok
	if ok {
		return 1
	}
	return -1
}

// refresh brings the live pivots' terms at test point t up to date after
// its base window changed. Pivots that no longer sort before the window's
// K-th entry leave window t for good, giving back their term; the rest
// move by their label's change in term. kept is the label of a full
// window's same-label swap (−1 for any other change): when the tail keeps
// that label too, the vote row, its correctness and the tail's label are
// as they were, so no term moves.
func (e *knnPivot) refresh(t int, full bool, kept int32) {
	np := len(e.pivots)
	base := t * np
	gone := int(e.gone[t])
	term := e.termAt[t*e.classes : (t+1)*e.classes]
	tailLabel := int32(-1)
	if full {
		tailDist, tailIdx := e.worst[t], e.worstIdx[t]
		tailLabel = e.labels[tailIdx]
		for ; gone < np; gone++ {
			j := e.order[base+gone]
			d := e.orderDist[base+gone]
			if d < tailDist || (d == tailDist && e.pivots[j] < tailIdx) {
				break
			}
			e.corr[j] -= int(term[e.pLabels[j]])
		}
		e.gone[t] = int32(gone)
		if gone == np || tailLabel == kept {
			return
		}
	}
	e.gains(t, tailLabel)
	if slices.Equal(e.gain, term) {
		return
	}
	for _, j := range e.order[base+gone : base+np] {
		c := e.pLabels[j]
		e.corr[j] += int(e.gain[c] - term[c])
	}
	copy(term, e.gain)
}

// gains fills e.gain[c] with the term a pivot of label c earns at test
// point t: its window is the base window plus c, minus tailLabel when the
// base window is full (tailLabel ≥ 0). Hard vote: correctness of that
// window's vote minus the base's; soft: the change in same-label members.
func (e *knnPivot) gains(t int, tailLabel int32) {
	y := e.testLabels[t]
	if e.soft {
		lost := int32(0)
		if tailLabel == y {
			lost = 1
		}
		for c := range e.gain {
			e.gain[c] = -lost
			if int32(c) == y {
				e.gain[c]++
			}
		}
		return
	}
	v := e.votes[t*e.classes : (t+1)*e.classes]
	base := int32(0)
	if e.ok[t] {
		base = 1
	}
	// Without the tail's vote, b leads with wb votes; a pivot of label c
	// wins the vote exactly when its one vote lifts c past b, or level with
	// b and c is the smaller label.
	b, wb := argmax(v, tailLabel)
	for c := range e.gain {
		x := v[c]
		if int32(c) == tailLabel {
			x--
		}
		win := b
		if int32(c) == b || x+1 > wb || (x+1 == wb && int32(c) < b) {
			win = int32(c)
		}
		g := int32(0)
		if win == y {
			g = 1
		}
		e.gain[c] = g - base
	}
}

// arrive adds pivot a to the chains a..k−1 while the base windows hold
// blen members each, and reprices the test points where a is live.
func (e *knnPivot) arrive(a, blen int) {
	np := len(e.pivots)
	d, idx := e.pDist[a*e.m:(a+1)*e.m], e.pivots[a]
	for t := range e.live {
		if blen == e.k && (d[t] > e.worst[t] || (d[t] == e.worst[t] && idx > e.worstIdx[t])) {
			continue
		}
		js := e.liveJ[t*np : t*np+int(e.live[t])+1]
		i := len(js) - 1
		for ; i > 0 && js[i-1] > int32(a); i-- {
			js[i] = js[i-1]
		}
		js[i] = int32(a)
		e.live[t]++
		e.restep(t, blen)
	}
}

// refreshNested is refresh for the nested walk, called only while test
// point t holds a live arrived pivot: after t's base window changed (now
// blen members), the arrived pivots that no longer sort before its K-th
// entry leave window t for good, and t's steps are recomputed. The walk
// never tests the pivots that have not arrived: arrive tests each one
// against the tail itself.
func (e *knnPivot) refreshNested(t, blen int) {
	if blen == e.k {
		at := t * len(e.pivots)
		tailDist, tailIdx := e.worst[t], e.worstIdx[t]
		live := e.liveJ[at:at]
		for _, j := range e.liveJ[at : at+int(e.live[t])] {
			if d := e.pDist[int(j)*e.m+t]; d < tailDist || (d == tailDist && e.pivots[j] < tailIdx) {
				live = append(live, j)
			}
		}
		e.live[t] = int32(len(live))
	}
	if e.live[t] > 0 || e.nstep[t] > 0 {
		e.restep(t, blen)
	}
}

// restep recomputes test point t's steps from its base window (blen
// members) and its live arrived pivots, and moves diff by the change. A
// lone live pivot's step is its own term, priced off the base window;
// two or more go through mergeSteps.
func (e *knnPivot) restep(t, blen int) {
	np := len(e.pivots)
	at := t * np
	newJ, newD := e.newJ[:0], e.newD[:0]
	switch live := e.liveJ[at : at+int(e.live[t])]; len(live) {
	case 0:
	case 1:
		if d := e.soloTerm(t, blen, e.pLabels[live[0]]); d != 0 {
			newJ, newD = append(newJ, live[0]), append(newD, d)
		}
	default:
		newJ, newD = e.mergeSteps(t, blen, live)
	}
	oldJ, oldD := e.stepJ[at:at+int(e.nstep[t])], e.stepD[at:at+int(e.nstep[t])]
	if slices.Equal(oldJ, newJ) && slices.Equal(oldD, newD) {
		return
	}
	for i, j := range oldJ {
		e.diff[j] -= int(oldD[i])
	}
	for i, j := range newJ {
		e.diff[j] += int(newD[i])
	}
	copy(e.stepJ[at:], newJ)
	copy(e.stepD[at:], newD)
	e.nstep[t] = int32(len(newJ))
	e.dirty = true
}

// soloTerm is the term of a live pivot of label c that is test point t's
// only one: its window is the base window (blen members) plus c, less the
// tail when the base window is full. Hard vote: the correctness of that
// window's vote minus the base's; soft: [c = y] − [tail = y].
func (e *knnPivot) soloTerm(t, blen int, c int32) int32 {
	y, tail := e.testLabels[t], int32(-1)
	if blen == e.k {
		tail = e.labels[e.worstIdx[t]]
	}
	d := int32(0)
	if e.soft {
		if c == y {
			d++
		}
		if tail == y {
			d--
		}
		return d
	}
	v := e.votes[t*e.classes : (t+1)*e.classes]
	v[c]++
	best, _ := argmax(v, tail)
	v[c]--
	if best == y {
		d++
	}
	if e.ok[t] {
		d--
	}
	return d
}

// mergeSteps returns test point t's steps over its live arrived pivots.
// Taking them in index order, it merges each into a copy of the base
// window (blen members) under (distance, index) — dropping the merged K-th
// entry, base member or earlier pivot, when the window is full and the
// pivot sorts before it — and records a step wherever the merged window's
// term moves.
func (e *knnPivot) mergeSteps(t, blen int, live []int32) (newJ, newD []int32) {
	k := e.k
	y := e.testLabels[t]
	mDist := append(e.mDist[:0], e.dists[t*k:t*k+blen]...)
	mIdx := append(e.mIdx[:0], e.idxs[t*k:t*k+blen]...)
	votes, base := e.mVotes, int32(0)
	if !e.soft {
		copy(votes, e.votes[t*e.classes:(t+1)*e.classes])
		if e.ok[t] {
			base = 1
		}
	}
	newJ, newD = e.newJ[:0], e.newD[:0]
	term := int32(0) // the merged window's term over the base window's
	for _, j := range live {
		d, idx := e.pDist[int(j)*e.m+t], e.pivots[j]
		out := int32(-1) // the dropped entry's label, −1 for none
		if len(mDist) == k {
			if d > mDist[k-1] || (d == mDist[k-1] && idx > mIdx[k-1]) {
				continue
			}
			out = e.labels[mIdx[k-1]]
			mDist, mIdx = mDist[:k-1], mIdx[:k-1]
		}
		pos := len(mDist)
		mDist, mIdx = append(mDist, d), append(mIdx, idx)
		for pos > 0 && (mDist[pos-1] > d || (mDist[pos-1] == d && mIdx[pos-1] > idx)) {
			mDist[pos], mIdx[pos] = mDist[pos-1], mIdx[pos-1]
			pos--
		}
		mDist[pos], mIdx[pos] = d, idx
		c, next := e.pLabels[j], term
		if e.soft {
			if c == y {
				next++
			}
			if out == y {
				next--
			}
		} else {
			votes[c]++
			if out >= 0 {
				votes[out]--
			}
			next = -base
			if best, _ := argmax(votes, -1); best == y {
				next++
			}
		}
		if next != term {
			newJ, newD = append(newJ, j), append(newD, next-term)
			term = next
		}
	}
	return newJ, newD
}

// argmax returns the label with the most votes in v, one vote taken from
// label minus (−1: none), ties toward the smaller label — the scratch
// classifier's rule — and its vote count.
func argmax(v []int32, minus int32) (best, votes int32) {
	best = -1
	for c, x := range v {
		if int32(c) == minus {
			x--
		}
		if best < 0 || x > votes {
			best, votes = int32(c), x
		}
	}
	return best, votes
}
