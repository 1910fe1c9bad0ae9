// Package utility turns machine-learning training runs into cooperative-game
// utility functions: U(S) = score of a model trained on the coalition S of
// training points, evaluated on a held-out test set (the interpretation used
// throughout the paper).
//
// Two properties matter for valuation correctness and are enforced here:
//
//  1. Determinism — U(S) must return the same value every time it is asked
//     about the same coalition, or estimators see phantom noise and caches
//     poison results. The per-fit RNG seed is therefore derived from the
//     coalition content itself.
//  2. Observability — dynamic algorithms win by avoiding model trainings, so
//     the layer exposes training counts and supports a simulated per-training
//     latency for reproducing the paper's wall-clock tables on hardware
//     much smaller than the authors' testbed.
package utility

import (
	"sync/atomic"
	"time"

	"dynshap/internal/bitset"
	"dynshap/internal/dataset"
	"dynshap/internal/ml"
)

// ModelUtility is a game.Game whose value is the test accuracy of a model
// trained on the coalition.
type ModelUtility struct {
	train   *dataset.Dataset
	test    *dataset.Dataset
	trainer ml.Trainer
	// kernel caches every test-to-train Euclidean distance when the trainer
	// is KNN, so Value and Prefix evaluations select neighbours by reading a
	// matrix instead of recomputing m·|S| distances per coalition. Entries
	// are the exact Euclidean values the scratch path would compute, and the
	// selection code mirrors dataset.Nearest's tie order, so results are
	// bit-identical with or without it (see DESIGN.md §12). Nil for other
	// trainers or under WithoutKernel.
	kernel *dataset.DistanceKernel
	// knnK is the trainer's resolved neighbour count (0 for non-KNN
	// trainers, which never select neighbours).
	knnK int
	// soft selects Jia et al.'s soft k-NN scoring rule instead of
	// majority-vote accuracy (ml.SoftKNN trainers): U(S) = mean over test
	// points of (#same-label among the min(k,|S|) nearest in S)/k, with
	// U(∅) = 0. Only this utility admits the exact closed-form Shapley
	// fast path (internal/exact).
	soft     bool
	noKernel bool
	workers  int
	// EmptyValue is U(∅). The conventional choice — used here — is the
	// accuracy of the trivial always-predict-0 model, so marginal
	// contributions of first points are meaningful.
	emptyValue float64
	// delay, when positive, is slept on every training run to emulate the
	// paper's expensive models (T in Theorems 1–4).
	delay time.Duration
	fits  atomic.Int64
	// prefixAdds counts incremental prefix evaluations (see Prefix); they
	// avoid a training each, so the two counters together describe how the
	// utility's work splits between scratch and incremental paths.
	prefixAdds atomic.Int64
}

// Option configures a ModelUtility.
type Option func(*ModelUtility)

// WithSimulatedLatency makes every Value call sleep for d, emulating a model
// whose training dominates runtime (the paper's SVM on Adult).
func WithSimulatedLatency(d time.Duration) Option {
	return func(u *ModelUtility) { u.delay = d }
}

// WithEmptyValue overrides U(∅).
func WithEmptyValue(v float64) Option {
	return func(u *ModelUtility) { u.emptyValue = v }
}

// WithoutKernel disables the precomputed distance kernel, trading the m×n
// float64 matrix's memory for recomputing distances on every evaluation.
// Values are bit-identical either way; this is purely a memory/speed knob
// and the reference arm the kernel's equality tests compare against.
func WithoutKernel() Option {
	return func(u *ModelUtility) { u.noKernel = true }
}

// WithWorkers sets the worker count for the kernel's initial parallel fill.
// Zero or negative means GOMAXPROCS. The fill is bit-identical at any
// count; evaluation never spawns goroutines.
func WithWorkers(workers int) Option {
	return func(u *ModelUtility) { u.workers = workers }
}

// NewModelUtility builds the utility for valuing the points of train with
// the given trainer, scored on test. Both datasets are cloned; later
// mutation of the arguments does not affect the utility.
func NewModelUtility(train, test *dataset.Dataset, trainer ml.Trainer, opts ...Option) *ModelUtility {
	u := &ModelUtility{
		train:   train.Clone(),
		test:    test.Clone(),
		trainer: trainer,
	}
	if _, ok := trainer.(ml.SoftKNN); ok {
		u.soft = true
		u.emptyValue = 0 // the soft utility's convention: U(∅) = 0
	} else {
		u.emptyValue = ml.Accuracy(ml.Constant{Label: 0}, u.test)
	}
	for _, o := range opts {
		o(u)
	}
	u.buildKernel()
	return u
}

// buildKernel precomputes the distance kernel for KNN trainers. Built once
// here; Session add/delete flows extend or mask it via Append/Remove and
// never trigger a rebuild.
func (u *ModelUtility) buildKernel() {
	switch tr := u.trainer.(type) {
	case ml.KNN:
		u.knnK = tr.K
	case ml.SoftKNN:
		u.knnK = tr.K
	default:
		return
	}
	if u.knnK == 0 {
		u.knnK = 5
	}
	if u.noKernel {
		return
	}
	u.kernel = dataset.NewDistanceKernel(u.test, u.train, u.workers)
}

// N implements game.Game: the players are the training points.
func (u *ModelUtility) N() int { return u.train.Len() }

// Value implements game.Game: train on the coalition, score on the test set.
func (u *ModelUtility) Value(s bitset.Set) float64 {
	if s.Empty() {
		return u.emptyValue
	}
	if u.delay > 0 {
		time.Sleep(u.delay)
	}
	u.fits.Add(1)
	if u.soft {
		return u.softValue(s)
	}
	if u.kernel != nil {
		return u.knnValue(s)
	}
	sub := u.train.Subset(s.Indices())
	sub.Classes = u.train.Classes
	model := u.seededFit(sub, s)
	return ml.Accuracy(model, u.test)
}

// knnValue evaluates the KNN utility straight off the kernel: no subset
// clone, no model object, same bits. It replays the scratch pipeline
// exactly — Subset scans members in ascending index order, Fit clamps k to
// |S|, Nearest's window admits a candidate only on strictly smaller
// distance (ties keep the earlier index), majority vote ties toward the
// smaller label, Accuracy divides correct by m — with kernel reads in place
// of Euclidean calls. Only per-call locals are written, so concurrent
// Value calls stay safe.
func (u *ModelUtility) knnValue(s bitset.Set) float64 {
	m := u.test.Len()
	if m == 0 {
		return 0 // ml.Accuracy's empty-test convention
	}
	members := s.Indices()
	k := u.knnK
	if k > len(members) {
		k = len(members)
	}
	dists := make([]float64, k)
	idxs := make([]int, k)
	counts := make([]int, u.train.Classes)
	correct := 0
	for j := 0; j < m; j++ {
		size := 0
		for _, i := range members {
			dist := u.kernel.At(i, j)
			if size == k && dist >= dists[size-1] {
				continue
			}
			pos := size
			if size < k {
				size++
			} else {
				pos = k - 1
			}
			for pos > 0 && dists[pos-1] > dist {
				dists[pos] = dists[pos-1]
				idxs[pos] = idxs[pos-1]
				pos--
			}
			dists[pos] = dist
			idxs[pos] = i
		}
		for c := range counts {
			counts[c] = 0
		}
		for w := 0; w < size; w++ {
			counts[u.train.Points[idxs[w]].Y]++
		}
		best := 0
		for c, cnt := range counts {
			if cnt > counts[best] {
				best = c
			}
		}
		if best == u.test.Points[j].Y {
			correct++
		}
	}
	return float64(correct) / float64(m)
}

// softValue evaluates the soft k-NN utility: per test point, select the
// min(k,|S|) nearest coalition members with exactly knnValue's insertion
// window (strictly smaller distance displaces, ties keep the earlier
// index), count the same-label members, and return the single canonical
// division total/(k·m). The integer total is what the incremental prefix
// evaluator and the scratch path both maintain, so every evaluation route
// — kernel, scratch, prefix — produces identical bits. Distances come
// from the kernel when present and from the same Euclidean call the
// kernel fill performs otherwise.
func (u *ModelUtility) softValue(s bitset.Set) float64 {
	m := u.test.Len()
	if m == 0 {
		return 0
	}
	members := s.Indices()
	k := u.knnK
	win := k
	if win > len(members) {
		win = len(members)
	}
	dists := make([]float64, win)
	idxs := make([]int, win)
	total := 0
	for j := 0; j < m; j++ {
		size := 0
		for _, i := range members {
			var dist float64
			if u.kernel != nil {
				dist = u.kernel.At(i, j)
			} else {
				dist = dataset.Euclidean(u.test.Points[j].X, u.train.Points[i].X)
			}
			if size == win && dist >= dists[size-1] {
				continue
			}
			pos := size
			if size < win {
				size++
			} else {
				pos = win - 1
			}
			for pos > 0 && dists[pos-1] > dist {
				dists[pos] = dists[pos-1]
				idxs[pos] = idxs[pos-1]
				pos--
			}
			dists[pos] = dist
			idxs[pos] = i
		}
		ty := u.test.Points[j].Y
		for w := 0; w < size; w++ {
			if u.train.Points[idxs[w]].Y == ty {
				total++
			}
		}
	}
	return float64(total) / float64(k*m)
}

// ExactKNNState exposes the ingredients of the exact closed-form k-NN
// Shapley estimator — the distance kernel and the neighbour count — when
// this utility is the soft k-NN scoring rule backed by a kernel, which is
// precisely the configuration whose Shapley values the closed form is
// exact for. ok is false for every other trainer, for majority-vote KNN
// (the form is NOT exact there), and under WithoutKernel.
func (u *ModelUtility) ExactKNNState() (kernel *dataset.DistanceKernel, k int, ok bool) {
	if !u.soft || u.kernel == nil {
		return nil, 0, false
	}
	return u.kernel, u.knnK, true
}

// seededFit trains with a seed derived from the coalition so U is a pure
// function of S even though training is stochastic.
func (u *ModelUtility) seededFit(sub *dataset.Dataset, s bitset.Set) ml.Classifier {
	switch tr := u.trainer.(type) {
	case ml.SVM:
		tr.Seed = s.Hash()
		return tr.Fit(sub)
	case ml.LogReg:
		tr.Seed = s.Hash()
		return tr.Fit(sub)
	case ml.KNN:
		// The subset was built for this call and discarded after scoring —
		// skip Fit's defensive clone.
		return tr.FitOwned(sub)
	default:
		return u.trainer.Fit(sub)
	}
}

// Fits returns the number of model trainings performed so far (excluding
// empty coalitions).
func (u *ModelUtility) Fits() int64 { return u.fits.Load() }

// ResetFits zeroes the training counter.
func (u *ModelUtility) ResetFits() { u.fits.Store(0) }

// Train returns a clone of the training dataset being valued.
func (u *ModelUtility) Train() *dataset.Dataset { return u.train.Clone() }

// SharedTrain returns the training dataset being valued without copying
// it. The dataset is shared and immutable: the utility never modifies it
// (Append and Remove derive a new one for the new utility), and callers
// must not either.
func (u *ModelUtility) SharedTrain() *dataset.Dataset { return u.train }

// Test returns a clone of the held-out test dataset.
func (u *ModelUtility) Test() *dataset.Dataset { return u.test.Clone() }

// Append returns a new ModelUtility over the training set extended with the
// given points (the N⁺ view of the addition algorithms). The receiver is
// unchanged; the derived training set is a structurally independent view
// sharing the points' immutable feature storage, the test set (which no
// utility modifies) is shared, and the trainer and options carry over.
// The kernel rides along with one O(m·d) column append per point instead
// of an O(m·n·d) rebuild.
func (u *ModelUtility) Append(points ...dataset.Point) *ModelUtility {
	nu := &ModelUtility{
		train:      u.train.Append(points...),
		test:       u.test,
		trainer:    u.trainer,
		knnK:       u.knnK,
		soft:       u.soft,
		noKernel:   u.noKernel,
		workers:    u.workers,
		emptyValue: u.emptyValue,
		delay:      u.delay,
	}
	if u.kernel != nil {
		nu.kernel = u.kernel.Append(points...)
	}
	return nu
}

// Remove returns a new ModelUtility over the training set without the
// points at the given indices (the N⁻ view of the deletion algorithms).
// Like Append, the derived utility gets a fresh training slice, sharing
// the points' immutable feature storage, and shares the test set.
// The kernel is masked, not rebuilt: surviving columns keep their storage
// and only the logical index map shrinks.
func (u *ModelUtility) Remove(indices ...int) *ModelUtility {
	nu := &ModelUtility{
		train:      u.train.Remove(indices...),
		test:       u.test,
		trainer:    u.trainer,
		knnK:       u.knnK,
		soft:       u.soft,
		noKernel:   u.noKernel,
		workers:    u.workers,
		emptyValue: u.emptyValue,
		delay:      u.delay,
	}
	if u.kernel != nil {
		nu.kernel = u.kernel.Remove(indices...)
	}
	return nu
}

// KernelMemoryBytes reports the distance kernel's heap footprint, 0 when
// the utility has none. Views derived by Append/Remove may share one
// physical buffer; each reports the full buffer it keeps resident.
func (u *ModelUtility) KernelMemoryBytes() int64 {
	if u.kernel == nil {
		return 0
	}
	return u.kernel.MemoryBytes()
}
