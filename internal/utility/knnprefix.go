package utility

import "dynshap/internal/game"

// knnStep is the step view of the KNN utility's incremental evaluator: the
// base chain of a zero-pivot knnPivot, advanced one member per Add. It
// maintains U(S) = test accuracy of a k-NN classifier trained on the
// coalition S (or the soft score) as points join S one at a time — the
// structure Jia et al. exploit for exact k-NN Shapley values — with the
// window kernel the whole-walk and pivot-aware walks run on, so every
// route carries the same bits as a scratch ModelUtility.Value call on the
// same coalition.
type knnStep struct {
	e    *knnPivot
	size int // members added since Reset
}

// Prefix implements game.Prefixer. The capability is available only for
// the KNN trainers (majority-vote and soft), whose lazy models admit
// exact incremental maintenance; other trainers return nil, sending
// estimators down the scratch-Value fallback. Evaluations through the
// evaluator train no model: they do not count as Fits, and the simulated
// training latency (WithSimulatedLatency) does not apply. Each Add counts
// one prefix add. The engine's full walks price a whole permutation in one
// PivotPrefix(nil) Walk instead, and the pivot passes in one nested walk;
// this view serves TMC's cut walk, the sequential references in
// internal/core's tests, and the benchmark's per-position timing
// (perfbench's utility.prefix_add_ns).
// Prefix is safe for concurrent calls; each returned evaluator must stay
// on one goroutine.
func (u *ModelUtility) Prefix() game.PrefixEvaluator {
	if u.knnK == 0 {
		return nil
	}
	return &knnStep{e: u.knnPivot(nil)}
}

// PrefixAdds returns the number of incremental prefix evaluations served by
// evaluators handed out by Prefix and PivotPrefix (the trainings avoided,
// roughly).
func (u *ModelUtility) PrefixAdds() int64 { return u.prefixAdds.Load() }

// Reset implements game.PrefixEvaluator.
func (s *knnStep) Reset() {
	s.e.reset()
	s.size = 0
}

// Add implements game.PrefixEvaluator: training point p joins the
// coalition; the new utility is returned.
func (s *knnStep) Add(p int) float64 {
	s.e.u.prefixAdds.Add(1)
	s.e.add(p, s.size)
	s.size++
	return s.e.values[s.e.score]
}
