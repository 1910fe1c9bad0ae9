package dynshap

import (
	"fmt"
	"sort"
	"sync"

	"dynshap/internal/ml"
	"dynshap/internal/utility"
)

// This file holds valuation conveniences on top of the Session/estimator
// core: building utility games directly, ranking points, and turning values
// into monetary payouts — the broker-side operations the paper's data
// market (Figure 1) performs with Shapley values.

// ModelGame builds the cooperative game the library values: players are the
// points of train and U(S) is the test accuracy of a model produced by
// trainer on the coalition S. The datasets are cloned. Use it with the
// game-level estimators when the Session abstraction is more than you need.
func ModelGame(train, test *Dataset, trainer Trainer) Game {
	return utility.NewModelUtility(train, test, trainer)
}

// Accuracy scores a classifier on a dataset — the utility metric.
func Accuracy(c Classifier, test *Dataset) float64 { return ml.Accuracy(c, test) }

// Ranked is one entry of a valuation ranking.
type Ranked struct {
	// Index is the point's position in the valued dataset.
	Index int
	// Value is its Shapley value.
	Value float64
}

// Rank returns the points ordered by decreasing value, ties broken by index.
func Rank(values []float64) []Ranked {
	out := make([]Ranked, len(values))
	for i, v := range values {
		out[i] = Ranked{Index: i, Value: v}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Value != out[b].Value {
			return out[a].Value > out[b].Value
		}
		return out[a].Index < out[b].Index
	})
	return out
}

// TopK returns the indices of the k most valuable points (all indices when
// k exceeds the count).
func TopK(values []float64, k int) []int {
	ranked := Rank(values)
	if k > len(ranked) {
		k = len(ranked)
	}
	if k < 0 {
		k = 0
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ranked[i].Index
	}
	return out
}

// rankStore lazily caches a published state's sorted rank orders, keyed by
// head (0 = the Shapley head, 1+h = the h-th configured semivalue head).
// Published values are immutable, so the order is computed once per
// (version, head) however many readers ask; readers receive copies of the
// cached slice, never the slice itself.
type rankStore struct {
	mu     sync.Mutex
	byHead map[int][]Ranked
}

func newRankStore() *rankStore { return &rankStore{} }

// ranked returns this state's cached rank order for the given head,
// sorting vals on the first request. The returned slice is SHARED — the
// session accessors copy it before handing it to callers.
func (st *sessionState) ranked(head int, vals []float64) []Ranked {
	rs := st.ranks
	if rs == nil {
		// States predate the cache only in tests poking at zero values;
		// fall back to a fresh sort.
		return Rank(vals)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if r, ok := rs.byHead[head]; ok {
		return r
	}
	r := Rank(vals)
	if rs.byHead == nil {
		rs.byHead = make(map[int][]Ranked, 1)
	}
	rs.byHead[head] = r
	return r
}

// topOf copies the first k indices out of a cached rank order.
func topOf(ranked []Ranked, k int) []int {
	if k > len(ranked) {
		k = len(ranked)
	}
	if k < 0 {
		k = 0
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ranked[i].Index
	}
	return out
}

// Rank returns the session's points ordered by decreasing current value —
// a non-blocking read of the latest published state. The order is sorted
// once per published version and cached, so repeated reads between updates
// pay only the copy.
func (s *Session) Rank() []Ranked {
	st := s.state.Load()
	return append([]Ranked(nil), st.ranked(0, st.sv)...)
}

// TopK returns the indices of the session's k most valuable points under
// the latest published values, read off the per-version cached rank order.
func (s *Session) TopK(k int) []int { return s.View().TopK(k) }

// headValues resolves a weighting to its rank-cache head index and the
// state's value slice for it (SHARED — callers copy before returning).
// Head 0 is the Shapley head; configured heads follow in order. A nil
// slice with nil error means the head exists but holds no values yet
// (before Init), mirroring Values.
func (s *Session) headValues(st *sessionState, sv Semivalue) (int, []float64, error) {
	if sv.IsShapley() {
		return 0, st.sv, nil
	}
	for h, w := range s.cfg.semivalues {
		if w.Key() == sv.Key() {
			if h >= len(st.heads) {
				return h + 1, nil, nil
			}
			return h + 1, st.heads[h], nil
		}
	}
	return 0, nil, fmt.Errorf("dynshap: semivalue %v is not maintained by this session; pass it to WithSemivalues", sv)
}

// ValuesFor returns the session's current estimates under the given
// semivalue weighting — a non-blocking read of the latest published
// version, like Values. The Shapley weighting is always available (it is
// the session's native head); any other weighting must have been
// configured with WithSemivalues, whose heads every sampled pass fills for
// free. Returns nil (no error) before Init, mirroring Values.
func (s *Session) ValuesFor(sv Semivalue) ([]float64, error) {
	st := s.state.Load()
	_, vals, err := s.headValues(st, sv)
	if err != nil {
		return nil, err
	}
	if vals == nil {
		return nil, nil
	}
	return append([]float64(nil), vals...), nil
}

// RankFor is Rank under the given semivalue weighting, served from the
// same per-version cached order.
func (s *Session) RankFor(sv Semivalue) ([]Ranked, error) {
	st := s.state.Load()
	head, vals, err := s.headValues(st, sv)
	if err != nil {
		return nil, err
	}
	return append([]Ranked(nil), st.ranked(head, vals)...), nil
}

// TopKFor is TopK under the given semivalue weighting, read off the
// per-version cached rank order.
func (s *Session) TopKFor(k int, sv Semivalue) ([]int, error) {
	st := s.state.Load()
	head, vals, err := s.headValues(st, sv)
	if err != nil {
		return nil, err
	}
	return topOf(st.ranked(head, vals), k), nil
}

// Allocate distributes revenue over the data owners in proportion to their
// positive Shapley values — the compensation rule of the paper's market
// model. Owners with non-positive values receive zero (the zero-element
// axiom: no contribution, no payment). If no value is positive, everything
// is zero.
func Allocate(values []float64, revenue float64) []float64 {
	out := make([]float64, len(values))
	var total float64
	for _, v := range values {
		if v > 0 {
			total += v
		}
	}
	if total == 0 {
		return out
	}
	for i, v := range values {
		if v > 0 {
			out[i] = revenue * v / total
		}
	}
	return out
}
