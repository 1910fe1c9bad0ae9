// Package journal records the mutation history of a valuation session as
// an append-only log of Update records.
//
// The paper treats a valuation as a long-lived object — Shapley values
// maintained across insertions and deletions — which makes the *sequence*
// of updates part of the state: a broker must be able to explain which
// algorithm produced the values it paid on (the planner's decision trace),
// audit what each update cost (model trainings, permutations, wall time),
// and reproduce any historical version exactly. The journal supplies all
// three. Because every sampler in the library is deterministic and each
// operation draws from an RNG stream keyed by (seed, version), replaying
// the base dataset through the journaled operations reproduces every
// recorded version bit for bit.
//
// A Journal is safe for concurrent use: appends come from the session's
// single writer, reads may come from any goroutine.
package journal

import (
	"fmt"
	"math"
	"sync"

	"dynshap/internal/dataset"
)

// Update is one journaled session mutation. Points and Indices carry the
// operation's full input so the operation can be re-applied during replay;
// the remaining fields are the audit trail.
type Update struct {
	// Version is the state version this update produced. Versions are
	// contiguous: the first update yields version 1 (or base+1 after a
	// resume that carried history over).
	Version int `json:"version"`
	// Op is the operation kind: "init", "add", "delete" or "refresh".
	Op string `json:"op"`
	// Requested is the algorithm the caller asked for, when it differs
	// from the one that ran — "Auto" when the planner chose.
	Requested string `json:"requested,omitempty"`
	// Algo is the algorithm that actually ran (paper names: "MC", "Delta",
	// "YN-NN", "Pivot-s", …). Replay re-applies this resolved algorithm,
	// so recorded versions stay reproducible even if planner heuristics
	// change between releases.
	Algo string `json:"algo,omitempty"`
	// Points holds the added points (op "add").
	Points []dataset.Point `json:"points,omitempty"`
	// Indices holds the deleted indices in the pre-delete numbering
	// (op "delete").
	Indices []int `json:"indices,omitempty"`
	// BatchValues holds the per-point attribution of a batched add: the
	// value each appended point received, in arrival order (batch algos
	// only). Replay does not consume it — the batched walks are
	// deterministic from (seed, version) — but auditors reading the
	// journal see what each point of a batch was individually worth.
	BatchValues []float64 `json:"batch_values,omitempty"`
	// HeadValues holds, for sessions pricing extra semivalue heads, each
	// head's attribution of the appended points (key = the weighting's wire
	// name, value aligned with Points) — what each arriving point was worth
	// under Banzhaf, Beta(α,β), … the moment it landed. Replay does not
	// consume it: head folds are deterministic bookkeeping over the same
	// walks, so re-running the operation reproduces every head bit for bit.
	HeadValues map[string][]float64 `json:"head_values,omitempty"`
	// Coalesced reports that the update arrived through the session's
	// write-coalescing pipeline: the recorded Points (adds) or Indices
	// (deletes) are one admission window, not a single caller's batch.
	// Replay does not consume it — the executed operation is identical
	// either way — but auditors reading the journal see which records were
	// window-shaped by traffic timing rather than by a caller.
	Coalesced bool `json:"coalesced,omitempty"`
	// RemovedValues holds the pre-delete Shapley values of the removed
	// points, aligned with Indices — exact values on the exact k-NN
	// deletion path (where the estimator knows them exactly), the
	// published pre-delete estimates on the batched delta and pivot
	// deletion paths. Replay does not consume it; auditors see what each
	// departing point was worth the moment it left, and the coalescer
	// resolves delete futures with it.
	RemovedValues []float64 `json:"removed_values,omitempty"`
	// Trainings is the number of model trainings the operation cost.
	Trainings int64 `json:"trainings"`
	// PrefixAdds is the number of incremental prefix evaluations the
	// operation used in place of trainings.
	PrefixAdds int64 `json:"prefix_adds,omitempty"`
	// Permutations is the number of permutations the operation issued
	// (engine passes and pivot replays; 0 for heuristic updates).
	Permutations int `json:"permutations,omitempty"`
	// Seconds is the operation's wall time.
	Seconds float64 `json:"seconds"`
	// Decision is the planner's trace: the artifacts it saw, the costs it
	// predicted, and why it settled on Algo. Empty when the caller picked
	// the algorithm directly.
	Decision []string `json:"decision,omitempty"`
}

// State is the serialisable form of a Journal, embedded in snapshot
// format 2.
type State struct {
	// Base holds the training points the journal's first entry applied to.
	Base []dataset.Point `json:"base"`
	// Classes is the label-space size of the base points.
	Classes int `json:"classes"`
	// BaseValues, when present, are Shapley values installed directly at
	// version 0 (a session resumed from a format-1 snapshot has values but
	// no recorded history; replay re-installs them instead of re-running
	// an init pass).
	BaseValues []float64 `json:"base_values,omitempty"`
	// Entries is the update log, versions ascending and contiguous.
	Entries []Update `json:"entries,omitempty"`
}

// Journal is an append-only log of session updates over a fixed base.
type Journal struct {
	mu         sync.Mutex
	base       []dataset.Point
	classes    int
	baseValues []float64
	entries    []Update
}

// New returns a journal over the given base training points. baseValues
// may be nil (a fresh session) or the values installed at version 0 (a
// session resumed without history). All inputs are deep-copied.
func New(base []dataset.Point, classes int, baseValues []float64) *Journal {
	return &Journal{
		base:       clonePoints(base),
		classes:    classes,
		baseValues: append([]float64(nil), baseValues...),
	}
}

// Restore rebuilds a journal from its serialised state.
func Restore(st State) *Journal {
	j := New(st.Base, st.Classes, st.BaseValues)
	j.entries = cloneEntries(st.Entries)
	return j
}

// Append records one successful update. It panics if the entry's version
// does not extend the log contiguously — journal corruption is a
// programming error, not a runtime condition.
func (j *Journal) Append(u Update) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if want := j.lastVersionLocked() + 1; u.Version != want {
		panic(fmt.Sprintf("journal: appending version %d after %d", u.Version, want-1))
	}
	j.entries = append(j.entries, cloneEntry(u))
}

// Len returns the number of journaled updates.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// LastVersion returns the version the most recent entry produced, or the
// base version when the log is empty.
func (j *Journal) LastVersion() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastVersionLocked()
}

func (j *Journal) lastVersionLocked() int {
	if len(j.entries) == 0 {
		return j.baseVersionLocked()
	}
	return j.entries[len(j.entries)-1].Version
}

// baseVersionLocked is the version of the journal's base state: one less
// than the first entry's version (0 for a fresh journal).
func (j *Journal) baseVersionLocked() int {
	if len(j.entries) == 0 {
		return 0
	}
	return j.entries[0].Version - 1
}

// BaseVersion returns the version of the journal's base state.
func (j *Journal) BaseVersion() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.baseVersionLocked()
}

// History returns a copy of the update log, versions ascending.
func (j *Journal) History() []Update {
	j.mu.Lock()
	defer j.mu.Unlock()
	return cloneEntries(j.entries)
}

// At returns the update that produced the given version.
func (j *Journal) At(version int) (Update, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	base := j.baseVersionLocked()
	i := version - base - 1
	if i < 0 || i >= len(j.entries) {
		return Update{}, false
	}
	return cloneEntry(j.entries[i]), true
}

// Through returns the updates with Version ≤ version, ascending — the
// replay prefix that reproduces that version from the base.
func (j *Journal) Through(version int) []Update {
	j.mu.Lock()
	defer j.mu.Unlock()
	return cloneEntries(j.throughLocked(version))
}

func (j *Journal) throughLocked(version int) []Update {
	k := version - j.baseVersionLocked()
	return j.entries[:max(0, min(k, len(j.entries)))]
}

// Base returns copies of the base points, their class count, and the
// base-installed values (nil for fresh sessions).
func (j *Journal) Base() ([]dataset.Point, int, []float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return clonePoints(j.base), j.classes, append([]float64(nil), j.baseValues...)
}

// State returns a deep copy of the journal for serialisation.
func (j *Journal) State() State { return j.StateThrough(math.MaxInt) }

// StateThrough is State holding only the updates with Version ≤ version:
// the journal as it stood when that version was published, however many
// updates have been appended since.
func (j *Journal) StateThrough(version int) State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return State{
		Base:       clonePoints(j.base),
		Classes:    j.classes,
		BaseValues: append([]float64(nil), j.baseValues...),
		Entries:    cloneEntries(j.throughLocked(version)),
	}
}

func cloneEntry(u Update) Update {
	u.Points = clonePoints(u.Points)
	u.Indices = append([]int(nil), u.Indices...)
	u.BatchValues = append([]float64(nil), u.BatchValues...)
	if u.HeadValues != nil {
		hv := make(map[string][]float64, len(u.HeadValues))
		for k, v := range u.HeadValues {
			hv[k] = append([]float64(nil), v...)
		}
		u.HeadValues = hv
	}
	u.RemovedValues = append([]float64(nil), u.RemovedValues...)
	u.Decision = append([]string(nil), u.Decision...)
	return u
}

func cloneEntries(es []Update) []Update {
	if es == nil {
		return nil
	}
	out := make([]Update, len(es))
	for i, e := range es {
		out[i] = cloneEntry(e)
	}
	return out
}

func clonePoints(pts []dataset.Point) []dataset.Point {
	if pts == nil {
		return nil
	}
	out := make([]dataset.Point, len(pts))
	for i, p := range pts {
		out[i] = p.Clone()
	}
	return out
}
