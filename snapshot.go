package dynshap

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dynshap/internal/atomicfile"
	"dynshap/internal/core"
	"dynshap/internal/dataset"
	"dynshap/internal/journal"
	"dynshap/internal/semivalue"
)

// Snapshot is a serialisable record of a valuation session: the points, the
// test set defining the utility, the current Shapley estimates, and — since
// format 2 — the session configuration and the update journal. It lets a
// broker persist what it owes to whom, resume after a restart, and replay
// or audit the update history that produced the current values.
//
// The dynamic-update structures (LSV, stored permutations, YN-NN arrays)
// are deliberately excluded: they are caches, recomputed by Refresh, while
// the snapshot is the durable record.
type Snapshot struct {
	// Format identifies the snapshot schema. Format 2 adds Version, Config
	// and Journal; format 1 files are still read (their missing fields
	// resume to a history-less session with default options).
	Format int `json:"format"`
	// Version is the state version the snapshot captured (format ≥ 2).
	Version int `json:"version,omitempty"`
	// Train holds the valued points, index-aligned with Values.
	Train []Point `json:"train"`
	// Test holds the held-out points defining the utility.
	Test []Point `json:"test"`
	// Classes is the label-space size shared by both sets.
	Classes int `json:"classes"`
	// Values holds the Shapley estimates (nil before Init).
	Values []float64 `json:"values,omitempty"`
	// Heads holds the extra semivalue heads' current estimates, keyed by
	// the weighting's wire name ("banzhaf", "beta(4,1)", …), each
	// index-aligned with Train (multi-head sessions, format ≥ 2). Resume
	// restores them so ValuesFor keeps answering without a Refresh.
	Heads map[string][]float64 `json:"heads,omitempty"`
	// Samples is the initialisation τ the estimates were computed with.
	Samples int `json:"samples"`
	// Config carries the session options format 1 silently dropped —
	// multi-delete candidates, workers, target error, seed, … (format ≥ 2).
	Config *SnapshotConfig `json:"config,omitempty"`
	// Journal is the session's update log over its base dataset (format ≥ 2).
	Journal *JournalState `json:"journal,omitempty"`
}

// SnapshotConfig is the serialised session configuration. Zero values mean
// "the session default", so a config round-trips through JSON omitempty
// without drift.
type SnapshotConfig struct {
	UpdateSamples  int     `json:"update_samples,omitempty"`
	Seed           uint64  `json:"seed,omitempty"`
	KeepPerms      bool    `json:"keep_permutations,omitempty"`
	TrackDeletions bool    `json:"track_deletions,omitempty"`
	MultiDelete    int     `json:"multi_delete,omitempty"`
	Candidates     []int   `json:"candidates,omitempty"`
	TruncationTol  float64 `json:"truncation_tolerance,omitempty"`
	HeuristicK     int     `json:"heuristic_k,omitempty"`
	CacheDisabled  bool    `json:"cache_disabled,omitempty"`
	KernelDisabled bool    `json:"kernel_disabled,omitempty"`
	Workers        int     `json:"workers,omitempty"`
	TargetEps      float64 `json:"target_eps,omitempty"`
	TargetDelta    float64 `json:"target_delta,omitempty"`
	// StoreBackend is the deletion-store storage backend's wire name
	// ("" / "dense64", "tiled32", "spill32") and SpillDir the spill
	// backend's scratch directory. Truncation is the stratified-truncated
	// walk length (0 = full walks). All three round-trip so replay after
	// resume reproduces bit-identical values.
	StoreBackend string `json:"store_backend,omitempty"`
	SpillDir     string `json:"spill_dir,omitempty"`
	Truncation   int    `json:"truncation,omitempty"`
	// Semivalues lists the extra heads the session prices alongside Shapley
	// (WithSemivalues), by wire name. Round-trips so a resumed session
	// keeps filling the same heads — and replay reproduces them bit for
	// bit, since heads are deterministic folds over the same walks.
	Semivalues []string `json:"semivalues,omitempty"`
}

// snapshotConfig serialises a session config. Fields matching the
// option-free defaults are zeroed so they omit from the JSON.
func snapshotConfig(cfg config, n int) *SnapshotConfig {
	def := defaultConfig(n)
	sc := &SnapshotConfig{
		Seed:           cfg.seed,
		KeepPerms:      cfg.keepPerms,
		TrackDeletions: cfg.trackDeletions,
		MultiDelete:    cfg.multiDelete,
		Candidates:     append([]int(nil), cfg.candidates...),
		CacheDisabled:  !cfg.cacheEnabled,
		KernelDisabled: cfg.noKernel,
		Workers:        cfg.workers,
		TargetEps:      cfg.targetEps,
		TargetDelta:    cfg.targetDelta,
		SpillDir:       cfg.spillDir,
		Truncation:     cfg.truncation,
	}
	if cfg.storeKind != StoreDense64 {
		sc.StoreBackend = cfg.storeKind.String()
	}
	if cfg.headCount() > 0 {
		sc.Semivalues = semivalue.Keys(cfg.semivalues)
	}
	if cfg.updateTau != cfg.tau {
		sc.UpdateSamples = cfg.updateTau
	}
	if cfg.truncationTol != def.truncationTol {
		sc.TruncationTol = cfg.truncationTol
	}
	if cfg.knnK != def.knnK {
		sc.HeuristicK = cfg.knnK
	}
	return sc
}

// apply overlays the persisted configuration onto cfg.
func (sc *SnapshotConfig) apply(cfg *config) {
	if sc.UpdateSamples > 0 {
		cfg.updateTau = sc.UpdateSamples
	}
	if sc.Seed != 0 {
		cfg.seed = sc.Seed
	}
	cfg.keepPerms = sc.KeepPerms
	cfg.trackDeletions = sc.TrackDeletions
	cfg.multiDelete = sc.MultiDelete
	cfg.candidates = append([]int(nil), sc.Candidates...)
	if sc.TruncationTol > 0 {
		cfg.truncationTol = sc.TruncationTol
	}
	if sc.HeuristicK > 0 {
		cfg.knnK = sc.HeuristicK
	}
	cfg.cacheEnabled = !sc.CacheDisabled
	cfg.noKernel = sc.KernelDisabled
	cfg.workers = sc.Workers
	cfg.targetEps = sc.TargetEps
	cfg.targetDelta = sc.TargetDelta
	if k, err := core.ParseBackendKind(sc.StoreBackend); err == nil {
		cfg.storeKind = k
	}
	cfg.spillDir = sc.SpillDir
	cfg.truncation = sc.Truncation
	if ws, err := semivalue.ParseAll(sc.Semivalues); err == nil {
		cfg.semivalues = ws
	}
}

// Snapshot captures the session's durable state — a non-blocking read of
// the latest published version, even while an update is in flight.
func (s *Session) Snapshot() *Snapshot {
	st := s.state.Load()
	train := st.train().Clone()
	test := s.test.Clone()
	// publish journals an update before it stores the state, so a write
	// landing after the load above may already be in the journal: keep
	// only the entries through the loaded version, or the snapshot's
	// history would run past its own values and Resume would claim the
	// later version.
	jst := s.journal.StateThrough(st.version)
	// Wall time is run metadata, not replayable state: dropping it keeps
	// snapshots byte-identical across runs with identical flags and seeds.
	for i := range jst.Entries {
		jst.Entries[i].Seconds = 0
	}
	var heads map[string][]float64
	if s.cfg.headCount() > 0 && len(st.heads) == s.cfg.headCount() {
		heads = make(map[string][]float64, s.cfg.headCount())
		for h, w := range s.cfg.semivalues {
			heads[w.Key()] = append([]float64(nil), st.heads[h]...)
		}
	}
	return &Snapshot{
		Format:  2,
		Version: st.version,
		Train:   train.Points,
		Test:    test.Points,
		Classes: train.Classes,
		Values:  append([]float64(nil), st.sv...),
		Heads:   heads,
		Samples: s.cfg.tau,
		Config:  snapshotConfig(s.cfg, train.Len()),
		Journal: &jst,
	}
}

// WriteTo serialises the snapshot as JSON.
func (sn *Snapshot) WriteTo(w io.Writer) (int64, error) {
	b, err := sn.encode()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

func (sn *Snapshot) encode() ([]byte, error) {
	b, err := json.MarshalIndent(sn, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dynshap: encoding snapshot: %w", err)
	}
	return b, nil
}

// Save writes the snapshot to the file at path. It encodes the whole
// snapshot first and then replaces the file in one rename, so a snapshot
// that fails to encode (JSON has no NaN) or a process killed mid-write
// leaves the previous file intact.
func (sn *Snapshot) Save(path string) error {
	b, err := sn.encode()
	if err != nil {
		return err
	}
	if err := atomicfile.Write(path, b, 0o666); err != nil {
		return fmt.Errorf("dynshap: %w", err)
	}
	return nil
}

// ReadSnapshot parses a JSON snapshot in format 1 or 2.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var sn Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&sn); err != nil {
		return nil, fmt.Errorf("dynshap: decoding snapshot: %w", err)
	}
	if sn.Format != 1 && sn.Format != 2 {
		return nil, fmt.Errorf("dynshap: unsupported snapshot format %d", sn.Format)
	}
	if len(sn.Values) != 0 && len(sn.Values) != len(sn.Train) {
		return nil, fmt.Errorf("dynshap: snapshot has %d values for %d points", len(sn.Values), len(sn.Train))
	}
	return &sn, nil
}

// LoadSnapshot reads a snapshot from the file at path.
func LoadSnapshot(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dynshap: %w", err)
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// Resume reconstructs a session from the snapshot. The returned session has
// the recorded values installed and is immediately usable for AlgoAuto,
// AlgoDelta, AlgoKNN, AlgoKNNPlus, AlgoBase and from-scratch updates;
// algorithms that need maintained structures (AlgoPivotSame/Different,
// AlgoYNNN) require a Refresh first. Format-2 snapshots restore the
// persisted configuration — including multi-delete candidates, workers and
// target error, which format 1 dropped — plus the journal, so History and
// ReplayTo keep working across the restart; explicit opts override the
// persisted configuration.
func (sn *Snapshot) Resume(trainer Trainer, opts ...Option) (*Session, error) {
	if len(sn.Values) != 0 && len(sn.Values) != len(sn.Train) {
		return nil, fmt.Errorf("dynshap: snapshot has %d values for %d points", len(sn.Values), len(sn.Train))
	}
	train := dataset.New(clonePoints(sn.Train))
	test := dataset.New(clonePoints(sn.Test))
	if sn.Classes > train.Classes {
		train.Classes = sn.Classes
	}
	if sn.Classes > test.Classes {
		test.Classes = sn.Classes
	}
	cfg := defaultConfig(train.Len())
	if sn.Samples > 0 {
		cfg.tau = sn.Samples
	}
	if sn.Config != nil {
		sn.Config.apply(&cfg)
	}
	for _, o := range opts {
		o(&cfg)
	}
	s := newSessionFromConfig(train, test, trainer, cfg)
	// The resumed state version comes from the journal, never from the
	// document's Version field: a mismatch between the two would corrupt the
	// append-only version sequence.
	version := 0
	if sn.Journal != nil {
		for i, u := range sn.Journal.Entries {
			if u.Version != i+1 {
				return nil, fmt.Errorf("dynshap: snapshot journal entry %d has version %d, want %d", i, u.Version, i+1)
			}
		}
		s.journal = journal.Restore(*sn.Journal)
		version = s.journal.LastVersion()
	} else if len(sn.Values) > 0 {
		// A format-1 snapshot has values but no history: record them as the
		// journal's base so ReplayTo(0) reproduces the resume point.
		s.journal = journal.New(train.Points, train.Classes, sn.Values)
	}
	if len(sn.Values) > 0 || version > 0 {
		// Re-order the snapshot's named head values into the resumed
		// config's head order so ValuesFor answers immediately; heads the
		// snapshot lacks resume empty and refill on the next sampled pass.
		var heads [][]float64
		if cfg.headCount() > 0 && sn.Heads != nil {
			heads = make([][]float64, cfg.headCount())
			for h, w := range cfg.semivalues {
				heads[h] = append([]float64(nil), sn.Heads[w.Key()]...)
			}
		}
		s.installBase(sn.Values, heads, version)
	}
	return s, nil
}

func clonePoints(pts []Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = p.Clone()
	}
	return out
}
