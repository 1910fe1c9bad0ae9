package core

import (
	"encoding/gob"
	"fmt"
	"io"
)

// The maintained structures are expensive to rebuild — a preprocessing pass
// costs τ·n model trainings — so brokers persist them across restarts.
// Encoding is gob with versioned wire structs; all entry points validate
// invariants on load so a corrupted file fails loudly rather than producing
// silently wrong valuations.

const wireVersion = 1

// Perms travels as int32, the width PivotState stores. gob sends integers
// width-free, so files written when it was [][]int decode into it (an id
// out of int32's range fails the decode), and these decode as [][]int.
type pivotWire struct {
	Version int
	SV, LSV []float64
	Tau     int
	Perms   [][]int32
	Slots   []int
}

// Encode serialises the pivot state (including stored permutations, when
// present).
func (st *PivotState) Encode(w io.Writer) error {
	wire := pivotWire{
		Version: wireVersion,
		SV:      st.SV,
		LSV:     st.LSV,
		Tau:     st.Tau,
		Perms:   st.perms,
		Slots:   st.slots,
	}
	if err := gob.NewEncoder(w).Encode(&wire); err != nil {
		return fmt.Errorf("core: encoding pivot state: %w", err)
	}
	return nil
}

// ReadPivotState deserialises a pivot state written by Encode.
func ReadPivotState(r io.Reader) (*PivotState, error) {
	var wire pivotWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: decoding pivot state: %w", err)
	}
	if wire.Version != wireVersion {
		return nil, fmt.Errorf("core: unsupported pivot state version %d", wire.Version)
	}
	if len(wire.SV) != len(wire.LSV) {
		return nil, fmt.Errorf("core: pivot state SV/LSV length mismatch (%d vs %d)", len(wire.SV), len(wire.LSV))
	}
	if err := checkStoredPerms(len(wire.SV), wire.Tau, wire.Perms, wire.Slots); err != nil {
		return nil, err
	}
	return &PivotState{
		SV:    wire.SV,
		LSV:   wire.LSV,
		Tau:   wire.Tau,
		perms: wire.Perms,
		slots: wire.Slots,
	}, nil
}

// checkStoredPerms validates a pivot state's stored permutations against
// its n players: one slot per permutation, each permutation a permutation
// of 0..n−1, each slot in [0, n], and Tau counting the permutations — the
// invariants Initialize establishes and every Pivot-s pass keeps. The
// passes index by these values unchecked, so a corrupt entry would panic
// mid-pass or skew the values silently.
func checkStoredPerms(n, tau int, perms [][]int32, slots []int) error {
	if len(perms) != len(slots) {
		return fmt.Errorf("core: pivot state holds %d permutations but %d slots", len(perms), len(slots))
	}
	if perms == nil {
		return nil
	}
	if tau != len(perms) {
		return fmt.Errorf("core: pivot state Tau is %d but it holds %d permutations", tau, len(perms))
	}
	seen := make([]int, n) // seen[q] == i+1: permutation i holds q
	for i, p := range perms {
		if len(p) != n {
			return fmt.Errorf("core: pivot state permutation %d has %d entries, want %d", i, len(p), n)
		}
		for _, q := range p {
			if q < 0 || int(q) >= n || seen[q] == i+1 {
				return fmt.Errorf("core: pivot state permutation %d is not a permutation of 0..%d (entry %d)", i, n-1, q)
			}
			seen[q] = i + 1
		}
		if s := slots[i]; s < 0 || s > n {
			return fmt.Errorf("core: pivot state slot %d is %d, outside [0,%d]", i, s, n)
		}
	}
	return nil
}

type deletionWire struct {
	Version int
	N       int
	Tau     int
	Exact   bool
	// Backend names the storage backend the store was using (empty in
	// pre-backend files, which decode as dense — gob tolerates the added
	// field in both directions).
	Backend string
	SV      []float64
	YN, NN  []float64
}

// Encode serialises the YN-NN arrays. Size on disk is ~16·n³ bytes —
// 16 MB at n = 100, matching the in-memory footprint of Table IX. The
// arrays always travel as float64 regardless of backend; the backend kind
// is recorded so loading restores the same storage class.
func (ds *DeletionStore) Encode(w io.Writer) error {
	wire := deletionWire{
		Version: wireVersion,
		N:       ds.n,
		Tau:     ds.tau,
		Exact:   ds.exact,
		Backend: ds.Backend().String(),
		SV:      ds.SV,
		YN:      ds.yn,
		NN:      ds.nn,
	}
	if ds.yn == nil {
		wire.YN = ds.ynB.export()
		wire.NN = ds.nnB.export()
	}
	if err := gob.NewEncoder(w).Encode(&wire); err != nil {
		return fmt.Errorf("core: encoding deletion store: %w", err)
	}
	return nil
}

// ReadDeletionStore deserialises a store written by Encode. Dense stores
// adopt the decoded arrays directly (the historic zero-copy path); float32
// backends are rebuilt and reloaded. A spill store loads as the in-memory
// tiled float32 backend — the scratch file is process-private and gone,
// and the caller (the session) re-spills on its next rebuild if configured
// to.
func ReadDeletionStore(r io.Reader) (*DeletionStore, error) {
	var wire deletionWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: decoding deletion store: %w", err)
	}
	if wire.Version != wireVersion {
		return nil, fmt.Errorf("core: unsupported deletion store version %d", wire.Version)
	}
	n := wire.N
	want := n * n * (n + 1)
	if n < 0 || len(wire.YN) != want || len(wire.NN) != want || len(wire.SV) != n {
		return nil, fmt.Errorf("core: deletion store dimensions corrupt (n=%d, yn=%d, nn=%d, sv=%d)",
			n, len(wire.YN), len(wire.NN), len(wire.SV))
	}
	kind, err := ParseBackendKind(wire.Backend)
	if err != nil {
		return nil, err
	}
	ds := &DeletionStore{
		SV:    wire.SV,
		n:     n,
		tau:   wire.Tau,
		exact: wire.Exact,
	}
	if kind == BackendDense64 {
		ds.ynB = &dense64{v: wire.YN}
		ds.nnB = &dense64{v: wire.NN}
		ds.yn, ds.nn = wire.YN, wire.NN
		return ds, nil
	}
	ds.store = StoreConfig{Kind: BackendTiled32}
	ds.ynB = newTiled32(want, n*(n+1))
	ds.nnB = newTiled32(want, n*(n+1))
	ds.ynB.load(wire.YN)
	ds.nnB.load(wire.NN)
	return ds, nil
}

type multiDeletionWire struct {
	Version    int
	N, D, Tau  int
	Exact      bool
	Backend    string
	Candidates []int
	SV         []float64
	Y, NN      []float64
}

// Encode serialises the YNN-NNN arrays (always as float64; the backend
// kind travels alongside, as in the YN-NN wire format).
func (ms *MultiDeletionStore) Encode(w io.Writer) error {
	wire := multiDeletionWire{
		Version:    wireVersion,
		N:          ms.n,
		D:          ms.d,
		Tau:        ms.tau,
		Exact:      ms.exact,
		Backend:    ms.Backend().String(),
		Candidates: ms.candidates,
		SV:         ms.SV,
		Y:          ms.y,
		NN:         ms.nn,
	}
	if ms.y == nil {
		wire.Y = ms.yB.export()
		wire.NN = ms.nnB.export()
	}
	if err := gob.NewEncoder(w).Encode(&wire); err != nil {
		return fmt.Errorf("core: encoding multi-deletion store: %w", err)
	}
	return nil
}

// ReadMultiDeletionStore deserialises a store written by Encode. The tuple
// index is rebuilt from the candidate set, so only the raw arrays travel.
// Spill stores load as in-memory tiled float32 (see ReadDeletionStore).
func ReadMultiDeletionStore(r io.Reader) (*MultiDeletionStore, error) {
	var wire multiDeletionWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: decoding multi-deletion store: %w", err)
	}
	if wire.Version != wireVersion {
		return nil, fmt.Errorf("core: unsupported multi-deletion store version %d", wire.Version)
	}
	kind, err := ParseBackendKind(wire.Backend)
	if err != nil {
		return nil, err
	}
	cfg := StoreConfig{}
	if kind != BackendDense64 {
		cfg.Kind = BackendTiled32
	}
	ms, err := NewMultiDeletionStoreWith(wire.N, wire.D, wire.Candidates, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding multi-deletion store: %w", err)
	}
	want := wire.N * len(ms.tuples) * (wire.N + 1)
	if len(wire.Y) != want || len(wire.NN) != want || len(wire.SV) != wire.N {
		return nil, fmt.Errorf("core: multi-deletion store dimensions corrupt")
	}
	if ms.y != nil {
		// Dense: adopt the decoded arrays directly (historic zero-copy path).
		ms.yB = &dense64{v: wire.Y}
		ms.nnB = &dense64{v: wire.NN}
		ms.y, ms.nn = wire.Y, wire.NN
	} else {
		ms.yB.load(wire.Y)
		ms.nnB.load(wire.NN)
	}
	ms.SV = wire.SV
	ms.tau = wire.Tau
	ms.exact = wire.Exact
	return ms, nil
}
