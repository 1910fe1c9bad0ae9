package core

import "fmt"

// This file is the storage layer behind the deletion stores' utility
// arrays. The YN-NN store is O(n²·m) and YNN-NNN is O(n^{d+2}) — dense
// float64 slices cap the delete-capable session near n≈300, so the arrays
// sit behind a small backend interface with three implementations:
//
//   - dense64: the historic contiguous []float64. Default, exact, and
//     bit-identical to the pre-interface stores at every worker count.
//   - tiled32: float32 entries in row-aligned tiles — half the bytes per
//     entry. Reads promote to float64 and the Merge recurrence runs a
//     Neumaier-compensated float64 reduction per row, so the only error
//     sources are float32 rounding of the accumulated sums (bounded; see
//     DESIGN.md §15 for the tolerance contract).
//   - spill32: the tiled32 layout backed by an mmap'd file, for stores
//     larger than RAM. Tile-granular dirty tracking lets Flush write back
//     only touched tiles; the heap holds bookkeeping only.
//
// Tiles never straddle a first-axis row. The engine's stripe workers each
// own a contiguous row range [lo, hi), so row-aligned tiles guarantee each
// tile has exactly ONE writing goroutine — dirty flags need no atomics and
// the fill stays lock-free. Entries within a row are written in
// permutation-walk order by that single owner, which is why every backend
// (not just dense64) is bit-identical to its own serial fill at any worker
// count.

// BackendKind selects the storage implementation behind a deletion store.
type BackendKind int

const (
	// BackendDense64 is the historic dense float64 array: exact, and the
	// default everywhere.
	BackendDense64 BackendKind = iota
	// BackendTiled32 stores float32 entries in row-aligned tiles: half the
	// memory, bounded rounding drift (see DESIGN.md §15).
	BackendTiled32
	// BackendSpill32 is the tiled float32 layout in an mmap'd file: the
	// store no longer needs to fit in RAM.
	BackendSpill32
)

// String returns the backend's wire/config name.
func (k BackendKind) String() string {
	switch k {
	case BackendTiled32:
		return "tiled32"
	case BackendSpill32:
		return "spill32"
	default:
		return "dense64"
	}
}

// ParseBackendKind is the inverse of String. The empty string parses as
// the dense default so zero-valued configs round-trip.
func ParseBackendKind(s string) (BackendKind, error) {
	switch s {
	case "", "dense64":
		return BackendDense64, nil
	case "tiled32":
		return BackendTiled32, nil
	case "spill32":
		return BackendSpill32, nil
	default:
		return BackendDense64, fmt.Errorf("core: unknown store backend %q", s)
	}
}

// StoreConfig selects the storage backend for the deletion stores built by
// an initialisation pass. The zero value is the exact dense default.
type StoreConfig struct {
	// Kind picks the implementation.
	Kind BackendKind
	// SpillDir is the directory for BackendSpill32's mmap files (the
	// process's temp dir when empty). Ignored by the in-memory backends.
	SpillDir string
}

// storeBackend is one utility array (YN, NN, Y or NNN) behind a deletion
// store. Implementations are NOT safe for concurrent writes to the same
// entry; the stores guarantee single-writer entries via row striping.
type storeBackend interface {
	// at reads entry idx (flat layout, identical to the historic slices).
	at(idx int) float64
	// add accumulates v into entry idx.
	add(idx int, v float64)
	// scale multiplies every entry by f (the finishSampled normalisation).
	scale(f float64)
	// logicalBytes is the store's data footprint (heap or file).
	logicalBytes() int64
	// heapBytes is the heap-resident share of logicalBytes plus
	// bookkeeping — what the process actually pays in RAM it cannot evict.
	heapBytes() int64
	// backendKind identifies the implementation.
	backendKind() BackendKind
	// export copies the array out as float64, for persistence.
	export() []float64
	// load overwrites the array from a float64 slice of equal length.
	load(vals []float64)
	// flush writes dirty tiles back to stable storage (no-op in memory).
	flush() error
	// close releases non-heap resources (mmap, spill file).
	close() error
}

// newBackend builds one array of the given entry count. rowLen is the
// number of entries per first-axis row — the striping unit tiles must not
// straddle.
func newBackend(entries, rowLen int, cfg StoreConfig) (storeBackend, error) {
	switch cfg.Kind {
	case BackendTiled32:
		return newTiled32(entries, rowLen), nil
	case BackendSpill32:
		return newSpill32(entries, rowLen, cfg.SpillDir)
	default:
		return &dense64{v: make([]float64, entries)}, nil
	}
}

// dense64 is the historic dense float64 array.
type dense64 struct{ v []float64 }

func (d *dense64) at(idx int) float64       { return d.v[idx] }
func (d *dense64) add(idx int, x float64)   { d.v[idx] += x }
func (d *dense64) logicalBytes() int64      { return int64(len(d.v)) * 8 }
func (d *dense64) heapBytes() int64         { return d.logicalBytes() }
func (d *dense64) backendKind() BackendKind { return BackendDense64 }
func (d *dense64) flush() error             { return nil }
func (d *dense64) close() error             { return nil }

func (d *dense64) scale(f float64) {
	for i := range d.v {
		d.v[i] *= f
	}
}

func (d *dense64) export() []float64 {
	return append([]float64(nil), d.v...)
}

func (d *dense64) load(vals []float64) {
	copy(d.v, vals)
}

// tileEntries is the tile size in entries: 1<<16 float32 = 256 KiB, small
// enough that a dirty tile flush stays fine-grained and a tile fits
// comfortably in L2 during merges, large enough that per-tile bookkeeping
// is negligible against the data.
const tileEntries = 1 << 16

// tileLayout maps the stores' flat index space onto row-aligned tiles.
// Rows are split into ⌈rowLen/tileEntries⌉ tiles; the last tile of each
// row is short. entries must be a multiple of rowLen.
type tileLayout struct {
	entries, rowLen, tilesPerRow int
}

func newTileLayout(entries, rowLen int) tileLayout {
	l := tileLayout{entries: entries, rowLen: rowLen, tilesPerRow: 1}
	if rowLen > tileEntries {
		l.tilesPerRow = (rowLen + tileEntries - 1) / tileEntries
	}
	return l
}

// numTiles is the total tile count.
func (l tileLayout) numTiles() int {
	if l.rowLen == 0 {
		return 0
	}
	return l.entries / l.rowLen * l.tilesPerRow
}

// tileOf returns the tile holding flat index idx.
func (l tileLayout) tileOf(idx int) int {
	row := idx / l.rowLen
	off := idx - row*l.rowLen
	return row*l.tilesPerRow + off/tileEntries
}

// tileSpan returns tile t's flat [start, end) entry range.
func (l tileLayout) tileSpan(t int) (start, end int) {
	row := t / l.tilesPerRow
	k := t - row*l.tilesPerRow
	start = row*l.rowLen + k*tileEntries
	end = start + tileEntries
	if limit := (row + 1) * l.rowLen; end > limit {
		end = limit
	}
	return start, end
}

// tiled32 stores float32 entries in independently allocated row-aligned
// tiles. Half the bytes of dense64; accumulation rounds each running sum
// to float32 (the documented drift), reads promote back to float64.
type tiled32 struct {
	layout tileLayout
	tiles  [][]float32
}

func newTiled32(entries, rowLen int) *tiled32 {
	l := newTileLayout(entries, rowLen)
	b := &tiled32{layout: l, tiles: make([][]float32, l.numTiles())}
	for t := range b.tiles {
		start, end := l.tileSpan(t)
		b.tiles[t] = make([]float32, end-start)
	}
	return b
}

func (b *tiled32) locate(idx int) (tile []float32, slot int) {
	row := idx / b.layout.rowLen
	off := idx - row*b.layout.rowLen
	k := off / tileEntries
	return b.tiles[row*b.layout.tilesPerRow+k], off - k*tileEntries
}

func (b *tiled32) at(idx int) float64 {
	tile, s := b.locate(idx)
	return float64(tile[s])
}

func (b *tiled32) add(idx int, x float64) {
	tile, s := b.locate(idx)
	tile[s] = float32(float64(tile[s]) + x)
}

func (b *tiled32) scale(f float64) {
	for _, tile := range b.tiles {
		for i := range tile {
			tile[i] = float32(float64(tile[i]) * f)
		}
	}
}

func (b *tiled32) logicalBytes() int64      { return int64(b.layout.entries) * 4 }
func (b *tiled32) heapBytes() int64         { return b.logicalBytes() }
func (b *tiled32) backendKind() BackendKind { return BackendTiled32 }
func (b *tiled32) flush() error             { return nil }
func (b *tiled32) close() error             { return nil }

func (b *tiled32) export() []float64 {
	out := make([]float64, 0, b.layout.entries)
	for _, tile := range b.tiles {
		for _, v := range tile {
			out = append(out, float64(v))
		}
	}
	return out
}

func (b *tiled32) load(vals []float64) {
	i := 0
	for _, tile := range b.tiles {
		for s := range tile {
			tile[s] = float32(vals[i])
			i++
		}
	}
}

// neumaierSum is a compensated (Neumaier/Kahan–Babuška) float64
// accumulator: the running compensation recovers the low-order bits a
// plain sum drops, so the float32 backends' Merge reduction loses nothing
// beyond the storage rounding itself.
type neumaierSum struct {
	sum, c float64
}

func (a *neumaierSum) add(x float64) {
	t := a.sum + x
	if abs(a.sum) >= abs(x) {
		a.c += (a.sum - t) + x
	} else {
		a.c += (x - t) + a.sum
	}
	a.sum = t
}

func (a *neumaierSum) value() float64 { return a.sum + a.c }
