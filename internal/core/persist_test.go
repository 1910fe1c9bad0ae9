package core

import (
	"bytes"
	"testing"

	"dynshap/internal/game"
	"dynshap/internal/rng"
)

func TestPivotStateRoundTrip(t *testing.T) {
	gPlus := tableGame{n: 6, seed: 101}
	gD := restrictFirst(gPlus, 5)
	st := pivotInit(gD, 200, true, rng.New(1))

	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPivotState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(back.SV, st.SV) != 0 || maxAbsDiff(back.LSV, st.LSV) != 0 || back.Tau != st.Tau {
		t.Fatal("round trip changed scalar state")
	}
	if !back.HasPermutations() {
		t.Fatal("round trip lost permutations")
	}
	// The restored state must be functionally identical: same AddSame result.
	a, err := st.AddSame(gPlus, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.AddSame(gPlus, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(a, b) != 0 {
		t.Fatal("restored pivot state behaves differently")
	}
}

func TestPivotStateRoundTripWithoutPerms(t *testing.T) {
	gD := tableGame{n: 5, seed: 102}
	st := pivotInit(gD, 50, false, rng.New(3))
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPivotState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.HasPermutations() {
		t.Fatal("permutations materialised from nowhere")
	}
}

func TestDeletionStoreRoundTrip(t *testing.T) {
	g := tableGame{n: 7, seed: 103}
	ds := PreprocessDeletion(g, 500, rng.New(4))
	var buf bytes.Buffer
	if err := ds.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDeletionStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 7; p++ {
		a, err := ds.Merge(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Merge(p)
		if err != nil {
			t.Fatal(err)
		}
		if maxAbsDiff(a, b) != 0 {
			t.Fatalf("restored store merges differently at p=%d", p)
		}
	}
	if back.Tau() != ds.Tau() || back.N() != ds.N() {
		t.Fatal("metadata lost")
	}
}

func TestDeletionStoreExactFlagSurvives(t *testing.T) {
	g := tableGame{n: 5, seed: 104}
	ds := PreprocessDeletionExact(g)
	var buf bytes.Buffer
	if err := ds.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDeletionStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ds.Merge(2)
	b, _ := back.Merge(2)
	if maxAbsDiff(a, b) != 0 {
		t.Fatal("exact-mode store merges differently after round trip")
	}
}

func TestMultiDeletionStoreRoundTrip(t *testing.T) {
	g := tableGame{n: 8, seed: 105}
	ms, err := PreprocessMultiDeletion(g, 2, []int{1, 3, 6}, 500, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ms.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMultiDeletionStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ms.Merge(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Merge(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(a, b) != 0 {
		t.Fatal("restored multi store merges differently")
	}
}

func TestReadPivotStateCorrupt(t *testing.T) {
	if _, err := ReadPivotState(bytes.NewBufferString("junk")); err == nil {
		t.Fatal("junk input should fail")
	}
}

func TestReadDeletionStoreCorrupt(t *testing.T) {
	if _, err := ReadDeletionStore(bytes.NewBufferString("junk")); err == nil {
		t.Fatal("junk input should fail")
	}
	// Valid gob, inconsistent dimensions.
	ds := NewDeletionStore(3)
	var buf bytes.Buffer
	if err := ds.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncate arrays by rewriting with a mangled wire struct.
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff
	if _, err := ReadDeletionStore(bytes.NewReader(raw)); err == nil {
		t.Log("mangled payload decoded (gob is permissive); dimension checks must hold elsewhere")
	}
}

func TestReadMultiDeletionStoreCorrupt(t *testing.T) {
	if _, err := ReadMultiDeletionStore(bytes.NewBufferString("junk")); err == nil {
		t.Fatal("junk input should fail")
	}
}

func TestRestoredStoreUsableForGame(t *testing.T) {
	// End-to-end: preprocess, persist, restart, merge — values match exact.
	g := tableGame{n: 6, seed: 106}
	ds := PreprocessDeletionExact(g)
	var buf bytes.Buffer
	if err := ds.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDeletionStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Merge(4)
	if err != nil {
		t.Fatal(err)
	}
	want := expandDeleted(Exact(game.NewRestrict(g, 4)), 6, 4)
	if d := maxAbsDiff(got, want); d > 1e-10 {
		t.Fatalf("restored exact store wrong by %v", d)
	}
}
