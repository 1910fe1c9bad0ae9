package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// Write replaces the target and leaves no temporary file behind; a write
// into a missing directory fails without creating anything.
func TestWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.snap.json")
	for _, body := range []string{"first", "second, longer"} {
		if err := Write(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != body {
			t.Fatalf("read %q, want %q", got, body)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the target", len(entries))
	}
	if err := Write(filepath.Join(dir, "missing", "x"), []byte("x"), 0o644); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
