//go:build unix

package atomicfile

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// Write leaves the permissions rewriting the file in place would: under a
// restrictive umask a new file is as private as os.WriteFile makes it, and
// a replaced file keeps the mode it had.
func TestWriteHonoursUmaskAndKeepsMode(t *testing.T) {
	defer syscall.Umask(syscall.Umask(0o077))
	dir := t.TempDir()
	path := filepath.Join(dir, "s.snap.json")
	mode := func() os.FileMode {
		t.Helper()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return info.Mode().Perm()
	}
	if err := Write(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := mode(); got != 0o600 {
		t.Fatalf("new file under umask 077 has mode %v, want 0600", got)
	}
	if err := os.Chmod(path, 0o640); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := mode(); got != 0o640 {
		t.Fatalf("replaced file has mode %v, want its previous 0640", got)
	}
}
