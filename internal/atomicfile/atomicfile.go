// Package atomicfile replaces files whole: the new contents go to a
// temporary file beside the target, which is renamed over the target only
// once it is complete. A reader of the target sees the old file or the new
// one, never a truncated or half-written one.
package atomicfile

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
)

// Write replaces the file at path with data. The permissions are those
// rewriting the file in place would leave: an existing target's mode is
// kept, and a new file gets perm less the process umask. The temporary
// file is named ".<base>.tmp-<random>" in path's directory, so its name
// never ends in the target's own suffix. When any step fails the temporary
// file is removed and path keeps its previous contents. Write does not
// fsync: it protects against a failed write or a killed process, not
// against losing power.
func Write(path string, data []byte, perm os.FileMode) error {
	old, statErr := os.Stat(path)
	f, err := createTemp(path, perm)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if statErr == nil {
		err = f.Chmod(old.Mode().Perm())
	}
	if err == nil {
		_, err = f.Write(data)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// createTemp creates a new file named ".<base>.tmp-<random>" beside path,
// with permissions perm less the umask, retrying on a name collision.
func createTemp(path string, perm os.FileMode) (*os.File, error) {
	dir, base := filepath.Split(path)
	for try := 0; ; try++ {
		name := filepath.Join(dir, "."+base+".tmp-"+strconv.FormatUint(rand.Uint64(), 36))
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, perm)
		if os.IsExist(err) && try < 100 {
			continue
		}
		return f, err
	}
}
