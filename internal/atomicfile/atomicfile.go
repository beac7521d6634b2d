// Package atomicfile writes files crash-safely: readers of a path see
// either its previous content or the complete new one, never a torn write.
package atomicfile

import (
	"io"
	"os"
)

// Write writes path through write. The bytes go to path+".tmp", which is
// synced and closed before it is renamed over path; on any failure the tmp
// file is removed and whatever was at path is left untouched.
func Write(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
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

// WriteBytes writes data to path through Write.
func WriteBytes(path string, data []byte) error {
	return Write(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
