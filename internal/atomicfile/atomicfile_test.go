package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	for _, want := range []string{"first", "second"} {
		if err := WriteBytes(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("read %q (%v), want %q", got, err, want)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left after a write: %v", err)
	}
}

// TestFailedWriteLeavesPathUntouched: a write that fails, in the callback or
// at the rename, removes its tmp file and keeps what was at path.
func TestFailedWriteLeavesPathUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := WriteBytes(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("torn")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing callback returned %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("path holds %q after a failed write", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left after a failed write: %v", err)
	}

	// A failed rename (the target is a directory) leaves no tmp file.
	if err := WriteBytes(dir, []byte("x")); err == nil {
		t.Fatal("writing over a directory succeeded")
	}
	if _, err := os.Stat(dir + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left after a failed rename: %v", err)
	}
}
