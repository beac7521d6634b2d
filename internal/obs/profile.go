package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPUProfile starts writing a CPU profile to path, for `go tool pprof`.
// The returned stop function ends profiling and closes the file; the
// profile is complete once stop returns nil. An empty path profiles nothing
// and returns a no-op stop, so a CLI can call both unconditionally.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // nothing was written; the start error is the one to report
		return nil, fmt.Errorf("obs: cpu profile %s: %w", path, err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// StartMemProfile arranges for a heap profile to be written to path, for
// `go tool pprof`. The file is created now, so a bad path fails before the
// run; the returned stop function runs a garbage collection (so the profile
// reflects live memory at that point), writes the profile and closes the
// file. An empty path profiles nothing and returns a no-op stop.
func StartMemProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return func() error {
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			_ = f.Close() // the write error is the one to report
			return fmt.Errorf("obs: heap profile %s: %w", path, err)
		}
		return f.Close()
	}, nil
}
