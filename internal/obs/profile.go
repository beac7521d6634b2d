package obs

import (
	"fmt"
	"os"
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
