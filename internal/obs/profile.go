package obs

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts a CPU profile written to cpu and arranges for a heap
// profile to be written to mem, both for `go tool pprof`. Both files are
// created now, so a bad path fails before the run. The returned stop
// function ends the CPU profile, then runs a garbage collection (so the heap
// profile reflects live memory at that point), writes the heap profile and
// closes both files; the profiles are complete once stop returns nil. An
// empty path skips that profile, so a CLI can call StartProfiles
// unconditionally. A CLI that exits through os.Exit must call stop first.
func StartProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuFile, memFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			_ = cpuFile.Close() // nothing was written; the start error is the one to report
			return nil, fmt.Errorf("obs: cpu profile %s: %w", cpu, err)
		}
	}
	if mem != "" {
		if memFile, err = os.Create(mem); err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				_ = cpuFile.Close() // the create error is the one to report
			}
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpuFile.Close())
		}
		if memFile != nil {
			runtime.GC()
			if err := pprof.WriteHeapProfile(memFile); err != nil {
				errs = append(errs, fmt.Errorf("obs: heap profile %s: %w", mem, err))
			}
			errs = append(errs, memFile.Close())
		}
		return errors.Join(errs...)
	}, nil
}
