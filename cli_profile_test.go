package mpicollpred_test

import (
	"compress/gzip"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
)

// TestCLIsWriteProfiles runs mpicollserve, mpicollaudit, mpicolltrace and
// mpicollvet with -cpuprofile and -memprofile, and checks that each run
// writes both as non-empty pprof profiles. The server runs until SIGTERM,
// answers one selection into an audit log, and mpicollaudit summarizes that
// log.
func TestCLIsWriteProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs four binaries")
	}
	dir := t.TempDir()
	bin := func(name string) string {
		path := filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", path, "./cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", name, err, out)
		}
		return path
	}
	profiled := func(name string, args ...string) *exec.Cmd {
		args = append([]string{"-cpuprofile", filepath.Join(dir, name+".cpu"),
			"-memprofile", filepath.Join(dir, name+".mem")}, args...)
		return exec.Command(bin(name), args...)
	}
	run := func(name string, args ...string) {
		if out, err := profiled(name, args...).CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, out)
		}
	}

	snap := filepath.Join(dir, "d1-gam.snap")
	ds, err := dataset.LoadOrGenerate(filepath.Join(dir, "cache"), "d1", dataset.ScaleSmoke, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, set, err := ds.Spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	nodes := []int{2, 3, 4, 5}
	sel, err := core.Train(ds, set, "gam", nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := sel.SaveSnapshot(snap, core.FingerprintFor(ds, "gam", nodes)); err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	auditLog := filepath.Join(dir, "audit.jsonl")
	srv := profiled("mpicollserve", "-models", snap, "-addr", addr, "-audit", auditLog, "-quiet")
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()
	served := false
	for deadline := time.Now().Add(10 * time.Second); !served && time.Now().Before(deadline); {
		resp, err := http.Get("http://" + addr + "/v1/select?nodes=4&ppn=2&msize=4096")
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		resp.Body.Close()
		served = resp.StatusCode == http.StatusOK
	}
	if !served {
		t.Fatal("mpicollserve answered no selection")
	}
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("mpicollserve: %v", err)
	}

	run("mpicollaudit", "-log", auditLog, "-summary", "-out", filepath.Join(dir, "summary.txt"))
	run("mpicolltrace", "-coll", "bcast", "-config", "1", "-nodes", "2", "-ppn", "2",
		"-msize", "4096", "-o", filepath.Join(dir, "trace.json"), "-quiet")
	run("mpicollvet", "./internal/floats")

	for _, name := range []string{"mpicollserve", "mpicollaudit", "mpicolltrace", "mpicollvet"} {
		for _, ext := range []string{".cpu", ".mem"} {
			if err := checkProfile(filepath.Join(dir, name+ext)); err != nil {
				t.Errorf("%s%s: %v", name, ext, err)
			}
		}
	}
}

// checkProfile fails unless path holds a gzip stream with a non-empty body,
// the form of every pprof profile.
func checkProfile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	if len(body) == 0 {
		return io.ErrUnexpectedEOF
	}
	return nil
}
