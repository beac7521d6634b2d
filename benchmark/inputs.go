package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"

	"mpicollpred/internal/dataset"
	"mpicollpred/internal/sim"
)

// cacheDir holds the committed mid-scale datasets all workloads start from.
const cacheDir = "results/cache"

// readDataset loads a committed mid-scale dataset the way the program's
// loader does (dataset.LoadOrGenerate without its generate fallback): parse
// the CSV, then quarantine malformed rows.
func readDataset(tr *tracer, name string) (*dataset.Dataset, error) {
	end := tr.start("dataset.read")
	data, err := os.ReadFile(dataset.CachePath(cacheDir, name, dataset.ScaleMid, ""))
	if err != nil {
		end()
		return nil, err
	}
	ds, err := dataset.ReadCSV(bytes.NewReader(data))
	if err == nil {
		ds.Quarantine()
	}
	end()
	if err != nil {
		return nil, fmt.Errorf("dataset %s: %w", name, err)
	}
	tr.add("dataset.rows", float64(len(ds.Samples)))
	tr.add("dataset.bytes", float64(len(data)))
	return ds, nil
}

// perturbSigma is the spread of the per-row lognormal factor seeds other
// than 1 apply to measured times.
const perturbSigma = 0.05

// perturb derives a workload's input dataset from a committed one. Seed 1
// keeps the committed times; any other seed multiplies each time by a
// lognormal factor keyed by (seed, dataset, row). Either way the dataset is
// rebuilt through the CSV codec, so the program sees an ordinary dataset and
// every seed pays the same set-up cost.
func perturb(ds *dataset.Dataset, seed uint64) (*dataset.Dataset, error) {
	cp := *ds
	cp.Samples = append([]dataset.Sample(nil), ds.Samples...)
	if seed != 1 {
		key := nameKey(ds.Spec.Name)
		for i := range cp.Samples {
			rng := sim.NewRNG(sim.Seed(seed, key, uint64(i)))
			cp.Samples[i].Time *= math.Exp(perturbSigma * rng.Norm())
		}
	}
	return rebuild(&cp)
}

// rebuild round-trips a dataset through WriteCSV/ReadCSV, which also
// reconstructs its grids and lookup index from the samples.
func rebuild(ds *dataset.Dataset) (*dataset.Dataset, error) {
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return dataset.ReadCSV(&buf)
}

// nameKey hashes a dataset name into a seed component.
func nameKey(name string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name)) // hash.Hash never fails
	return h.Sum64()
}

// digest fingerprints a sequence of integers (decisions, configuration ids)
// so a whole table of outputs can be compared against a golden value.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(vals ...int64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		_, _ = d.h.Write(buf[:]) // hash.Hash never fails
	}
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }
