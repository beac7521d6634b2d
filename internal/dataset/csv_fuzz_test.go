package dataset

import (
	"bytes"
	"testing"
)

// FuzzReadCSV asserts ReadCSV never panics and never returns a half-parsed
// dataset: either it errors, or every sample it admits parses back through
// the writer.
func FuzzReadCSV(f *testing.F) {
	// Seed corpus: a valid file, and the malformed shapes the parser must
	// reject gracefully, the 7-column layout of early caches among them.
	f.Add([]byte("#meta,d1,Open MPI,4.0.2,bcast,Hydra,1.5\n" +
		"config_id,alg_id,nodes,ppn,msize,time_s,reps,consumed_s,exhausted\n" +
		"1,1,4,8,1024,0.002,5,0.01,false\n" +
		"2,2,4,8,1024,0.004,2,0.008,true\n"))
	f.Add([]byte("#meta,d3,Open MPI,4.0.2,bcast,Jupiter,0\n" +
		"config_id,alg_id,nodes,ppn,msize,time_s,reps\n" +
		"1,1,4,8,1024,0.002,5\n"))
	f.Add([]byte(""))
	f.Add([]byte("#meta,d1,Open MPI,4.0.2,bcast,Hydra,1.5\n"))
	f.Add([]byte("#meta,d1,Open MPI,4.0.2,bcast,Hydra,NaN\n" +
		"config_id,alg_id,nodes,ppn,msize,time_s,reps,consumed_s,exhausted\n"))
	f.Add([]byte("not,a,dataset\n1,2,3\n"))
	f.Add([]byte("#meta,d1,Open MPI,4.0.2,bcast,Hydra,1.5\n" +
		"config_id,alg_id,nodes,ppn,msize,time_s,reps,consumed_s,exhausted\n" +
		"1,1,4,8\n"))
	f.Add([]byte("#meta,d1,Open MPI,4.0.2,bcast,Hydra,1.5\n" +
		"config_id,alg_id,nodes,ppn,msize,time_s,reps,consumed_s,exhausted\n" +
		"one,1,4,8,1024,0.002,5,0.01,false\n"))
	f.Add([]byte("#meta,d1,Open MPI,4.0.2,bcast,Hydra,1.5\n" +
		"config_id,alg_id,nodes,ppn,msize,time_s,reps,consumed_s,exhausted\n" +
		"1,1,4,8,1024,not-a-float,5,0.01,false\n"))
	f.Add([]byte("\x00\xff\xfe"))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must survive a write/read round trip.
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted dataset failed to serialize: %v", err)
		}
		d2, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted dataset failed: %v", err)
		}
		if len(d2.Samples) != len(d.Samples) {
			t.Fatalf("round trip lost samples: %d vs %d", len(d2.Samples), len(d.Samples))
		}
		// Validation and quarantine must not panic on arbitrary admitted data.
		d.Quarantine()
	})
}
