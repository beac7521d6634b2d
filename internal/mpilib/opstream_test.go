package mpilib

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"mpicollpred/internal/netmodel"
)

// opStreamDigests pins the expanded op stream of every configuration of
// both libraries on opStreamTopos × opStreamSizes, verify mode on and off:
// the op count, and per rank every op's kind, peer and byte count and, in
// verify mode, the payload units it carries. They were recorded from the flat
// op lists the builder stored before it folded repeats into loops, so a
// change to how programs are stored must not move them; only a change to a
// schedule may.
var opStreamDigests = map[string]string{
	"Intel MPI/allgather": "546ce368062d5bdab8ad34866a3f62b9809bd6e31dce43b69c5f6400d0ccc249",
	"Intel MPI/allreduce": "81019be0d0556de566435eaf0b9fffc05d478fa8510df585d1171f1473da33a7",
	"Intel MPI/alltoall":  "fb326ee637b4a82c21a9b69ca6e350e60b599a7728b038f3dbb7c20886bc3a3f",
	"Intel MPI/bcast":     "0321c3189399999b7f67768a2bd05e6c5d03f1d9bd4f1ed853d9c6bafe9967b3",
	"Intel MPI/gather":    "d4e4c5845f981dc82676877ecfa6fa9ab617d274ec8461bafb78fa4e4403a845",
	"Intel MPI/reduce":    "95a5917aec00d9916557a593e37fbed36cbcb60628d4590af2ba672d250efa25",
	"Intel MPI/scatter":   "4fc168734534d72bc485072939a8cecba1998ddfe8880867ef86bb449a9f6647",
	"Open MPI/allgather":  "3f21545bfb75d5338d330ae38def3e73c27aba2fb0995d78be04ed08a5a82d32",
	"Open MPI/allreduce":  "82382869080065c7ed4524ae76b55dd94c8273f83cd07e0cd0efe6b385442a28",
	"Open MPI/alltoall":   "aa9173dcdcd6dd72f214eac3a29fc94f03d7bb505f876cb0f9e94107eb386e3f",
	"Open MPI/bcast":      "7991addaf57dfd11a320e8e7f8f41fa31381227af76559ef173f58418b0e7671",
	"Open MPI/gather":     "d4e4c5845f981dc82676877ecfa6fa9ab617d274ec8461bafb78fa4e4403a845",
	"Open MPI/reduce":     "5fc159d7d616d4dc122d77ebf9bcf92740e7edc1f241d450a154e22a82fb0ba2",
	"Open MPI/scatter":    "4fc168734534d72bc485072939a8cecba1998ddfe8880867ef86bb449a9f6647",
}

// opStreamTopos covers p = 1, p = 3, ppn > 1 under block and cyclic
// placement, and p = 16. p = 7 folds three extra ranks into a doubling group
// of four and splits six chain members unevenly; seven cyclic node leaders
// fold three as well.
var opStreamTopos = []netmodel.Topology{
	{Nodes: 1, PPN: 1},
	{Nodes: 3, PPN: 1},
	{Nodes: 2, PPN: 3},
	{Nodes: 3, PPN: 2, Cyclic: true},
	{Nodes: 4, PPN: 4},
	{Nodes: 7, PPN: 1},
	{Nodes: 7, PPN: 2, Cyclic: true},
}

// opStreamSizes: empty, one byte, a size that is no multiple of any
// segment size in either portfolio, and 4 MiB.
var opStreamSizes = []int64{0, 1, 100003, 4 << 20}

func TestOpStreamsPinned(t *testing.T) {
	got := map[string]string{}
	var buf []byte
	for _, lib := range Libraries() {
		for _, collName := range lib.Collectives() {
			s, _ := lib.Collective(collName)
			h := sha256.New()
			for _, c := range s.Configs {
				for _, topo := range opStreamTopos {
					for _, m := range opStreamSizes {
						for _, verify := range []bool{false, true} {
							prog := BuildProgram(c, topo, m, verify)
							fmt.Fprintf(h, "%d|%+v|%d|%t|%d|%d\n", c.ID, topo, m, verify, prog.NumRanks(), prog.NumOps())
							for r := 0; r < prog.NumRanks(); r++ {
								ops := prog.Expand(r)
								buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(ops)))
								for _, op := range ops {
									buf = append(buf, byte(op.Kind))
									buf = binary.LittleEndian.AppendUint32(buf, uint32(op.Peer))
									buf = binary.LittleEndian.AppendUint32(buf, op.Bytes)
									buf = binary.LittleEndian.AppendUint16(buf, uint16(op.PayLen))
									if op.PayLen > 0 {
										for _, u := range prog.Pay[op.PayStart : op.PayStart+int32(op.PayLen)] {
											buf = binary.LittleEndian.AppendUint32(buf, uint32(u.Block))
											buf = binary.LittleEndian.AppendUint64(buf, u.Mask)
										}
									}
								}
								h.Write(buf)
							}
						}
					}
				}
			}
			got[lib.Name+"/"+collName] = hex.EncodeToString(h.Sum(nil))
		}
	}
	for key, d := range got {
		if want := opStreamDigests[key]; d != want {
			t.Errorf("%s: op-stream digest %s, want %s", key, d, want)
		}
	}
	if len(got) != len(opStreamDigests) {
		t.Errorf("%d digests computed, %d pinned", len(got), len(opStreamDigests))
	}
}
