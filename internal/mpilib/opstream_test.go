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
	"Intel MPI/allgather": "b0b5a2d15834449c7e2c6a92bfa91fa0b80ee3d2ae7e7243069f9c7f963d7305",
	"Intel MPI/allreduce": "64421f31bb2081bd7979ebde8945387af738a365e9edad7d69c3b3effd95c95b",
	"Intel MPI/alltoall":  "66052cd61972715004c5cdc46487b7ebba036ff1ae50ec16b9d7b1f34b66e0be",
	"Intel MPI/bcast":     "7bf6d8f84780b7d74fc84bf6b4d895fc914b2a30f39da8a968adf4474fa784fc",
	"Intel MPI/gather":    "e1a7cdb00619f0fc259bc96fcc26c3b715964aa8b48a6826001d5441784ec664",
	"Intel MPI/reduce":    "ea8eba099fa938667347c297db95efa752dac7b4ea3207c1db31cd7722b86127",
	"Intel MPI/scatter":   "6637cc0af98c01ac740d338b8414521a189fb217fb782b26ee1f5a6a35df5601",
	"Open MPI/allgather":  "089d95aa9d646881b9ca8122a3330e5ddc953a070034ba2553fffe4edfc2f93b",
	"Open MPI/allreduce":  "5b9a8efad7ffdc8e2dd3b31e0fc2a02c0de7d69c1dc86696e6d4992922a82e67",
	"Open MPI/alltoall":   "8568a36ea03403c3fd7a327c5657128537bbf1f8c66fb96524361a6a687582db",
	"Open MPI/bcast":      "273c6e74ff2d3d5412a721b348232d3ae4aee783cc356b571a38d84f2f62415a",
	"Open MPI/gather":     "e1a7cdb00619f0fc259bc96fcc26c3b715964aa8b48a6826001d5441784ec664",
	"Open MPI/reduce":     "7669bf18f960ba9fb91e7ed418643f70ef180dab49e173f826779b782b5eacc3",
	"Open MPI/scatter":    "6637cc0af98c01ac740d338b8414521a189fb217fb782b26ee1f5a6a35df5601",
}

// opStreamTopos covers p = 1, p = 3, ppn > 1 under block and cyclic
// placement, and p = 16.
var opStreamTopos = []netmodel.Topology{
	{Nodes: 1, PPN: 1},
	{Nodes: 3, PPN: 1},
	{Nodes: 2, PPN: 3},
	{Nodes: 3, PPN: 2, Cyclic: true},
	{Nodes: 4, PPN: 4},
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
