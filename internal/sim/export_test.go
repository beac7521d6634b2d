package sim

// StoredOps returns the number of ops p keeps in its rank stores: each loop
// body counted once, however many times it runs.
func StoredOps(p *Program) int {
	n := 0
	for _, rp := range p.ranks {
		n += len(rp.ops)
	}
	return n
}
