package sim

// Mixture is a discrete latency distribution: value i is drawn with
// probability weight i / sum(weights).  The memory system uses mixtures to
// model DRAM row-buffer behaviour (row hit / row miss / row conflict),
// which is what spreads the cold-cache CDFs of Figure 2 over the
// 12,500-17,000 cycle range.
type Mixture struct {
	Values  []float64
	Weights []float64
}

// Sample draws one value.
func (m Mixture) Sample(r *RNG) float64 {
	return m.Values[r.Pick(m.Weights)]
}
