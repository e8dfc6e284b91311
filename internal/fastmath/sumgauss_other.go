//go:build !amd64

package fastmath

// sumGaussQueriesAVX2 is never called here: sumGaussQueriesVec stays false.
func sumGaussQueriesAVX2(sums *[4]float64, c float64, qs [][]float64, rows []float64, scratch *[]float64) {
	panic("fastmath: no vector body of SumGaussRows on this platform")
}
