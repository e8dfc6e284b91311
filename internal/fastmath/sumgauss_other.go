//go:build !amd64 || purego

package fastmath

// vectorBodies reports that this build links the vector bodies: it does
// not, off amd64 or under the purego tag, and every flag stays unset.
const vectorBodies = false

// sumGaussQueries is never called here: sumGaussQueriesVec stays false.
func sumGaussQueries(sums *[gaussLanes]float64, c float64, qs [][]float64, rows []float64, scratch *[]float64) {
	panic("fastmath: no vector body of SumGaussRows in this build")
}
