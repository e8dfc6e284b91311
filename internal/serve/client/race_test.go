//go:build race

package client

// The race detector makes sync.Pool drop a share of its buffers on
// purpose, so allocation counts are not the program's under it.
func init() { raceEnabled = true }
