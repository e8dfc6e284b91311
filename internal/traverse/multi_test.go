package traverse

import "testing"

// SpawnDepthFor promises "at least 8 tasks per worker" for real
// parallelism; with a power-of-two leaf count the per-worker share
// must land in [8, 16). One worker has nothing to balance and must
// short-circuit to the pure-sequential depth 0.
func TestSpawnDepthForInvariant(t *testing.T) {
	if d := SpawnDepthFor(1); d != 0 {
		t.Errorf("workers=1 depth=%d, want 0 (pure sequential)", d)
	}
	if d := SpawnDepthFor(0); d != 0 {
		t.Errorf("workers=0 depth=%d, want 0 (pure sequential)", d)
	}
	for w := 2; w <= 64; w++ {
		d := SpawnDepthFor(w)
		leaves := 1 << d
		if leaves < 8*w {
			t.Errorf("workers=%d depth=%d: %d task leaves < 8 per worker", w, d, leaves)
		}
		if leaves >= 16*w {
			t.Errorf("workers=%d depth=%d: %d task leaves overshoot (≥16 per worker)", w, d, leaves)
		}
	}
}
