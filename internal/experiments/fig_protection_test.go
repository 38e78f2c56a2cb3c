package experiments

import "testing"

// TestProtectionDeterminism: the same seed twice gives a byte-identical
// report, kill times included.
func TestProtectionDeterminism(t *testing.T) {
	a, b := Protection(cfg).Render(), Protection(cfg).Render()
	if a != b {
		t.Fatal("protection exhibit diverged across double run")
	}
}
