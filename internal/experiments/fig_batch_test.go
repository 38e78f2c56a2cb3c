package experiments

import (
	"strings"
	"testing"
)

func TestAblationBatchShape(t *testing.T) {
	r := AblationBatch(cfg)
	if len(r.Cells) != 4 {
		t.Fatalf("cells = %d, want 4 grid corners", len(r.Cells))
	}

	for _, c := range r.Cells {
		// Readahead activity tracks the knob exactly.
		if c.Readahead == 0 && c.ReadaheadIns != 0 {
			t.Errorf("readahead off but %d readahead-ins", c.ReadaheadIns)
		}
		if c.Readahead > 0 && c.ReadaheadIns == 0 {
			t.Errorf("readahead %d pulled nothing in", c.Readahead)
		}
		// The deep queue absorbs the write bursts a depth-1 queue stalls
		// on; every cell drained real writeback traffic.
		if c.WBDepth > 1 && c.WBStalls != 0 {
			t.Errorf("deep queue (depth %d) still stalled %d times", c.WBDepth, c.WBStalls)
		}
		if c.WBDepth == 1 && c.WBStalls == 0 {
			t.Errorf("depth-1 queue never backpressured")
		}
		if c.Drained == 0 {
			t.Errorf("cell %d/%d drained no writeback", c.Readahead, c.WBDepth)
		}
		// Backpressure stalls and their time move together.
		if (c.WBStalls == 0) != (c.WBStallUs == 0) {
			t.Errorf("cell %d/%d: %d stalls but %d us", c.Readahead, c.WBDepth, c.WBStalls, c.WBStallUs)
		}
	}

	out := r.Render()
	for _, want := range []string{"swap batching", "wb depth", "drained"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
