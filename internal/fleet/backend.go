package fleet

import (
	"fmt"
	"strings"

	"tmo/internal/backend"
)

// TierSignature returns a deterministic compact key for a swap chain layout,
// used to select twin calibration surfaces: "" for no layout (the mode's
// default), otherwise e.g. "tiers=lz4:2g,zstd:4g,ssd".
func TierSignature(tiers []backend.TierSpec) string {
	if len(tiers) == 0 {
		return ""
	}
	// Each tier is spelled the way the -tiers flag spells it: "lz4:2g",
	// "zstd:512m", or a bare "ssd" for a swap tier left at the default size.
	segs := make([]string, len(tiers))
	for i, t := range tiers {
		segs[i] = t.Label()
		if t.CapacityBytes > 0 {
			segs[i] += ":" + formatBytesCompact(t.CapacityBytes)
		}
	}
	return "tiers=" + strings.Join(segs, ",")
}

// formatBytesCompact renders n with the largest clean binary suffix.
func formatBytesCompact(n int64) string {
	const (
		k = int64(1) << 10
		m = int64(1) << 20
		g = int64(1) << 30
	)
	switch {
	case n%g == 0:
		return fmt.Sprintf("%dg", n/g)
	case n%m == 0:
		return fmt.Sprintf("%dm", n/m)
	case n%k == 0:
		return fmt.Sprintf("%dk", n/k)
	}
	return fmt.Sprintf("%d", n)
}
