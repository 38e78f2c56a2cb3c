package main

import (
	"math"
	"strings"
	"testing"

	"tmo/internal/core"
	"tmo/internal/vclock"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name       string
		mode       core.Mode
		report     vclock.Duration
		capMiB     int64
		device     string
		tiers      string
		cxlMiB     int64
		interleave float64
		wantErr    string
	}{
		{name: "defaults", mode: core.ModeZswap, report: 2 * vclock.Minute},
		{name: "explicit capacity", mode: core.ModeZswap, report: vclock.Minute, capMiB: 512},
		{name: "-report 0", mode: core.ModeZswap, report: 0, wantErr: "-report"},
		{name: "-capacity -5", mode: core.ModeZswap, report: 2 * vclock.Minute, capMiB: -5, wantErr: "-capacity"},
		{name: "-device G", mode: core.ModeZswap, report: vclock.Minute, device: "G"},
		{name: "-device Z", mode: core.ModeZswap, report: vclock.Minute, device: "Z", wantErr: "-device"},
		{name: "-tiers in a swap mode", mode: core.ModeZswap, report: vclock.Minute, tiers: "lz4:2m,ssd"},
		{name: "-tiers in off mode", mode: core.ModeOff, report: vclock.Minute, tiers: "lz4:2m,ssd", wantErr: "-tiers"},
		{name: "cxl sizing", mode: core.ModeCXL, report: vclock.Minute, cxlMiB: 64, interleave: 0.5},
		{name: "cxl all far", mode: core.ModeCXL, report: vclock.Minute, interleave: 1},
		{name: "-cxl-bytes -5", mode: core.ModeCXL, report: vclock.Minute, cxlMiB: -5, wantErr: "-cxl-bytes"},
		{name: "-place-interleave 3", mode: core.ModeCXL, report: vclock.Minute, interleave: 3, wantErr: "-place-interleave"},
		{name: "-place-interleave -0.5", mode: core.ModeCXL, report: vclock.Minute, interleave: -0.5, wantErr: "-place-interleave"},
		{name: "-place-interleave NaN", mode: core.ModeCXL, report: vclock.Minute, interleave: math.NaN(), wantErr: "-place-interleave"},
		{name: "-place-interleave in zswap", mode: core.ModeZswap, report: vclock.Minute, interleave: 0.5, wantErr: "-place-interleave"},
		{name: "-cxl-bytes in zswap", mode: core.ModeZswap, report: vclock.Minute, cxlMiB: 64, wantErr: "-cxl-bytes"},
	}
	for _, tc := range cases {
		err := checkFlags(tc.mode, tc.report, tc.capMiB, tc.device, tc.tiers, tc.cxlMiB, tc.interleave)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.wantErr)
		}
	}
}
