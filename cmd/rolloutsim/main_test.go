package main

import (
	"strings"
	"testing"

	"tmo/internal/core"
	"tmo/internal/rollout"
	"tmo/internal/vclock"
)

func TestCheckFlags(t *testing.T) {
	const window = 30 * vclock.Second
	crash := func(host int) []rollout.Crash { return []rollout.Crash{{Host: host}} }
	cases := []struct {
		name        string
		hosts       int
		candidates  int
		tierConfigs int
		off         string // "-mode" or "-mode-change": that flag is off
		devices     []string
		window      vclock.Duration
		crashes     []rollout.Crash
		wantErr     string
	}{
		{name: "defaults", hosts: 12, candidates: 1, window: window},
		{name: "-crash 3@1m+1m", hosts: 4, candidates: 1, window: window, crashes: crash(3)},
		{name: "-candidates 0 -tier-config", hosts: 4, candidates: 0, tierConfigs: 2, window: window},
		{name: "-hosts 2 -candidates 2", hosts: 2, candidates: 2, window: window},
		{name: "-devices C,F", hosts: 4, candidates: 1, devices: []string{"C", "F"}, window: window},
		{name: "-devices C,", hosts: 4, candidates: 1, devices: []string{"C", ""}, window: window},
		{name: "-hosts 0", hosts: 0, candidates: 1, window: window, wantErr: "-hosts"},
		{name: "-hosts -3", hosts: -3, candidates: 1, window: window, wantErr: "-hosts"},
		{name: "-candidates 0", hosts: 4, candidates: 0, window: window, wantErr: "-candidates"},
		{name: "-hosts 2 -candidates 3", hosts: 2, candidates: 3, window: window, wantErr: "-candidates"},
		{name: "-hosts 1 -tier-config x2", hosts: 1, candidates: 1, tierConfigs: 2, window: window, wantErr: "-tier-config"},
		{name: "-mode off", hosts: 4, candidates: 1, off: "-mode", window: window, wantErr: "-mode"},
		{name: "-mode-change off", hosts: 4, candidates: 1, off: "-mode-change", window: window, wantErr: "-mode-change"},
		{name: "-devices Z", hosts: 4, candidates: 1, devices: []string{"C", "Z"}, window: window, wantErr: "-devices"},
		{name: "-window 0s", hosts: 4, candidates: 1, window: 0, wantErr: "-window"},
		{name: "-crash 9@1m+1m", hosts: 4, candidates: 1, window: window, crashes: crash(9), wantErr: "-crash"},
		{name: "-crash -1@1m+1m", hosts: 4, candidates: 1, window: window, crashes: crash(-1), wantErr: "-crash"},
	}
	for _, tc := range cases {
		mode, candMode := core.ModeZswap, core.ModeTiered
		switch tc.off {
		case "-mode":
			mode = core.ModeOff
		case "-mode-change":
			candMode = core.ModeOff
		}
		err := checkFlags(tc.hosts, tc.candidates, tc.tierConfigs, mode, candMode, tc.devices, tc.window, tc.crashes)
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
