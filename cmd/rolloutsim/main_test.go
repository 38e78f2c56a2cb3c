package main

import (
	"strings"
	"testing"

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
		window      vclock.Duration
		crashes     []rollout.Crash
		wantErr     string
	}{
		{name: "defaults", hosts: 12, candidates: 1, window: window},
		{name: "-crash 3@1m+1m", hosts: 4, candidates: 1, window: window, crashes: crash(3)},
		{name: "-candidates 0 -tier-config", hosts: 4, candidates: 0, tierConfigs: 2, window: window},
		{name: "-hosts 0", hosts: 0, candidates: 1, window: window, wantErr: "-hosts"},
		{name: "-hosts -3", hosts: -3, candidates: 1, window: window, wantErr: "-hosts"},
		{name: "-candidates 0", hosts: 4, candidates: 0, window: window, wantErr: "-candidates"},
		{name: "-window 0s", hosts: 4, candidates: 1, window: 0, wantErr: "-window"},
		{name: "-crash 9@1m+1m", hosts: 4, candidates: 1, window: window, crashes: crash(9), wantErr: "-crash"},
		{name: "-crash -1@1m+1m", hosts: 4, candidates: 1, window: window, crashes: crash(-1), wantErr: "-crash"},
	}
	for _, tc := range cases {
		err := checkFlags(tc.hosts, tc.candidates, tc.tierConfigs, tc.window, tc.crashes)
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
