package main

import (
	"strings"
	"testing"

	"tmo/internal/vclock"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name    string
		report  vclock.Duration
		capMiB  int64
		wantErr string
	}{
		{name: "defaults", report: 2 * vclock.Minute},
		{name: "explicit capacity", report: vclock.Minute, capMiB: 512},
		{name: "-report 0", report: 0, wantErr: "-report"},
		{name: "-capacity -5", report: 2 * vclock.Minute, capMiB: -5, wantErr: "-capacity"},
	}
	for _, tc := range cases {
		err := checkFlags(tc.report, tc.capMiB)
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
