package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name     string
		replicas int
		wantErr  string
	}{
		{name: "default", replicas: 1},
		{name: "-replicas 3", replicas: 3},
		{name: "-replicas 0", replicas: 0, wantErr: "-replicas"},
		{name: "-replicas -2", replicas: -2, wantErr: "-replicas"},
	}
	for _, tc := range cases {
		err := checkFlags(tc.replicas)
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
