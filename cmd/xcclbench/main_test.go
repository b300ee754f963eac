package main

import "testing"

func TestParseScaleSpec(t *testing.T) {
	for _, tc := range []struct {
		spec          string
		ranks, shards int
		ok            bool
	}{
		{"ranks=256", 256, 1, true},
		{"ranks=256,shards=4", 256, 4, true},
		{"ranks=256,shards=0", 0, 0, false},
		{"ranks=256,shards=-1", 0, 0, false},
		{"ranks=-8", 0, 0, false},
		{"ranks=0", 0, 0, false},
		{"ranks=x", 0, 0, false},
	} {
		ranks, shards, err := parseScaleSpec(tc.spec)
		if (err == nil) != tc.ok || ranks != tc.ranks || shards != tc.shards {
			t.Errorf("%q: got (%d, %d, %v), want (%d, %d, ok=%v)",
				tc.spec, ranks, shards, err, tc.ranks, tc.shards, tc.ok)
		}
	}
}
