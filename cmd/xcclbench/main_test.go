package main

import (
	"reflect"
	"testing"
)

func TestParseScaleSpec(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		ranks int
		ok    bool
	}{
		{"ranks=256", 256, true},
		{"ranks=256,shards=4", 0, false}, // the retired shard count is an unknown key
		{"ranks=64,shards=x", 0, false},
		{"ranks=64junk", 0, false},
		{"ranks=64,", 0, false},
		{"shards=4", 0, false},
		{"ranks=-8", 0, false},
		{"ranks=0", 0, false},
		{"ranks=x", 0, false},
		{"ranks=", 0, false},
	} {
		ranks, err := parseScaleSpec(tc.spec)
		if (err == nil) != tc.ok || ranks != tc.ranks {
			t.Errorf("%q: got (%d, %v), want (%d, ok=%v)", tc.spec, ranks, err, tc.ranks, tc.ok)
		}
	}
}

func TestParseSpecs(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    spec
		v    string
		want []int // nil: rejected
	}{
		{"chaos", chaosSpec, "seed=7", []int{7, 0}},
		{"chaos", chaosSpec, "seed=7,runs=4", []int{7, 4}},
		{"chaos", chaosSpec, "seed=7,runs=4x", nil},
		{"chaos", chaosSpec, "seed=7x", nil},
		{"chaos", chaosSpec, "seed=-1", nil},
		{"chaos", chaosSpec, "seed=7,runs=-2", nil},
		{"chaos", chaosSpec, "runs=4", nil},
		{"chaos", chaosSpec, "runs=4,seed=7", nil},
		{"chaos", chaosSpec, "seed=7,runs=4,extra=1", nil},
		{"chaos", chaosSpec, "seed=7,foo=1", nil},
		{"chaos", chaosSpec, "", nil},
		{"partition", partitionSpec, "2@4", []int{2, 4}},
		{"partition", partitionSpec, "2@0", []int{2, 0}},
		{"partition", partitionSpec, "2@x", nil}, // not a permanent cut
		{"partition", partitionSpec, "2@4x", nil},
		{"partition", partitionSpec, "2", nil},
		{"partition", partitionSpec, "-1@4", nil},
		{"partition", partitionSpec, "2@4@6", nil},
		{"crash", crashSpec, "3@2", []int{3, 2}},
		{"crash", crashSpec, "3@2 ", nil},
		{"crash", crashSpec, "3", nil},
		{"crash", crashSpec, "3@-2", nil},
		{"crash", crashSpec, "rank=3@2", nil},
	} {
		got, err := tc.s.parse(tc.v)
		if (err == nil) != (tc.want != nil) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-%s %q: got (%v, %v), want %v", tc.name, tc.v, got, err, tc.want)
		}
	}
	for s, want := range map[*spec]string{
		&scaleSpec: "ranks=N", &chaosSpec: "seed=N[,runs=N]",
		&partitionSpec: "cut@heal", &crashSpec: "rank@step",
	} {
		if got := s.String(); got != want {
			t.Errorf("grammar %q, want %q", got, want)
		}
	}
}
