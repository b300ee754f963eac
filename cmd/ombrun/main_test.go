package main

import (
	"reflect"
	"testing"
	"time"

	"mpixccl/internal/fault"
)

func TestParseCrash(t *testing.T) {
	for _, tc := range []struct {
		spec       string
		rank, call int
		ok         bool
	}{
		{"2@10", 2, 10, true},
		{"0@0", 0, 0, true},
		{"15@1000", 15, 1000, true},
		{"2@10junk", 0, 0, false},
		{"2x@10", 0, 0, false},
		{" 2@10", 0, 0, false},
		{"2@10 ", 0, 0, false},
		{"2@10@3", 0, 0, false},
		{"-1@10", 0, 0, false},
		{"2@-10", 0, 0, false},
		{"2", 0, 0, false},
		{"@10", 0, 0, false},
		{"2@", 0, 0, false},
		{"", 0, 0, false},
	} {
		rule, err := parseCrash(tc.spec)
		if !tc.ok {
			if err == nil {
				t.Errorf("parseCrash(%q) = %+v, want an error", tc.spec, rule)
			}
			continue
		}
		want := fault.Rule{Name: "fail-stop", Crash: true, Ranks: []int{tc.rank}, After: tc.call}
		if err != nil || !reflect.DeepEqual(rule, want) {
			t.Errorf("parseCrash(%q) = %+v, %v; want %+v", tc.spec, rule, err, want)
		}
	}
}

func TestParsePartition(t *testing.T) {
	const us = time.Microsecond
	for _, tc := range []struct {
		spec        string
		rank        int
		from, until time.Duration
		ok          bool
	}{
		{"2@200us", 2, 200 * us, 0, true},
		{"2@200us,400us", 2, 200 * us, 400 * us, true},
		{"0@0s", 0, 0, 0, true},
		{"2x@200us", 0, 0, 0, false},
		{"2 @200us", 0, 0, 0, false},
		{"-1@200us", 0, 0, 0, false},
		{"2@200usjunk", 0, 0, 0, false},
		{"2@200us,400usjunk", 0, 0, 0, false},
		{"2@200us,", 0, 0, 0, false},
		{"2@400us,200us", 0, 0, 0, false},
		{"2@", 0, 0, 0, false},
		{"@200us", 0, 0, 0, false},
		{"2", 0, 0, 0, false},
		{"", 0, 0, 0, false},
	} {
		rule, err := parsePartition(tc.spec)
		if !tc.ok {
			if err == nil {
				t.Errorf("parsePartition(%q) = %+v, want an error", tc.spec, rule)
			}
			continue
		}
		want := fault.PartitionRule{Name: "rank-cut", Ranks: []int{tc.rank}, From: tc.from, Until: tc.until}
		if err != nil || !reflect.DeepEqual(rule, want) {
			t.Errorf("parsePartition(%q) = %+v, %v; want %+v", tc.spec, rule, err, want)
		}
	}
}
