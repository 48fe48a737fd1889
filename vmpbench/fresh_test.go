package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func TestVisibleLatenciesTimeline(t *testing.T) {
	const base = 100 // history published before the stream
	acks := []ackEvent{
		{at: msDur(30), records: 5}, // out of order on purpose: two connections
		{at: msDur(10), records: 5},
		{at: msDur(20), records: 5},
		{at: msDur(50), records: 5}, // never covered
	}
	polls := []pollEvent{
		{sent: msDur(5), done: msDur(6), published: 105},   // before the first 202: cannot prove it
		{sent: msDur(12), done: msDur(14), published: 100}, // after it, but stale
		{sent: msDur(15), done: msDur(16), published: 105}, // covers ack@10 (cum 105)
		{sent: msDur(25), done: msDur(27), published: 115}, // covers ack@20 (cum 110); sent before ack@30
		{sent: msDur(40), done: msDur(41), published: 115}, // covers ack@30 (cum 115)
		{sent: msDur(60), done: msDur(61), published: 115}, // ack@50 needs 120
	}
	got := visibleLatencies(acks, polls, base)
	want := []float64{6, 7, 11, math.Inf(1)}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 && !(math.IsInf(got[i], 1) && math.IsInf(want[i], 1)) {
			t.Errorf("ack %d: visible after %v ms, want %v", i, got[i], want[i])
		}
	}
}

func TestVisibleLatenciesNeedsPollAfterAck(t *testing.T) {
	// A poll answered after the 202 but sent before it does not count:
	// it may have been served before the batch was admitted.
	acks := []ackEvent{{at: msDur(10), records: 1}}
	polls := []pollEvent{{sent: msDur(9), done: msDur(11), published: 1}}
	got := visibleLatencies(acks, polls, 0)
	if !math.IsInf(got[0], 1) {
		t.Errorf("got %v, want +Inf", got)
	}
}

func TestVisibleLatenciesLeavesInputsAlone(t *testing.T) {
	acks := []ackEvent{{at: msDur(20), records: 1}, {at: msDur(10), records: 1}}
	polls := []pollEvent{{sent: msDur(30), done: msDur(31), published: 2}}
	before := slices.Clone(acks)
	visibleLatencies(acks, polls, 0)
	if !slices.Equal(acks, before) {
		t.Errorf("acks reordered: %v", acks)
	}
}
