package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// ackEvent is one acknowledged ingest batch: when its 202 arrived and
// how many records it carried.
type ackEvent struct {
	at      time.Duration
	records int
}

// pollEvent is one /v1/stats probe: when it was sent, when its body
// arrived, and the published generation's record count it reported.
type pollEvent struct {
	sent, done time.Duration
	published  int
}

// visibleLatencies matches acknowledgements to freshness probes. A
// batch is visible at the first poll sent at or after its 202 whose
// published count covers base plus every record acknowledged up to
// and including that 202; its latency runs from the 202 to that
// poll's response. Acks no poll ever covers enter as +Inf, so they
// miss every freshness limit. The result is in milliseconds, one entry
// per ack.
func visibleLatencies(acks []ackEvent, polls []pollEvent, base int) []float64 {
	acks = slices.Clone(acks)
	slices.SortStableFunc(acks, func(a, b ackEvent) int { return cmpDur(a.at, b.at) })
	polls = slices.Clone(polls)
	slices.SortStableFunc(polls, func(a, b pollEvent) int { return cmpDur(a.sent, b.sent) })

	out := make([]float64, 0, len(acks))
	covered := base
	for _, a := range acks {
		covered += a.records
		j := sort.Search(len(polls), func(i int) bool { return polls[i].sent >= a.at })
		lat := math.Inf(1)
		for ; j < len(polls); j++ {
			if polls[j].published >= covered {
				lat = ms(polls[j].done - a.at)
				break
			}
		}
		out = append(out, lat)
	}
	return out
}

func cmpDur(a, b time.Duration) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
