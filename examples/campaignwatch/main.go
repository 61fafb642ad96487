// Example campaignwatch is the campaign-observability quickstart: declare a
// whole figure as one manifest, submit it as a campaign, and watch its
// convergence telemetry — entirely in-process, no server required.
//
// It demonstrates the three layers the campaign surface adds:
//
//  1. declarative manifests — the paper's Figure 14 sweep (LER vs distance
//     for four LRC policies) as one JSON-shaped value, expanded into
//     labeled, content-keyed points;
//  2. live convergence telemetry — the per-point event stream a dashboard
//     tails, one event each time a point's tally moves: shots, Wilson
//     half-width against the target, warm/cold split, shots-to-target and
//     ETA;
//  3. warm re-submission — running the same manifest again answers every
//     point from the store: zero cold units, every event cached.
//
// Against a live server the same flow is: POST /v1/campaign, then tail
// GET /v1/campaign/stream?id= (cmd/leakwatch renders exactly that).
package main

import (
	"fmt"
	"log"

	"repro/internal/campaign"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	st, err := store.Open("") // use a directory to persist across runs
	if err != nil {
		log.Fatal(err)
	}
	sched := service.New(st, 0)
	mgr := campaign.NewManager(sched)

	// 1. The figure as data: distances x the four policies, every point run
	// until its LER confidence interval is within ±0.01.
	man := campaign.Figure14Manifest([]int{3, 5}, 2e-3,
		service.ConfigSpec{Cycles: 2, Seed: 7},
		service.Precision{TargetCIHalfWidth: 0.01})

	c, err := mgr.Submit(man)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign %s: %d points\n", c.ID, len(c.Points()))

	// 2. Tail the telemetry stream to completion (the in-process equivalent
	// of GET /v1/campaign/stream?id=...).
	watch(c)

	v := c.Status()
	fmt.Printf("\n%d done, %d converged, %d cached, %.0fms elapsed\n",
		v.Done, v.Converged, v.Cached, v.ElapsedSeconds*1000)

	// 3. Same manifest again: every point is answered from the store.
	warm, err := mgr.Submit(man)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nre-submitted as campaign %s (warm):\n", warm.ID)
	watch(warm)
	if v := warm.Status(); v.Cached == len(c.Points()) {
		fmt.Printf("\nall %d points served from the store — zero cold units\n", v.Cached)
	}
}

// watch drains a campaign's event stream, printing one line per telemetry
// event until every point has finished.
func watch(c *campaign.Campaign) {
	cursor := 0
	for {
		evs, wake, finished := c.EventsSince(cursor)
		for _, ev := range evs {
			line := fmt.Sprintf("  %7.1fms  %-22s %-7s %6d shots  hw %.4f",
				ev.AtMS, ev.Point, ev.State, ev.Shots, ev.HalfWidth)
			if ev.WarmShots > 0 {
				line += fmt.Sprintf("  (%d warm)", ev.WarmShots)
			}
			if ev.ETASeconds > 0 {
				line += fmt.Sprintf("  eta %.1fs", ev.ETASeconds)
			}
			if ev.Cached {
				line += "  [cached]"
			}
			fmt.Println(line)
			cursor = ev.Seq + 1
		}
		if finished && len(evs) == 0 {
			return
		}
		select {
		case <-wake:
		case <-c.Done():
		}
	}
}
