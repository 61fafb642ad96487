package experiment

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestResultJSON runs a real experiment and checks the JSON view carries the
// derived statistics (not just raw counters) through a round trip.
func TestResultJSON(t *testing.T) {
	res := Run(Config{Distance: 3, Cycles: 2, P: 2e-3, Shots: 128, Seed: 8,
		Policy: core.PolicyAlways, Workers: 1})
	var b strings.Builder
	if err := res.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back ResultJSON
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if back.Policy != "Always-LRCs" || back.Distance != 3 || back.Shots != 128 {
		t.Fatalf("identity fields wrong: %+v", back)
	}
	if back.LER != res.LER || back.LERLow != res.LERLow || back.LERHigh != res.LERHigh {
		t.Fatalf("LER fields wrong: %+v", back)
	}
	if back.Accuracy != res.Accuracy() || back.FPR != res.FPR() || back.FNR != res.FNR() {
		t.Fatalf("derived rates wrong: %+v", back)
	}
	if len(back.LPRTotal) != res.Rounds {
		t.Fatalf("LPR series length %d, want %d", len(back.LPRTotal), res.Rounds)
	}
}
