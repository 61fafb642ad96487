package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/surfacecode"
)

// TestRunScalarPinned pins the scalar oracle bit for bit: the SHA-256 of
// RunScalar's JSON result on every policy, DQLR, memory-X, a hotspot
// profile and a threshold-1 ablation. The engine-agreement tests that use
// RunScalar are statistical and would not notice a change to its random
// streams or decisions. The hashes were computed with the
// scalar engine as it ran before RunScalar existed (Run with the config
// fields that once forced the scalar engine and tuned its policy), for 1
// and GOMAXPROCS workers alike. noLRC's was re-pinned when greedy matching
// took its documented tie order (key schema 4), which moved one of its
// shots to a logical error (34 to 35 of 500); the other eight did not move.
func TestRunScalarPinned(t *testing.T) {
	const p = 3e-3
	base := Config{Distance: 3, Cycles: 3, P: p, Shots: 500, Seed: 2023}
	with := func(set func(*Config)) Config {
		c := base
		set(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		tune func(core.Policy)
		want string
	}{
		{"noLRC", with(func(c *Config) { c.Policy = core.PolicyNone }), nil,
			"1634d801e6f741167b2a058f81a0cf1d9c179fe35f005cd5b1ccd24be9123277"},
		{"always", with(func(c *Config) { c.Policy = core.PolicyAlways }), nil,
			"0ba71a380bb4bae955da374523d8072d8ed39d4f500a6a366897d55d35539c28"},
		{"eraser", with(func(c *Config) { c.Policy = core.PolicyEraser }), nil,
			"3d30bf98a5c7aebeadf2f27003e89c70dff47842cafd9943afe51d12146a92f9"},
		{"eraserM", with(func(c *Config) { c.Policy = core.PolicyEraserM }), nil,
			"f4c548afe369e64b80b699897c59d3282ee6097d1a762b95f2d204e44fec581b"},
		{"optimal", with(func(c *Config) { c.Policy = core.PolicyOptimal }), nil,
			"1df24ae3395ae5d8ada011a36c8ec820204c29478b67517f4109f81824103ce5"},
		{"eraser-dqlr", with(func(c *Config) { c.Policy, c.Protocol = core.PolicyEraser, circuit.ProtocolDQLR }), nil,
			"4abb9d86a0e4e2032def78546c50f25d02900f7192175a14f181ee5dc901e84f"},
		{"eraser-memx", with(func(c *Config) { c.Policy, c.Basis = core.PolicyEraser, surfacecode.KindX }), nil,
			"806717443a5530839a25ca482d70f1d2964cda89278ef921e66d47c57e7efc9f"},
		{"eraser-hotspot", with(func(c *Config) { c.Policy, c.Profile = core.PolicyEraser, hotspotProfile(t, 3, p, 2, 6) }), nil,
			"c240c734b3b499b40689e4092e4c269a70735b958eca8b5f0495219500d78a1d"},
		{"eraser-threshold1", with(func(c *Config) { c.Policy = core.PolicyEraser }),
			func(p core.Policy) { p.(*core.Eraser).LSB().SetThreshold(1) },
			"f50889d949fd764552779174fe3d3364fb10f865cd4fbdb58eb4e21e2e48916c"},
	} {
		res := RunScalar(tc.cfg, tc.tune)
		data, err := json.Marshal(res.JSONView())
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: RunScalar result hash %s, pinned %s\n%s", tc.name, got, tc.want, data)
		}
	}
}
