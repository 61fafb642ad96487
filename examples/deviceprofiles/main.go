// Example deviceprofiles is the quickstart for the device-profile subsystem
// (internal/device): per-site calibrated noise instead of one scalar p for
// every qubit and coupler. It shows
//
//  1. generators — Uniform / Hotspot / Gradient / Drift profiles and what
//     they do to the rate arrays;
//  2. canonicalization — a Uniform(p) profile keys and simulates
//     bit-identically to the profile-free scalar config, while a hotspot
//     profile gets its own content-addressed identity;
//  3. JSON round-tripping — saving a calibrated profile and loading it back;
//  4. a miniature heterogeneity-robustness sweep: how each policy's LER
//     degrades as hotspot qubits get worse.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiment"
)

func main() {
	const d, p = 3, 2e-3

	// 1. Generators. A hotspot profile marks k data qubits (and their
	// couplers) as factor-times noisier; gradient ramps rates across the
	// lattice; drift jitters every site lognormally.
	hot, err := device.Hotspot(d, p, 2, 8)
	if err != nil {
		log.Fatal(err)
	}
	grad, _ := device.Gradient(d, p, 4)
	drift, _ := device.Drift(d, p, 0.5, 7)
	fmt.Printf("hotspot  %s: data-qubit P rates %v\n", hot.HashHex(), hot.P[:d*d])
	fmt.Printf("gradient %s: row-0 P rates     %v\n", grad.HashHex(), grad.P[:d])
	fmt.Printf("drift    %s: row-0 P rates     %v\n", drift.HashHex(), drift.P[:d])

	// 2. Canonicalization: Uniform(p) is the scalar model, bit for bit.
	uniform, _ := device.Uniform(d, p)
	plain := experiment.Config{Distance: d, Cycles: 3, P: p, Shots: 512,
		Seed: 2023, Policy: core.PolicyEraser}
	withProf := plain
	withProf.Profile = uniform
	kPlain := plain.Key()
	fmt.Printf("\nuniform profile shares the scalar key: %v\n", kPlain == withProf.Key())
	a, b := experiment.Run(plain), experiment.Run(withProf)
	fmt.Printf("identical results: LER %g == %g, leakage %g == %g\n",
		a.LER, b.LER, a.MeanLPR(), b.MeanLPR())
	hotCfg := plain
	hotCfg.Profile = hot
	fmt.Printf("hotspot profile keys separately: %v\n", hotCfg.Key() != kPlain)

	// 3. JSON round trip — ship calibrations as files and load them with
	// `leakage -profile path.json` or device.Load.
	dir, err := os.MkdirTemp("", "deviceprofiles")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "hotspot.json")
	if err := hot.Save(path); err != nil {
		log.Fatal(err)
	}
	loaded, err := device.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsaved and reloaded profile, hash unchanged: %v\n",
		loaded.Hash() == hot.Hash())

	// 4. Miniature heterogeneity sweep (the full version is
	// `leakage -exp hetero`, with -csv/-json export).
	sweep := experiment.Heterogeneity(experiment.Options{
		Shots: 512, Seed: 2023, P: p, Distance: d, Cycles: 3,
		HotspotQubits: 2, HotspotFactors: []float64{1, 4, 10},
	})
	fmt.Printf("\n%s", sweep)
	deg := sweep.Degradation()
	for i, name := range sweep.Names {
		fmt.Printf("%-12s LER degradation at 10x: %.1fx\n", name, deg[i])
	}
}
