// Advanced: exercise the library extensions beyond the paper's evaluation —
// a memory-X experiment (the X-stabilizer detector graph), the Section 2.4
// post-selection baseline that motivates real-time suppression in the first
// place, and an empirical Table 2.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/surfacecode"
)

func main() {
	const d, cycles, shots = 5, 5, 500

	fmt.Println("1. Memory basis: ERASER protects both logical operators")
	for _, basis := range []surfacecode.Kind{surfacecode.KindZ, surfacecode.KindX} {
		res := experiment.Run(experiment.Config{
			Distance: d, Cycles: cycles, P: 1e-3, Shots: shots, Seed: 77,
			Policy: core.PolicyEraser, Basis: basis,
		})
		fmt.Printf("   memory-%s  LER = %.4f [%.4f, %.4f]\n",
			basis, res.LER, res.LERLow, res.LERHigh)
	}

	fmt.Println("\n2. Post-selection (Section 2.4 prior work) vs real-time suppression")
	ps := experiment.RunPostSelection(experiment.Config{
		Distance: d, Cycles: cycles, P: 1e-3, Shots: shots, Seed: 77,
	}, 2, 2)
	fmt.Printf("   no LRCs, all shots:     LER = %.4f\n", ps.LERAll())
	fmt.Printf("   post-selected (keep %2.0f%%): LER = %.4f\n",
		100*(1-ps.DiscardFraction()), ps.LERKept())
	er := experiment.Run(experiment.Config{
		Distance: d, Cycles: cycles, P: 1e-3, Shots: shots, Seed: 77,
		Policy: core.PolicyEraserM,
	})
	fmt.Printf("   ERASER+M, all shots:    LER = %.4f  (keeps every shot, works online)\n", er.LER)

	fmt.Println("\n3. Empirical Table 2: how fast leakage becomes visible")
	v := experiment.MeasureVisibility(d, 30, 200, 2e-3, 77, 3)
	pct := v.Percent()
	fmt.Printf("   visible immediately %.0f%%, after 1 round %.0f%%, after 2 rounds %.0f%%\n",
		pct[0], pct[0]+pct[1], pct[0]+pct[1]+pct[2])
	fmt.Println("   (Insight #1: optimizing the LSB for visible leakage is sufficient)")
}
