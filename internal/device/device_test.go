package device

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/noise"
	"repro/internal/surfacecode"
)

func TestCouplersCoverEveryStabilizerDataPair(t *testing.T) {
	l := surfacecode.MustNew(5)
	cs := Couplers(l)
	want := 0
	for i := range l.Stabilizers {
		want += l.Stabilizers[i].Weight()
	}
	if len(cs) != want {
		t.Fatalf("got %d couplers, want %d (sum of stabilizer weights)", len(cs), want)
	}
	seen := make(map[Coupler]bool)
	for _, c := range cs {
		if seen[c] {
			t.Fatalf("duplicate coupler %+v", c)
		}
		seen[c] = true
		if l.IsData(c.A) || !l.IsData(c.B) {
			t.Fatalf("coupler %+v is not (ancilla, data)", c)
		}
	}
}

func TestUniformProfileIsUniform(t *testing.T) {
	p, err := Uniform(5, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Uniform() {
		t.Error("Uniform(5, 1e-3) is not detected as uniform")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// factor-1 hotspot and ratio-1 gradient reduce to uniform too.
	if h, _ := Hotspot(5, 1e-3, 3, 1); !h.Uniform() {
		t.Error("Hotspot factor 1 is not uniform")
	}
	if g, _ := Gradient(5, 1e-3, 1); !g.Uniform() {
		t.Error("Gradient ratio 1 is not uniform")
	}
	if d, _ := Drift(5, 1e-3, 0, 9); !d.Uniform() {
		t.Error("Drift sigma 0 is not uniform")
	}
}

func TestHotspotMarksExactlyKQubits(t *testing.T) {
	const d, k, factor = 5, 4, 8.0
	p, err := Hotspot(d, 1e-3, k, factor)
	if err != nil {
		t.Fatal(err)
	}
	if p.Uniform() {
		t.Fatal("hotspot profile detected as uniform")
	}
	hot := 0
	for q, v := range p.P {
		switch v {
		case 1e-3:
		case factor * 1e-3:
			hot++
			if q >= d*d {
				t.Errorf("hotspot on non-data qubit %d", q)
			}
			if p.PLeak[q] != factor*1e-4 {
				t.Errorf("hotspot %d: PLeak %g, want %g", q, p.PLeak[q], factor*1e-4)
			}
			if p.PSeep[q] != 1e-4 {
				t.Errorf("hotspot %d: PSeep %g changed, want base", q, p.PSeep[q])
			}
		default:
			t.Errorf("qubit %d has unexpected rate %g", q, v)
		}
	}
	if hot != k {
		t.Errorf("%d hotspot qubits, want %d", hot, k)
	}
	// Determinism: the same spec marks the same sites.
	p2, _ := Hotspot(d, 1e-3, k, factor)
	if p.Hash() != p2.Hash() {
		t.Error("hotspot generation is not deterministic")
	}
}

func TestGradientEndpointsAndMean(t *testing.T) {
	const d, ratio = 5, 4.0
	p, err := Gradient(d, 1e-3, ratio)
	if err != nil {
		t.Fatal(err)
	}
	l := surfacecode.MustNew(d)
	left := p.P[l.DataID(0, 0)]
	right := p.P[l.DataID(0, d-1)]
	if r := right / left; math.Abs(r-ratio) > 1e-9 {
		t.Errorf("worst/best ratio = %g, want %g", r, ratio)
	}
	mean := 0.0
	for q := 0; q < l.NumData; q++ {
		mean += p.P[q]
	}
	mean /= float64(l.NumData)
	if math.Abs(mean-1e-3) > 1e-4 {
		t.Errorf("data-qubit mean rate %g, want ~1e-3", mean)
	}
}

func TestDriftIsSeededAndBounded(t *testing.T) {
	a, err := Drift(3, 1e-3, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Drift(3, 1e-3, 0.5, 7)
	if a.Hash() != b.Hash() {
		t.Error("drift profiles with equal seeds differ")
	}
	c, _ := Drift(3, 1e-3, 0.5, 8)
	if a.Hash() == c.Hash() {
		t.Error("drift profiles with different seeds collide")
	}
	for _, arr := range [][]float64{a.P, a.PLeak, a.PMultiLevelError, a.PCNOT} {
		for i, v := range arr {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("drift rate [%d] = %g out of range", i, v)
			}
		}
	}
}

func TestValidateRejectsBadRates(t *testing.T) {
	p, _ := Uniform(3, 1e-3)
	p.P[4] = math.NaN()
	if err := p.Validate(); err == nil {
		t.Error("NaN rate passed validation")
	}
	p, _ = Uniform(3, 1e-3)
	p.PCNOT[0] = -0.1
	if err := p.Validate(); err == nil {
		t.Error("negative rate passed validation")
	}
	p, _ = Uniform(3, 1e-3)
	p.PLeak = p.PLeak[:5]
	if err := p.Validate(); err == nil {
		t.Error("short array passed validation")
	}
	p, _ = Uniform(3, 1e-3)
	p.PTransport[2] = 1.5
	if err := p.Validate(); err == nil {
		t.Error("rate > 1 passed validation")
	}
}

// TestReadJSONRejectsOversizedDistance: a profile above
// surfacecode.MaxDistance is an error, reached before any layout is built.
// Unchecked, the 36-byte d=1001 profile allocated over 1 GB before its
// array lengths were rejected, and d=100000001 panicked in makeslice.
func TestReadJSONRejectsOversizedDistance(t *testing.T) {
	for _, d := range []int{100000001, 1001, surfacecode.MaxDistance + 2} {
		data := fmt.Sprintf(`{"distance":%d,"base":{"P":0.001}}`, d)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadJSON(strings.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("d=%d: profile accepted", d)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("d=%d: rejection allocated %d bytes", d, n)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p, err := Hotspot(3, 2e-3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hash() != q.Hash() {
		t.Error("JSON round trip changed the profile hash")
	}
	path := filepath.Join(t.TempDir(), "prof.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hash() != r.Hash() {
		t.Error("file round trip changed the profile hash")
	}
}

func TestResolveAndCouplerIndex(t *testing.T) {
	l := surfacecode.MustNew(3)
	p, _ := Hotspot(3, 1e-3, 2, 4)
	r, err := p.Resolve(l)
	if err != nil {
		t.Fatal(err)
	}
	if r.Uniform {
		t.Error("hotspot resolved as uniform")
	}
	for i, c := range Couplers(l) {
		if got := r.CouplerIndex(c.A, c.B); got != i {
			t.Fatalf("CouplerIndex(%d, %d) = %d, want %d", c.A, c.B, got, i)
		}
		if got := r.CouplerIndex(c.B, c.A); got != i {
			t.Fatalf("CouplerIndex is not symmetric for (%d, %d)", c.B, c.A)
		}
	}
	if r.CouplerIndex(0, 1) != -1 {
		t.Error("data-data pair reported as a coupler")
	}
	if got := r.GateP(0, 1); got != p.Base.P {
		t.Errorf("non-coupler GateP = %g, want base %g", got, p.Base.P)
	}
	// Distance mismatch is rejected.
	if _, err := p.Resolve(surfacecode.MustNew(5)); err == nil {
		t.Error("resolve against the wrong distance succeeded")
	}
}

func TestDecoderPriorsFavorNoisySites(t *testing.T) {
	l := surfacecode.MustNew(5)
	hot, _ := Hotspot(5, 1e-3, 1, 10) // hotspot on data qubit 0
	r, err := hot.Resolve(l)
	if err != nil {
		t.Fatal(err)
	}
	space, timeW := r.DecoderPriors(l)
	if len(space) != l.NumData || len(timeW) != len(l.Stabilizers) {
		t.Fatalf("prior lengths %d/%d", len(space), len(timeW))
	}
	if space[0] >= space[1] {
		t.Errorf("hotspot edge weight %g not cheaper than clean edge %g", space[0], space[1])
	}
	// Uniform profiles produce uniform priors equal to 1 after normalization.
	uni, _ := Uniform(5, 1e-3)
	ru, _ := uni.Resolve(l)
	us, ut := ru.DecoderPriors(l)
	for _, w := range us {
		if math.Abs(w-1) > 1e-12 {
			t.Fatalf("uniform space prior %g != 1", w)
		}
	}
	for _, w := range ut {
		if math.Abs(w-ut[0]) > 1e-12 {
			t.Fatalf("uniform time priors differ: %g vs %g", w, ut[0])
		}
	}
}

func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		in  string
		gen bool
		ok  bool
	}{
		{"uniform:1e-3", true, true},
		{"hotspot:1e-3,3,8", true, true},
		{"gradient:2e-3,4", true, true},
		{"drift:1e-3,0.5,7", true, true},
		{"HOTSPOT:1e-3,3,8", true, true},
		{"profiles/chip.json", false, true},
		{"hotspot:1e-3,3", false, false},    // missing arg
		{"gradient:1e-3,4,9", false, false}, // extra arg
		{"drift:1e-3,x,7", false, false},    // non-numeric
		{"", false, false},
	} {
		sp, err := ParseSpec(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseSpec(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if err == nil && sp.Generator() != tc.gen {
			t.Errorf("ParseSpec(%q).Generator() = %v, want %v", tc.in, sp.Generator(), tc.gen)
		}
	}
	sp, _ := ParseSpec("hotspot:1e-3,3,8")
	prof, err := sp.For(5, noise.TransportExchange)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Distance != 5 || prof.Base.Transport != noise.TransportExchange {
		t.Errorf("spec instantiation: d=%d transport=%v", prof.Distance, prof.Base.Transport)
	}
	want, _ := Hotspot(5, 1e-3, 3, 8)
	if prof.Base.Transport == noise.TransportConservative && prof.Hash() != want.Hash() {
		t.Error("spec-built profile differs from direct construction")
	}
}

func TestSpecFileDistanceMismatch(t *testing.T) {
	p, _ := Uniform(3, 1e-3)
	path := filepath.Join(t.TempDir(), "d3.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	sp, err := ParseSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.For(3, noise.TransportConservative); err != nil {
		t.Fatalf("matching distance rejected: %v", err)
	}
	if _, err := sp.For(5, noise.TransportConservative); err == nil {
		t.Error("mismatched distance accepted")
	}
	// A file calibrated with conservative transport cannot silently serve an
	// exchange-transport experiment (fig17/18/20/21 would mislabel output).
	if _, err := sp.For(3, noise.TransportExchange); err == nil {
		t.Error("mismatched transport model accepted")
	}
}

func TestHashDiscriminates(t *testing.T) {
	a, _ := Hotspot(5, 1e-3, 3, 8)
	b, _ := Hotspot(5, 1e-3, 3, 9)
	c, _ := Hotspot(5, 1e-3, 4, 8)
	if a.Hash() == b.Hash() || a.Hash() == c.Hash() {
		t.Error("distinct profiles share a hash")
	}
	// Name is metadata and must not affect the hash.
	d := *a
	d.Name = "renamed"
	if a.Hash() != d.Hash() {
		t.Error("renaming a profile changed its hash")
	}
}

// FuzzReadProfile: a profile file is either rejected by ReadJSON, or it
// resolves against its layout, derives positive finite decoder priors of
// the layout's shape, and survives a WriteJSON/ReadJSON round trip with its
// content hash unchanged. The seed corpus in testdata/fuzz holds hotspot,
// drift and uniform profiles, an out-of-range rate, short arrays and an
// oversized distance.
func FuzzReadProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		l, err := surfacecode.New(p.Distance)
		if err != nil {
			t.Fatalf("validated profile has no layout: %v", err)
		}
		r, err := p.Resolve(l)
		if err != nil {
			t.Fatalf("validated profile does not resolve: %v", err)
		}
		space, timeW := r.DecoderPriors(l)
		if len(space) != l.NumData || len(timeW) != len(l.Stabilizers) {
			t.Fatalf("priors have %d/%d weights, want %d/%d", len(space), len(timeW), l.NumData, len(l.Stabilizers))
		}
		for _, w := range append(space, timeW...) {
			if !(w > 0) || math.IsInf(w, 1) {
				t.Fatalf("prior weight %g is not positive and finite", w)
			}
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted profile does not encode: %v", err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("re-encoded profile is rejected: %v", err)
		}
		if back.Hash() != p.Hash() {
			t.Fatalf("round trip changed the hash: %s -> %s", p.HashHex(), back.HashHex())
		}
	})
}
