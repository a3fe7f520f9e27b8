package simd

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// TestDispatchSelection pins the init-time decision: on a build with
// asm kernels for this CPU, dispatch starts enabled and Mode names the
// ISA; on a noasm build (or an arch without kernels) it is permanently
// off and SetEnabled(true) must refuse to lie about it.
func TestDispatchSelection(t *testing.T) {
	hw := HWMode()
	switch hw {
	case "":
		if Enabled() {
			t.Fatal("Enabled() with no asm kernels")
		}
		if Mode() != "go" {
			t.Fatalf("Mode() = %q, want go", Mode())
		}
		if SetEnabled(true); Enabled() {
			t.Fatal("SetEnabled(true) enabled dispatch on a kernel-less build")
		}
	case "avx2", "neon":
		if (hw == "avx2") != (runtime.GOARCH == "amd64") {
			t.Fatalf("HWMode %q on %s", hw, runtime.GOARCH)
		}
		// The env override is exercised in-process below and end-to-end in
		// TestEnvOverrideSubprocess; here init ran without it (the test
		// harness never sets it), so dispatch must be on.
		if os.Getenv(NoSIMDEnv) == "" && !Enabled() {
			t.Fatal("asm kernels available but dispatch off after init")
		}
	default:
		t.Fatalf("unknown HWMode %q", hw)
	}
}

// TestSetEnabledRoundTrip checks the runtime toggle and that Mode
// tracks it, restoring the ambient state on exit.
func TestSetEnabledRoundTrip(t *testing.T) {
	prev := Enabled()
	defer SetEnabled(prev)

	was := SetEnabled(false)
	if was != prev {
		t.Fatalf("SetEnabled returned %v, want previous state %v", was, prev)
	}
	if Enabled() || Mode() != "go" {
		t.Fatalf("after SetEnabled(false): Enabled=%v Mode=%q", Enabled(), Mode())
	}
	SetEnabled(true)
	if HWMode() == "" {
		if Enabled() {
			t.Fatal("enabled dispatch without kernels")
		}
	} else if !Enabled() || Mode() != HWMode() {
		t.Fatalf("after SetEnabled(true): Enabled=%v Mode=%q HW=%q", Enabled(), Mode(), HWMode())
	}
}

// TestEnvOverrideSubprocess re-executes this test binary with
// FREERIDER_NOSIMD=1 and checks that init latched dispatch off — the
// ops escape hatch must work from the environment alone, before any
// code gets a chance to call SetEnabled.
func TestEnvOverrideSubprocess(t *testing.T) {
	if os.Getenv("SIMD_ENV_HELPER") == "1" {
		if Enabled() {
			t.Fatal("dispatch enabled despite " + NoSIMDEnv)
		}
		if Mode() != "go" {
			t.Fatalf("Mode() = %q under %s, want go", Mode(), NoSIMDEnv)
		}
		return
	}
	if HWMode() == "" {
		t.Skip("no asm kernels to disable on this build")
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestEnvOverrideSubprocess$", "-test.v")
	cmd.Env = append(os.Environ(), "SIMD_ENV_HELPER=1", NoSIMDEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper process failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "PASS") {
		t.Fatalf("helper process did not pass:\n%s", out)
	}
}

// TestKernelContracts pins the argument validation that keeps the asm
// kernels inside their preconditions.
func TestKernelContracts(t *testing.T) {
	var m [64]int16
	var s [64]int32
	// Zero steps is a no-op regardless of dispatch mode or build.
	ViterbiACS(&m, &s, nil, nil)

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("short q", func() {
		ViterbiACS(&m, &s, make([]int16, 1), make([]uint64, 1))
	})
	mustPanic("non-power-of-two size", func() {
		FFTPass(make([]complex128, 6), make([]complex128, 3), 6)
	})
	mustPanic("twiddle length", func() {
		FFTPass(make([]complex128, 4), make([]complex128, 3), 4)
	})
	mustPanic("ragged input", func() {
		FFTPass(make([]complex128, 6), make([]complex128, 2), 4)
	})
	// Zero outputs is a no-op regardless of dispatch mode or build.
	FIR(nil, nil, nil)
	mustPanic("FIR output off the block", func() {
		FIR(make([]complex128, 4), make([]complex128, 16), make([]float64, 1))
	})
	// 16-output blocks take an 8-output remainder, nothing shorter.
	mustPanic("FIR remainder off the 8-output block", func() {
		FIR(make([]complex128, 20), make([]complex128, 32), make([]float64, 1))
	})
	mustPanic("FIR short input", func() {
		FIR(make([]complex128, 8), make([]complex128, 10), make([]float64, 4))
	})
	mustPanic("FIR short input past a 16-output block", func() {
		FIR(make([]complex128, 24), make([]complex128, 26), make([]float64, 4))
	})
	if !hasFIR {
		// The arm64 and noasm stubs refuse a valid 16+8-output call
		// instead of returning zeros to a caller that skipped FIREnabled.
		mustPanic("FIR without a kernel", func() {
			FIR(make([]complex128, 24), make([]complex128, 27), make([]float64, 4))
		})
	}
	var pow [8]float64
	mustPanic("SegCorr zero segments", func() {
		SegCorr(nil, &pow, make([]complex128, 15), make([]complex128, 8), 0)
	})
	mustPanic("SegCorr ragged segments", func() {
		SegCorr(make([]complex128, 24), &pow, make([]complex128, 17), make([]complex128, 10), 3)
	})
	mustPanic("SegCorr empty template", func() {
		SegCorr(make([]complex128, 8), &pow, make([]complex128, 7), nil, 1)
	})
	mustPanic("SegCorr accumulator length", func() {
		SegCorr(make([]complex128, 8), &pow, make([]complex128, 15), make([]complex128, 8), 2)
	})
	mustPanic("SegCorr short input", func() {
		SegCorr(make([]complex128, 16), &pow, make([]complex128, 14), make([]complex128, 8), 2)
	})
}

// TestFIREnabledTracksDispatch: FIR is dispatched exactly when asm
// dispatch is on and the architecture has the kernel (amd64 only), so
// arm64 keeps the scalar filter while its other kernels run.
func TestFIREnabledTracksDispatch(t *testing.T) {
	prev := Enabled()
	defer SetEnabled(prev)
	SetEnabled(false)
	if FIREnabled() {
		t.Fatal("FIREnabled with dispatch off")
	}
	SetEnabled(true)
	if want := Enabled() && runtime.GOARCH == "amd64"; FIREnabled() != want {
		t.Fatalf("FIREnabled = %v with Enabled=%v on %s", FIREnabled(), Enabled(), runtime.GOARCH)
	}
}

// TestFIRMatchesDefinition checks the kernel against its documented sum
// on finite data, over output counts that take only the 8-output block,
// only 16-output blocks and both (the signal package proves bit identity
// against the scatter loop, raw float bits included).
func TestFIRMatchesDefinition(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	if !FIREnabled() {
		t.Skip("no FIR kernel in this build")
	}
	h := []float64{0.5, -1.25, 2, 0.75, -0.125}
	for _, n := range []int{8, 16, 24, 32, 40} {
		x := make([]complex128, n+len(h)-1)
		for i := range x {
			x[i] = complex(float64(i%7)-3, float64(i%5)*0.5)
		}
		dst := make([]complex128, n)
		FIR(dst, x, h)
		for k := range dst {
			var want complex128
			for t := range h {
				want += x[k+t] * complex(h[len(h)-1-t], 0)
			}
			if dst[k] != want {
				t.Fatalf("%d outputs, output %d: %v, want %v", n, k, dst[k], want)
			}
		}
	}
}

// TestSegCorrEnabledTracksDispatch: SegCorr is dispatched exactly when asm
// dispatch is on and the architecture has the kernel (amd64 only), so
// arm64 and noasm builds keep the scalar scan.
func TestSegCorrEnabledTracksDispatch(t *testing.T) {
	prev := Enabled()
	defer SetEnabled(prev)
	SetEnabled(false)
	if SegCorrEnabled() {
		t.Fatal("SegCorrEnabled with dispatch off")
	}
	SetEnabled(true)
	if want := Enabled() && runtime.GOARCH == "amd64"; SegCorrEnabled() != want {
		t.Fatalf("SegCorrEnabled = %v with Enabled=%v on %s", SegCorrEnabled(), Enabled(), runtime.GOARCH)
	}
}

// TestSegCorrMatchesDefinition checks the kernel against its documented
// sums on finite data (the zigbee package proves bit identity against
// the detection scan, raw float bits included).
func TestSegCorrMatchesDefinition(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	if !SegCorrEnabled() {
		t.Skip("no SegCorr kernel in this build")
	}
	const nseg, seg = 3, 5
	c := make([]complex128, nseg*seg)
	for i := range c {
		c[i] = complex(float64(i%4)-1.5, 0.25*float64(i%3)-0.5)
	}
	x := make([]complex128, len(c)+7+2)
	for i := range x {
		x[i] = complex(float64(i%7)-3, float64(i%5)*0.5-1)
	}
	acc := make([]complex128, 8*nseg)
	var pow [8]float64
	SegCorr(acc, &pow, x[2:], c, nseg)
	for k := 0; k < 8; k++ {
		var p float64
		for s := 0; s < nseg; s++ {
			var want complex128
			for j := 0; j < seg; j++ {
				v := x[2+k+s*seg+j]
				want += v * c[s*seg+j]
				p += real(v)*real(v) + imag(v)*imag(v)
			}
			if got := acc[8*s+k]; got != want {
				t.Fatalf("offset %d segment %d: %v, want %v", k, s, got, want)
			}
		}
		if pow[k] != p {
			t.Fatalf("offset %d power: %v, want %v", k, pow[k], p)
		}
	}
}
