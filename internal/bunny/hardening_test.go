package bunny

import (
	"testing"

	"lupine/internal/attack"
)

// TestHardeningDigestAndBuild: hardening defaults to off and is a
// semantic spec difference — distinct digests, distinct artifacts — and
// the compiled image really carries the mitigation options (priced,
// visible to attack.FromImage).
func TestHardeningDigestAndBuild(t *testing.T) {
	off := New("redis")
	if off.Hardening != attack.HardeningOff {
		t.Fatalf("default hardening %q, want off", off.Hardening)
	}
	full := New("redis")
	full.Hardening = attack.HardeningFull
	full.Normalize()
	if off.Digest() == full.Digest() {
		t.Fatal("hardening levels must not share a digest")
	}
	// An explicit "off" means the same build as the default.
	explicit := New("redis")
	explicit.Hardening = attack.HardeningOff
	explicit.Normalize()
	if explicit.Digest() != off.Digest() {
		t.Fatal("explicit off and default must digest identically")
	}

	c := testCache(t, 0)
	aOff, err := c.Compile(off, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	aFull, err := c.Compile(full, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if aOff.KernelID == aFull.KernelID {
		t.Fatal("hardened build must be a distinct kernel identity")
	}
	sOff, sFull := attack.FromImage(aOff.Uni.Kernel), attack.FromImage(aFull.Uni.Kernel)
	if sOff.ASLR || sOff.WX {
		t.Fatalf("unhardened surface reports mitigations: %+v", sOff)
	}
	if !sFull.ASLR || !sFull.WX {
		t.Fatalf("hardened surface missing mitigations: %+v", sFull)
	}
	if aFull.Uni.Kernel.BootOptionCost <= aOff.Uni.Kernel.BootOptionCost {
		t.Fatalf("hardening must cost boot time: full %v vs off %v",
			aFull.Uni.Kernel.BootOptionCost, aOff.Uni.Kernel.BootOptionCost)
	}
	if aFull.Uni.Kernel.Size <= aOff.Uni.Kernel.Size {
		t.Fatalf("hardening must cost image size: full %d vs off %d",
			aFull.Uni.Kernel.Size, aOff.Uni.Kernel.Size)
	}
}
