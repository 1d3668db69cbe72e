package simclock

import (
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("new clock at %v, want 0", got)
	}
}

func TestAdvance(t *testing.T) {
	c := New()
	c.Advance(5 * Microsecond)
	c.Advance(20 * Nanosecond)
	if got, want := c.Now(), Time(5020); got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	New().Advance(-1)
}

func TestAdvanceToBackwardsPanics(t *testing.T) {
	c := New()
	c.Advance(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backwards AdvanceTo")
		}
	}()
	c.AdvanceTo(5)
}

func TestAdvanceTo(t *testing.T) {
	c := New()
	c.AdvanceTo(42)
	if c.Now() != 42 {
		t.Fatalf("Now() = %v, want 42", c.Now())
	}
	c.AdvanceTo(42) // same instant is allowed
	if c.Now() != 42 {
		t.Fatalf("Now() = %v, want 42", c.Now())
	}
}

func TestDurationUnits(t *testing.T) {
	tests := []struct {
		d    Duration
		us   float64
		ms   float64
		s    float64
		text string
	}{
		{1500 * Nanosecond, 1.5, 0.0015, 1.5e-6, "1.5µs"},
		{23 * Millisecond, 23000, 23, 0.023, "23ms"},
		{2 * Second, 2e6, 2000, 2, "2s"},
	}
	for _, tt := range tests {
		if got := tt.d.Microseconds(); got != tt.us {
			t.Errorf("%v.Microseconds() = %v, want %v", tt.d, got, tt.us)
		}
		if got := tt.d.Milliseconds(); got != tt.ms {
			t.Errorf("%v.Milliseconds() = %v, want %v", tt.d, got, tt.ms)
		}
		if got := tt.d.Seconds(); got != tt.s {
			t.Errorf("%v.Seconds() = %v, want %v", tt.d, got, tt.s)
		}
		if got := tt.d.String(); got != tt.text {
			t.Errorf("%v.String() = %q, want %q", tt.d, got, tt.text)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(100)
	b := a.Add(50)
	if b != 150 {
		t.Fatalf("Add = %v, want 150", b)
	}
	if d := b.Sub(a); d != 50 {
		t.Fatalf("Sub = %v, want 50", d)
	}
	if !a.Before(b) || b.Before(a) {
		t.Fatalf("Before ordering wrong: a=%v b=%v", a, b)
	}
}

// Property: advancing by a sequence of non-negative durations yields a time
// equal to their sum, and the clock is monotonic at every step.
func TestAdvanceMonotonicProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		c := New()
		var sum Time
		prev := c.Now()
		for _, s := range steps {
			c.Advance(Duration(s))
			sum += Time(s)
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return c.Now() == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleFiresOnAlignedBoundaries(t *testing.T) {
	c := New()
	var at []Time
	c.Sample(10, func(now Time) {
		at = append(at, now)
		if c.Now() != now {
			t.Fatalf("sampler sees clock at %v, boundary %v", c.Now(), now)
		}
	})
	c.AdvanceTo(35)
	want := []Time{10, 20, 30}
	if len(at) != len(want) {
		t.Fatalf("boundaries = %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("boundaries = %v, want %v", at, want)
		}
	}
	if c.Now() != 35 {
		t.Fatalf("clock ends at %v, want 35", c.Now())
	}
}

func TestSampleNoBoundaryAtZero(t *testing.T) {
	c := New()
	fired := 0
	c.Sample(10, func(Time) { fired++ })
	c.AdvanceTo(0)
	c.Advance(0)
	if fired != 0 {
		t.Fatalf("sampler fired %d times without the clock crossing a boundary", fired)
	}
	c.Advance(10)
	if fired != 1 {
		t.Fatalf("sampler fired %d times after reaching t=10, want 1", fired)
	}
}

func TestSampleBoundaryEqualToTargetFires(t *testing.T) {
	c := New()
	var at []Time
	c.Sample(10, func(now Time) { at = append(at, now) })
	c.AdvanceTo(10) // boundary exactly at the advance target
	if len(at) != 1 || at[0] != 10 {
		t.Fatalf("boundaries = %v, want [10]", at)
	}
	c.AdvanceTo(10) // no further movement, no re-fire
	if len(at) != 1 {
		t.Fatalf("boundary re-fired on a zero-width advance: %v", at)
	}
}

func TestSampleRegisteredMidRunStartsStrictlyAfterNow(t *testing.T) {
	c := New()
	c.AdvanceTo(25)
	var at []Time
	c.Sample(10, func(now Time) { at = append(at, now) })
	c.AdvanceTo(45)
	want := []Time{30, 40}
	if len(at) != len(want) || at[0] != want[0] || at[1] != want[1] {
		t.Fatalf("boundaries = %v, want %v", at, want)
	}
}

func TestSampleMultipleSamplersFireInTimeOrder(t *testing.T) {
	c := New()
	var log []string
	c.Sample(10, func(now Time) { log = append(log, "a@"+now.String()) })
	c.Sample(15, func(now Time) { log = append(log, "b@"+now.String()) })
	c.AdvanceTo(30)
	want := []string{"a@" + Time(10).String(), "b@" + Time(15).String(),
		"a@" + Time(20).String(), "a@" + Time(30).String(), "b@" + Time(30).String()}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestSampleNonPositiveIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(0) did not panic")
		}
	}()
	New().Sample(0, func(Time) {})
}
