package synth

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewTimelineValidation(t *testing.T) {
	u := NewUserProfile(0, 1)
	if _, err := NewTimeline(u, -1, 1); err == nil {
		t.Fatal("negative hour accepted")
	}
	if _, err := NewTimeline(u, 24, 1); err == nil {
		t.Fatal("hour 24 accepted")
	}
	tl, err := NewTimeline(u, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Hour() != 3 {
		t.Fatalf("hour %d, want 3", tl.Hour())
	}
}

func TestTimelineBoutsPersist(t *testing.T) {
	u := NewUserProfile(1, 2)
	tl, err := NewTimeline(u, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Count label changes across 2000 windows: with 1–16 minute bouts the
	// stream must be strongly autocorrelated, i.e. far fewer changes than
	// windows.
	prev := tl.Next().Activity
	changes := 0
	for i := 0; i < 2000; i++ {
		cur := tl.Next().Activity
		if cur != prev {
			changes++
		}
		prev = cur
	}
	if changes > 200 {
		t.Fatalf("%d label changes in 2000 windows: bouts do not persist", changes)
	}
	if changes == 0 {
		t.Fatal("no activity changes in 2000 windows (~53 min)")
	}
}

func TestTimelineTransitionsBridgeBouts(t *testing.T) {
	u := NewUserProfile(2, 4)
	tl, err := NewTimeline(u, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Whenever the persistent activity changes, a Transition window must
	// appear between the bouts: two consecutive windows may only differ
	// if one of them is a Transition.
	prev := tl.Current()
	sawTransition := false
	for i := 0; i < 5000; i++ {
		w := tl.Next()
		if w.Activity == Transition {
			sawTransition = true
		} else if prev != Transition && w.Activity != prev {
			t.Fatalf("window %d: %v -> %v with no transition", i, prev, w.Activity)
		}
		prev = w.Activity
	}
	if !sawTransition {
		t.Fatal("no transitions in 5000 windows")
	}
}

func TestTimelineHourlyMixShapesStream(t *testing.T) {
	u := NewUserProfile(3, 6)
	// Night: overwhelmingly lying down.
	tl, err := NewTimeline(u, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	lie := 0
	const n = 1500
	for i := 0; i < n; i++ {
		if tl.Next().Activity == LieDown {
			lie++
		}
	}
	if float64(lie)/n < 0.6 {
		t.Fatalf("only %d/%d night windows lying down", lie, n)
	}
	// Midday: mostly not lying down.
	tl2, err := NewTimeline(u, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	lie = 0
	for i := 0; i < n; i++ {
		if tl2.Next().Activity == LieDown {
			lie++
		}
	}
	if float64(lie)/n > 0.2 {
		t.Fatalf("%d/%d midday windows lying down", lie, n)
	}
}

func TestTimelineClockAdvances(t *testing.T) {
	u := NewUserProfile(4, 8)
	tl, err := NewTimeline(u, 23, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < WindowsPerHour; i++ {
		tl.Next()
	}
	if tl.Hour() != 0 {
		t.Fatalf("hour %d after one hour of windows from 23, want 0 (wrap)", tl.Hour())
	}
}

func TestHourlyMixDistributions(t *testing.T) {
	for hour := 0; hour < 24; hour++ {
		mix := hourlyMix(hour)
		var sum float64
		for a, p := range mix {
			if p < 0 {
				t.Fatalf("hour %d: negative probability for %v", hour, a)
			}
			if a == Transition {
				t.Fatalf("hour %d: transition in the persistent mix", hour)
			}
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("hour %d: mix sums to %v", hour, sum)
		}
	}
}

// The bout table must pick exactly what a walk over hourlyMix picks:
// same activities, same order, thresholds summed in the same order —
// including at and just below every threshold, where a rounding
// difference in the sums would show.
func TestBoutActivityMatchesHourlyMix(t *testing.T) {
	walk := func(hour int, r float64) Activity {
		mix := hourlyMix(hour)
		acc := 0.0
		for _, a := range Activities() {
			p, ok := mix[a]
			if !ok {
				continue
			}
			acc += p
			if r < acc {
				return a
			}
		}
		return Sit
	}
	rng := rand.New(rand.NewSource(1))
	for hour := 0; hour < 24; hour++ {
		draws := []float64{0, math.Nextafter(1, 0)}
		for k := 0; k < boutTable[hour].n; k++ {
			acc := boutTable[hour].acc[k]
			draws = append(draws, acc, math.Nextafter(acc, 0), math.Nextafter(acc, 1))
		}
		for i := 0; i < 1000; i++ {
			draws = append(draws, rng.Float64())
		}
		for _, r := range draws {
			if got, want := boutActivity(hour, r), walk(hour, r); got != want {
				t.Fatalf("hour %d r %v: table picks %v, hourlyMix walk %v", hour, r, got, want)
			}
		}
	}
}

func TestDayGeneratesFullStream(t *testing.T) {
	u := NewUserProfile(5, 10)
	day, err := Day(u, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(day) != 24*WindowsPerHour {
		t.Fatalf("day has %d windows, want %d", len(day), 24*WindowsPerHour)
	}
	// Determinism.
	day2, err := Day(u, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range day {
		if day[i].Activity != day2[i].Activity {
			t.Fatal("same seed produced different days")
		}
	}
}

// Advance and Skip must move the stream exactly as n NextLabel calls
// would — the churn seam (a device that was offline for an hour rejoins
// a user who kept living through it) and the sim package's hourly
// intensity both rest on it. The per-window loop is the oracle: Advance's
// counts must equal the histogram of the labels it replaces, the clock
// must agree, and the streams must stay in lockstep afterwards. The n
// values cover no-op, single windows, mid-bout stops, one window short
// of an hour roll, the roll itself, and several rolls.
func TestTimelineSkipAdvancesLikeNext(t *testing.T) {
	for _, seed := range []int64{1, 42, 7919} {
		for _, hour := range []int{0, 5, 23} {
			for _, n := range []int{0, 1, 39, WindowsPerHour - 1, WindowsPerHour, 3*WindowsPerHour + 17} {
				user := NewUserProfile(3, seed)
				mk := func() *Timeline {
					tl, err := NewTimeline(user, hour, seed)
					if err != nil {
						t.Fatal(err)
					}
					return tl
				}
				oracle, adv, skip := mk(), mk(), mk()
				var want, got [NumActivities]int
				for i := 0; i < n; i++ {
					want[oracle.NextLabel()]++
				}
				adv.Advance(n, &got)
				skip.Skip(n)
				if got != want {
					t.Fatalf("seed %d hour %d n %d: Advance counts %v, NextLabel histogram %v", seed, hour, n, got, want)
				}
				for _, tl := range []*Timeline{adv, skip} {
					if tl.Hour() != oracle.Hour() {
						t.Fatalf("seed %d hour %d n %d: hour %d, want %d", seed, hour, n, tl.Hour(), oracle.Hour())
					}
				}
				for i := 0; i < 3*WindowsPerHour; i++ {
					lo, la, ls := oracle.NextLabel(), adv.NextLabel(), skip.NextLabel()
					if la != lo || ls != lo {
						t.Fatalf("seed %d hour %d n %d: window %d after advance: NextLabel %v, Advance %v, Skip %v", seed, hour, n, i, lo, la, ls)
					}
				}
			}
		}
	}
}
