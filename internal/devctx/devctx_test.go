package devctx

import (
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
)

type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

var dev = netip.MustParseAddr("10.0.0.5")

// TestSourceReadsItsClock: a source has one time source, the clock it was
// built on, which the enforcer reads through Now; there is no clockless mode.
func TestSourceReadsItsClock(t *testing.T) {
	clk := &fakeClock{now: 90 * time.Minute}
	if got := NewSource(clk).Now(); got != clk.now {
		t.Fatalf("Now = %v, want the clock's %v", got, clk.now)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewSource built a source without a clock")
		}
	}()
	NewSource(nil)
}

func TestUnknownDeviceDefaultsUntrusted(t *testing.T) {
	s := NewSource(&fakeClock{})
	ctx, ok := s.Lookup(dev)
	if ok {
		t.Fatal("unknown device reported as known")
	}
	if ctx.Network != policy.NetUnknown || ctx.ScreenLocked || ctx.VelocityKmh != 0 {
		t.Fatalf("unknown device context = %+v, want zero (least trusted)", ctx)
	}
}

func TestGenerationBumpsOnlyOnChange(t *testing.T) {
	s := NewSource(&fakeClock{})
	s.SetNetwork(dev, policy.NetTrusted)
	if g := s.Generation(); g != 1 {
		t.Fatalf("generation = %d after first change, want 1", g)
	}
	s.SetNetwork(dev, policy.NetTrusted) // no-op
	if g := s.Generation(); g != 1 {
		t.Fatalf("generation = %d after no-op, want 1", g)
	}
	s.SetScreenLocked(dev, true)
	s.SetPatchAge(dev, 120)
	if g := s.Generation(); g != 3 {
		t.Fatalf("generation = %d, want 3", g)
	}
	if net, posture := invalidations(s, "network"), invalidations(s, "posture"); net != 1 || posture != 2 {
		t.Fatalf("invalidations network/posture = %d/%d, want 1/2", net, posture)
	}
	ctx, ok := s.Lookup(dev)
	if !ok || ctx.Network != policy.NetTrusted || !ctx.ScreenLocked || ctx.PatchAgeDays != 120 {
		t.Fatalf("context = %+v ok=%v", ctx, ok)
	}
}

func TestVelocityFromLocationObservations(t *testing.T) {
	clk := &fakeClock{}
	s := NewSource(clk)

	// First fix establishes position, no velocity.
	s.ObserveLocation(dev, 52.52, 13.40) // Berlin
	if ctx, _ := s.Lookup(dev); ctx.VelocityKmh != 0 {
		t.Fatalf("velocity after first fix = %d", ctx.VelocityKmh)
	}

	// Berlin → Munich (~500 km) in 5 hours: ~100 km/h, plausible.
	clk.now = 5 * time.Hour
	s.ObserveLocation(dev, 48.14, 11.58)
	ctx, _ := s.Lookup(dev)
	if ctx.VelocityKmh < 80 || ctx.VelocityKmh > 130 {
		t.Fatalf("Berlin→Munich over 5h velocity = %d km/h", ctx.VelocityKmh)
	}
	if ctx.VelocityKmh >= policy.ImpossibleTravelKmh {
		t.Fatal("plausible travel flagged impossible")
	}

	// Munich → New York (~6500 km) in 1 hour: impossible.
	clk.now = 6 * time.Hour
	s.ObserveLocation(dev, 40.71, -74.01)
	ctx, _ = s.Lookup(dev)
	if ctx.VelocityKmh < policy.ImpossibleTravelKmh {
		t.Fatalf("Munich→NYC in 1h velocity = %d km/h, want impossible", ctx.VelocityKmh)
	}

	// Same instant, different place: clamped to the cap.
	s.ObserveLocation(dev, 35.68, 139.69)
	ctx, _ = s.Lookup(dev)
	if ctx.VelocityKmh != MaxVelocityKmh {
		t.Fatalf("same-instant jump velocity = %d, want cap %d", ctx.VelocityKmh, MaxVelocityKmh)
	}
	if invalidations(s, "travel") == 0 {
		t.Fatal("no travel invalidations")
	}
}

// invalidations reads bp_context_invalidations_total{cause}.
func invalidations(s *Source, cause string) uint64 {
	r := metrics.NewRegistry()
	s.RegisterMetrics(r)
	v, _ := r.Value("bp_context_invalidations_total", metrics.L("cause", cause))
	return uint64(v)
}

func TestProvisionAndForget(t *testing.T) {
	s := NewSource(&fakeClock{})
	want := policy.DeviceContext{Network: policy.NetCellular, PatchAgeDays: 30}
	s.Provision(dev, want)
	if ctx, ok := s.Lookup(dev); !ok || ctx != want {
		t.Fatalf("provisioned context = %+v ok=%v", ctx, ok)
	}
	s.Provision(dev, want) // no-op
	if g := s.Generation(); g != 1 {
		t.Fatalf("generation = %d after idempotent provision, want 1", g)
	}
	s.Forget(dev)
	if _, ok := s.Lookup(dev); ok {
		t.Fatal("device still known after Forget")
	}
	if s.Devices() != 0 {
		t.Fatalf("devices = %d", s.Devices())
	}
}

func TestRegisterMetrics(t *testing.T) {
	s := NewSource(&fakeClock{})
	s.SetNetwork(dev, policy.NetTrusted)
	s.SetScreenLocked(dev, true)
	reg := metrics.NewRegistry()
	s.RegisterMetrics(reg)
	found := map[string]bool{}
	for _, sm := range reg.Snapshot() {
		found[sm.Name] = true
	}
	for _, name := range []string{"bp_context_devices", "bp_context_changes_total", "bp_context_invalidations_total"} {
		if !found[name] {
			t.Fatalf("metric family %s missing (have %v)", name, found)
		}
	}
}

func TestConcurrentUpdatesAndLookups(t *testing.T) {
	// Race-detector coverage: readers on the miss path vs writers flipping
	// context.
	s := NewSource(&fakeClock{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Lookup(dev)
					s.Generation()
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s.SetNetwork(dev, policy.NetworkClass(i%3))
		s.SetScreenLocked(dev, i%2 == 0)
		s.ObserveLocation(dev, float64(i%90), float64(i%180))
	}
	close(stop)
	wg.Wait()
}

// otherStripe returns an address near base whose stripe differs from
// base's.
func otherStripe(t *testing.T, base netip.Addr) netip.Addr {
	t.Helper()
	for a := base.Next(); a.IsValid(); a = a.Next() {
		if Stripe(a) != Stripe(base) {
			return a
		}
	}
	t.Fatal("no address on another stripe")
	return netip.Addr{}
}

func TestChangeBumpsOnlyTheDevicesStripe(t *testing.T) {
	s := NewSource(&fakeClock{})
	other := otherStripe(t, dev)
	s.SetNetwork(dev, policy.NetTrusted)
	s.SetNetwork(dev, policy.NetTrusted) // no-op
	s.SetPatchAge(dev, 30)
	if g := s.GenerationFor(dev); g != 2 {
		t.Fatalf("device stripe version = %d after two changes, want 2", g)
	}
	if g := s.GenerationFor(other); g != 0 {
		t.Fatalf("bystander stripe version = %d, want 0", g)
	}
	s.Provision(other, policy.DeviceContext{Network: policy.NetCellular})
	s.Forget(other)
	if g, o := s.GenerationFor(dev), s.GenerationFor(other); g != 2 || o != 2 {
		t.Fatalf("stripe versions = %d, %d, want 2, 2", g, o)
	}
	if g := s.Generation(); g != 4 {
		t.Fatalf("global change count = %d, want 4", g)
	}
}

// TestStripeSpreadsAPool: consecutive pool addresses must not pile onto a
// few stripes, or one device's roam would re-evaluate a crowd.
func TestStripeSpreadsAPool(t *testing.T) {
	const devices = 4 * Stripes
	var load [Stripes]int
	a := netip.MustParseAddr("10.70.0.1")
	for i := 0; i < devices; i++ {
		load[Stripe(a)]++
		a = a.Next()
	}
	for i, n := range load {
		if n == 0 || n > 8 {
			t.Fatalf("stripe %d holds %d of %d consecutive addresses, want about %d", i, n, devices, devices/Stripes)
		}
	}
}

// TestStripeVersionOrdersAfterState pins the ordering contract for every
// mutator: a reader that sees the device's stripe version move must then
// Lookup the new state, never the old (a verdict computed from the old
// state would otherwise be cached under the new version and live on).
func TestStripeVersionOrdersAfterState(t *testing.T) {
	provisioned := policy.DeviceContext{Network: policy.NetCellular, PatchAgeDays: 9}
	cases := []struct {
		name   string
		mutate func(s *Source)
		isNew  func(ctx policy.DeviceContext, known bool) bool
	}{
		{"SetNetwork", func(s *Source) { s.SetNetwork(dev, policy.NetTrusted) },
			func(ctx policy.DeviceContext, _ bool) bool { return ctx.Network == policy.NetTrusted }},
		{"SetScreenLocked", func(s *Source) { s.SetScreenLocked(dev, true) },
			func(ctx policy.DeviceContext, _ bool) bool { return ctx.ScreenLocked }},
		{"SetPatchAge", func(s *Source) { s.SetPatchAge(dev, 77) },
			func(ctx policy.DeviceContext, _ bool) bool { return ctx.PatchAgeDays == 77 }},
		{"ObserveLocation", func(s *Source) { s.ObserveLocation(dev, 40.71, -74.01) },
			func(ctx policy.DeviceContext, _ bool) bool { return ctx.VelocityKmh == MaxVelocityKmh }},
		{"Provision", func(s *Source) { s.Provision(dev, provisioned) },
			func(ctx policy.DeviceContext, _ bool) bool { return ctx == provisioned }},
		{"Forget", func(s *Source) { s.Forget(dev) },
			func(_ policy.DeviceContext, known bool) bool { return !known }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < 200; round++ {
				s := NewSource(&fakeClock{})
				s.SetNetwork(dev, policy.NetCellular)
				s.ObserveLocation(dev, 52.52, 13.40) // a first fix, so the next one has a velocity
				before := s.GenerationFor(dev)
				var wg sync.WaitGroup
				for r := 0; r < 3; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for s.GenerationFor(dev) == before {
							runtime.Gosched()
						}
						if ctx, known := s.Lookup(dev); !tc.isNew(ctx, known) {
							t.Errorf("round %d: stripe version moved but Lookup returned %+v known=%v", round, ctx, known)
						}
					}()
				}
				tc.mutate(s)
				wg.Wait()
			}
		})
	}
}
