package experiments

import (
	"strings"
	"testing"
)

// TestRunFleetSmoke is the CI-scale fleet table: three gateways, and the
// fleet of one, under the race detector, held to every named check, each
// broken once. The first push changes every shard, the second gateway 0's
// only.
func TestRunFleetSmoke(t *testing.T) {
	for _, c := range []struct{ gateways, devices, shards, changed int }{
		{3, 40, 6, 4},
		{1, 20, 2, 2},
	} {
		res := runTable(t, FleetScenario(c.gateways, c.devices, nil, nil))
		if res.PushShards != c.shards || res.PushChanged != c.changed {
			t.Fatalf("%d gateways: pushes reached %d shards and changed %d, want %d and %d",
				c.gateways, res.PushShards, res.PushChanged, c.shards, c.changed)
		}
		if res.Delivered == 0 || res.Dropped == 0 {
			t.Fatalf("%d gateways: degenerate run: %d delivered, %d dropped", c.gateways, res.Delivered, res.Dropped)
		}
	}
}

// TestFleetScenarioRefusesOversizedFleet: a fleet table past the subnet
// plan fails before anything is built.
func TestFleetScenarioRefusesOversizedFleet(t *testing.T) {
	_, err := RunScenario(FleetScenario(maxFleetGateways+1, 1, nil, nil))
	if err == nil || !strings.Contains(err.Error(), "at most 200 gateways") {
		t.Fatalf("RunScenario returned %v, want the gateway-count refusal", err)
	}
}

// TestFleetScenarioRefusesEmptyFleet: a fleet table of fewer than one
// gateway is still a fleet, and fails with NewFleet's refusal before
// anything is built, not as a testbed table of no apps.
func TestFleetScenarioRefusesEmptyFleet(t *testing.T) {
	for _, gateways := range []int{0, -1} {
		_, err := RunScenario(FleetScenario(gateways, 40, nil, nil))
		if err == nil || !strings.Contains(err.Error(), "fleet needs at least one gateway") {
			t.Fatalf("%d gateways: RunScenario returned %v, want NewFleet's refusal", gateways, err)
		}
	}
}

// TestRunFleetAtScale runs the fleet table at the smallest scale whose
// run outlasts a fixed 90 s flow TTL: 8 gateways of 1,370 devices, 361,680
// packets over minutes of virtual time. Every flow must still be cached
// when each push lands, so the push's generation move shows as stale
// drops, and the heap check must measure what the gateways grew, not the
// traffic pool built before the run.
func TestRunFleetAtScale(t *testing.T) {
	res := runTable(t, FleetScenario(8, 1370, nil, nil))
	if res.Packets != 8*1370*3*fleetDevicePackets {
		t.Fatalf("%d packets, want %d", res.Packets, 8*1370*3*fleetDevicePackets)
	}
}
