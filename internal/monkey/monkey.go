// Package monkey is the adb-monkey stand-in (paper §VI-A): a seeded random
// UI-event generator. The paper issues 5,000 random events per app; most UI
// events (touches, swipes, key presses) do not reach the network, while a
// fraction lands on widgets wired to network functionality. The exerciser
// models exactly that: every event picks an action, and network-triggering
// events select a functionality weighted by the app's behaviour graph.
package monkey

import (
	"errors"
	"fmt"
	"math/rand"

	"borderpatrol/internal/android"
	"borderpatrol/internal/ipv4"
)

// networkTriggerProb is the probability that one event lands on a
// network-wired widget.
const networkTriggerProb = 0.02

// Config controls an exerciser run.
type Config struct {
	// Events is the number of UI events to inject (the paper uses 5,000).
	Events int
	// Seed drives the event stream.
	Seed int64
}

// Report summarizes one run.
type Report struct {
	// EventsInjected counts all UI events.
	EventsInjected int
	// Invocations counts network functionality triggers.
	Invocations int
	// InvocationsByName counts triggers per functionality.
	InvocationsByName map[string]int
	// Packets are all packets the app emitted during the run.
	Packets []*ipv4.Packet
	// Coverage is the fraction of the app's functionalities triggered at
	// least once (the paper notes monkey coverage bounds its Fig. 3 from
	// below).
	Coverage float64
	// Errors counts failed invocations.
	Errors int
}

// ErrNoFunctionality reports an app with nothing to exercise.
var ErrNoFunctionality = errors.New("monkey: app has no functionalities")

// Run exercises one app.
func Run(app *android.App, cfg Config) (*Report, error) {
	names := app.Functionalities()
	if len(names) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoFunctionality, app.APK.PackageName)
	}
	if cfg.Events <= 0 {
		return nil, fmt.Errorf("monkey: invalid event count %d", cfg.Events)
	}
	// Build the weighted trigger table.
	weights := make([]float64, len(names))
	total := 0.0
	for i, n := range names {
		f, _ := app.Functionality(n)
		w := f.Weight
		if w < 0 {
			w = 0
		}
		if w == 0 && f.Weight == 0 {
			// Unweighted behaviour graphs exercise uniformly.
			w = 1
		}
		weights[i] = w
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("monkey: app %s has zero total weight", app.APK.PackageName)
	}

	r := rand.New(rand.NewSource(cfg.Seed))
	rep := &Report{InvocationsByName: make(map[string]int, len(names))}
	for ev := 0; ev < cfg.Events; ev++ {
		rep.EventsInjected++
		if r.Float64() >= networkTriggerProb {
			continue // touch/swipe/key event with no network effect
		}
		name := pickWeighted(r, names, weights, total)
		res, err := app.Invoke(name)
		rep.Invocations++
		rep.InvocationsByName[name]++
		if err != nil {
			rep.Errors++
			continue
		}
		rep.Packets = append(rep.Packets, res.Packets...)
	}
	triggered := 0
	for _, n := range names {
		if rep.InvocationsByName[n] > 0 {
			triggered++
		}
	}
	rep.Coverage = float64(triggered) / float64(len(names))
	return rep, nil
}

func pickWeighted(r *rand.Rand, names []string, weights []float64, total float64) string {
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return names[i]
		}
	}
	return names[len(names)-1]
}
