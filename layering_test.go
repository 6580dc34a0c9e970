package borderpatrol

import (
	"go/types"
	"slices"
	"strings"
	"testing"
)

// layer is the side of the system/world boundary a package under
// internal/ sits on.
type layer string

const (
	// system is BorderPatrol itself: the device's Context Manager, the
	// gateway and its stages, the control plane and the formats they share.
	system layer = "system"
	// world is the simulated testbed the system runs in: the device's OS
	// and kernel, the network, the servers.
	world layer = "world"
	// harness drives and judges both: experiments, generators, baselines
	// and the reference model.
	harness layer = "harness"
)

// layers classes every package under internal/. A system package reaches
// no world or harness package, directly or through another, except the
// world packages its row names: contextmgr, the system's device half, is
// an Xposed module hosted by the simulated Android. A row names exactly
// what its package reaches, so a new reach is a reviewed edit here.
var layers = map[string]struct {
	layer layer
	world []string
}{
	"analyzer":    {layer: system},
	"audit":       {layer: system},
	"cliflags":    {layer: system},
	"contextmgr":  {layer: system, world: []string{"android", "block", "httpsim", "kernel", "netstack"}},
	"devctx":      {layer: system},
	"dex":         {layer: system},
	"enforcer":    {layer: system},
	"extractor":   {layer: system},
	"flowtable":   {layer: system},
	"gateway":     {layer: system},
	"ipv4":        {layer: system},
	"metrics":     {layer: system},
	"policy":      {layer: system},
	"policystore": {layer: system},
	"sanitizer":   {layer: system},
	"tag":         {layer: system},
	"transport":   {layer: system},

	"android":  {layer: world},
	"block":    {layer: world},
	"dns":      {layer: world},
	"httpsim":  {layer: world},
	"kernel":   {layer: world},
	"netsim":   {layer: world},
	"netstack": {layer: world},

	"apkgen":      {layer: harness},
	"baseline":    {layer: harness},
	"experiments": {layer: harness},
	"ioi":         {layer: harness},
	"monkey":      {layer: harness},
	"refmodel":    {layer: harness},
	"trackers":    {layer: harness},
}

// internalReach is every package under internal/ that pkg imports,
// directly or through another, by its short name.
func internalReach(pkg *types.Package) map[string]bool {
	reach := map[string]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			name, ok := strings.CutPrefix(imp.Path(), "borderpatrol/internal/")
			if !ok || reach[name] {
				continue
			}
			reach[name] = true
			walk(imp)
		}
	}
	walk(pkg)
	return reach
}

// TestSystemReachesNoWorld holds the module to its layering: every package
// under internal/ has a row in layers, and no system package's non-test
// imports reach a world or harness package beyond the world packages its
// row names — which it must then reach, so the row stays exact.
func TestSystemReachesNoWorld(t *testing.T) {
	m := loadModule(t)
	seen := map[string]bool{}
	for _, p := range m.pkgs {
		name := p.internalName()
		if name == "" {
			continue
		}
		seen[name] = true
		row, ok := layers[name]
		switch {
		case !ok:
			t.Errorf("internal/%s has no row in layers: class it as system, world or harness", name)
			continue
		case row.layer != system && row.world != nil:
			t.Errorf("internal/%s is %s: only a system package's row names world packages", name, row.layer)
		}
		if row.layer != system {
			continue
		}
		reach := internalReach(p.types)
		var beyond []string
		for dep := range reach {
			if l := layers[dep].layer; l != system && !slices.Contains(row.world, dep) {
				beyond = append(beyond, dep+" ("+string(l)+")")
			}
		}
		slices.Sort(beyond)
		for _, dep := range beyond {
			t.Errorf("internal/%s is system but imports, directly or through another package, internal/%s", name, dep)
		}
		for _, dep := range row.world {
			if layers[dep].layer != world || !reach[dep] {
				t.Errorf("internal/%s's row names internal/%s, which is no world package it reaches", name, dep)
			}
		}
	}
	for name := range layers {
		if !seen[name] {
			t.Errorf("layers names internal/%s, which is no package", name)
		}
	}
}
