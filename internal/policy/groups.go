package policy

import (
	"fmt"
	"strings"
)

// This file layers device-group sharding on top of the base grammar
// without changing it. A grouped policy document interleaves rules with
// group directives:
//
//	{[deny][library]["com/malware"]}        // global: applies to every group
//	//@group engineering
//	{[deny][library]["com/tracker/eng"]}    // engineering shard only
//	//@group sales
//	{[deny][library]["com/tracker/sales"]}  // sales shard only
//
// Rules before the first //@group directive are global and are included
// in every shard. A //@group NAME directive opens (or re-opens) the named
// group's section; the same name may appear multiple times and the
// sections merge in document order.
//
// Because // starts a comment in the base grammar, a grouped document is
// also a valid flat document: ParsePolicyString sees every rule and
// ignores the directives, so a single gateway deployment can consume a
// fleet policy unchanged (the N=1 case enforces the union). The //@ prefix is reserved
// as the directive namespace: ParseGroupSet rejects unknown //@ words so a
// typo'd directive fails loudly instead of silently widening a shard.
//
// Directives must sit on their own line, outside any rule body. A
// //@group comment trailing a rule on the same line is an ordinary
// comment to both parsers.
//
// One scanner (scanDocument) serves ParsePolicyString, Compile and
// ParseGroupSet: ParseGroupSet adds only the directives, so its rules and
// refusals are ParsePolicyString's.

// GroupSet is a grouped policy document split into its global section and
// named per-group sections. It is the shared splitter fleet gateways use:
// each gateway renders only its groups' shard (DocFor) and compiles that.
type GroupSet struct {
	// Global holds the rules that precede any //@group directive. They
	// are part of every shard.
	Global []Rule
	// Groups holds each named section in first-appearance order.
	Groups []Group
}

// Group is one named section of a grouped policy document.
type Group struct {
	Name  string
	Rules []Rule
}

// groupDirective is the directive that opens a named section.
const groupDirective = "group"

// ParseGroupSet parses a grouped policy document. A flat document (no
// directives) parses to a GroupSet with only Global rules.
func ParseGroupSet(doc string) (*GroupSet, error) {
	gs := &GroupSet{}
	byName := map[string]int{} // name → index into gs.Groups
	cur := -1                  // -1 = global section
	rule := func(r Rule, _ ruleTarget) {
		if cur < 0 {
			gs.Global = append(gs.Global, r)
		} else {
			gs.Groups[cur].Rules = append(gs.Groups[cur].Rules, r)
		}
	}
	directive := func(lineNo int, text string) error {
		word, rest, _ := strings.Cut(text, " ")
		if word != groupDirective {
			return fmt.Errorf("%w: line %d: unknown directive //@%s", ErrBadRule, lineNo, word)
		}
		name := strings.TrimSpace(rest)
		if name == "" || strings.ContainsAny(name, " \t") {
			return fmt.Errorf("%w: line %d: //@group wants exactly one group name", ErrBadRule, lineNo)
		}
		idx, ok := byName[name]
		if !ok {
			idx = len(gs.Groups)
			byName[name] = idx
			gs.Groups = append(gs.Groups, Group{Name: name})
		}
		cur = idx
		return nil
	}
	if err := scanDocument(doc, rule, directive); err != nil {
		return nil, err
	}
	return gs, nil
}

// Names lists the group names in first-appearance order.
func (g *GroupSet) Names() []string {
	names := make([]string, len(g.Groups))
	for i, grp := range g.Groups {
		names[i] = grp.Name
	}
	return names
}

// group returns the named section, or nil when the document has none. A
// gateway scoped to a group the document does not (yet) mention simply
// gets the global rules.
func (g *GroupSet) group(name string) *Group {
	for i := range g.Groups {
		if g.Groups[i].Name == name {
			return &g.Groups[i]
		}
	}
	return nil
}

// DocFor renders the shard for the given groups as a policy document:
// the global rules, then a //@group directive and rules per named group.
// The render is deterministic for a given document and group list, so a
// content hash of the result only changes when this shard changes — the
// property sharded sources use to skip recompiles for other groups'
// edits.
func (g *GroupSet) DocFor(groups ...string) string {
	var b strings.Builder
	b.WriteString(FormatPolicy(g.Global))
	seen := map[string]bool{}
	for _, name := range groups {
		if seen[name] {
			continue
		}
		seen[name] = true
		grp := g.group(name)
		if grp == nil {
			continue
		}
		fmt.Fprintf(&b, "//@%s %s\n", groupDirective, grp.Name)
		b.WriteString(FormatPolicy(grp.Rules))
	}
	return b.String()
}

// Format renders the whole grouped document (every group) back into a
// parseable form. ParseGroupSet(Format()) reproduces the same GroupSet.
func (g *GroupSet) Format() string {
	return g.DocFor(g.Names()...)
}
