package policy

import (
	"reflect"
	"strings"
	"testing"
)

const groupedDoc = `
// fleet-wide baseline
{[deny][library]["com/malware"]}
{[allow][library]["com/benign"]}

//@group engineering
{[deny][library]["com/tracker/eng"]}
{[deny][class]["Lcom/exfil/Beacon;"]}

//@group sales
{[deny][library]["com/tracker/sales"]}

//@group engineering
{[deny][method]["Lcom/exfil/Beacon;->send()V"]}
`

func TestParseGroupSetSplitsSections(t *testing.T) {
	gs, err := ParseGroupSet(groupedDoc)
	if err != nil {
		t.Fatalf("ParseGroupSet: %v", err)
	}
	if len(gs.Global) != 2 {
		t.Fatalf("global rules = %d, want 2", len(gs.Global))
	}
	if got := gs.Names(); !reflect.DeepEqual(got, []string{"engineering", "sales"}) {
		t.Fatalf("Names() = %v", got)
	}
	// Re-opened sections merge in document order.
	eng := gs.Groups[0]
	if len(eng.Rules) != 3 {
		t.Fatalf("engineering rules = %d, want 3 (merged sections)", len(eng.Rules))
	}
	if eng.Rules[2].Level != LevelMethod {
		t.Fatalf("merged rule out of order: %v", eng.Rules[2])
	}
	if len(gs.Groups[1].Rules) != 1 {
		t.Fatalf("sales rules = %d, want 1", len(gs.Groups[1].Rules))
	}
}

func TestGroupedDocIsValidFlatPolicy(t *testing.T) {
	// The base parser must see every rule and ignore the directives, so
	// an N=1 deployment can consume the fleet document unchanged.
	rules, err := ParsePolicyString(groupedDoc)
	if err != nil {
		t.Fatalf("ParsePolicyString on grouped doc: %v", err)
	}
	if len(rules) != 6 {
		t.Fatalf("flat parse saw %d rules, want 6 (union of all sections)", len(rules))
	}
}

// TestGroupSetRulesFor: the shard DocFor renders for some groups holds the
// global rules and those groups' rules.
func TestGroupSetRulesFor(t *testing.T) {
	gs, err := ParseGroupSet(groupedDoc)
	if err != nil {
		t.Fatalf("ParseGroupSet: %v", err)
	}
	shard := func(groups ...string) []Rule {
		t.Helper()
		rules, err := ParsePolicyString(gs.DocFor(groups...))
		if err != nil {
			t.Fatalf("shard for %v: %v", groups, err)
		}
		return rules
	}
	sales := shard("sales")
	if len(sales) != 3 { // 2 global + 1 sales
		t.Fatalf("sales shard = %d rules, want 3", len(sales))
	}
	for _, r := range sales {
		if strings.Contains(r.Target, "eng") || strings.Contains(r.Target, "Beacon") {
			t.Fatalf("sales shard leaked engineering rule %v", r)
		}
	}
	// Duplicates and unknown names are skipped, not errors.
	both := shard("sales", "sales", "nonexistent", "engineering")
	if len(both) != 6 {
		t.Fatalf("combined shard = %d rules, want 6", len(both))
	}
	// A group absent from the document gets just the global rules.
	if got := shard("nonexistent"); len(got) != 2 {
		t.Fatalf("unknown group shard = %d rules, want 2 global", len(got))
	}
}

func TestGroupSetDocForRoundTrip(t *testing.T) {
	gs, err := ParseGroupSet(groupedDoc)
	if err != nil {
		t.Fatalf("ParseGroupSet: %v", err)
	}
	// DocFor output reparses to exactly the requested shard.
	shard := gs.DocFor("engineering")
	gs2, err := ParseGroupSet(shard)
	if err != nil {
		t.Fatalf("reparse shard: %v", err)
	}
	if !reflect.DeepEqual(gs2.Global, gs.Global) {
		t.Fatalf("shard global mismatch: %v vs %v", gs2.Global, gs.Global)
	}
	if len(gs2.Groups) != 1 || gs2.Groups[0].Name != "engineering" {
		t.Fatalf("shard groups = %+v", gs2.Groups)
	}
	if !reflect.DeepEqual(gs2.Groups[0].Rules, gs.Groups[0].Rules) {
		t.Fatalf("shard rules mismatch")
	}
	// Format round-trips the whole document.
	gs3, err := ParseGroupSet(gs.Format())
	if err != nil {
		t.Fatalf("reparse Format(): %v", err)
	}
	if !reflect.DeepEqual(gs3, gs) {
		t.Fatalf("Format round trip mismatch:\n%+v\n%+v", gs3, gs)
	}
	// DocFor is deterministic: same inputs, same bytes.
	if gs.DocFor("engineering") != shard {
		t.Fatal("DocFor not deterministic")
	}
}

func TestGroupSetDirectiveErrors(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"unknown directive", "//@shard x\n{[deny][library][\"a\"]}"},
		{"missing name", "//@group\n{[deny][library][\"a\"]}"},
		{"missing name with space", "//@group   \n{[deny][library][\"a\"]}"},
		{"two names", "//@group a b\n{[deny][library][\"a\"]}"},
	}
	for _, tc := range cases {
		if _, err := ParseGroupSet(tc.doc); err == nil {
			t.Errorf("%s: ParseGroupSet accepted %q", tc.name, tc.doc)
		}
	}
}

func TestGroupSetDirectiveInsideRuleIsContent(t *testing.T) {
	// A //@group inside a quoted target is data, not a directive.
	doc := "{[deny][library][\"//@group fake\"]}\n//@group real\n{[deny][library][\"x\"]}"
	gs, err := ParseGroupSet(doc)
	if err != nil {
		t.Fatalf("ParseGroupSet: %v", err)
	}
	if len(gs.Global) != 1 || gs.Global[0].Target != "//@group fake" {
		t.Fatalf("quoted directive mangled: %+v", gs.Global)
	}
	if len(gs.Groups) != 1 || gs.Groups[0].Name != "real" {
		t.Fatalf("groups = %+v", gs.Groups)
	}
	// A trailing //@group after a rule on the same line is an ordinary
	// comment to both parsers.
	doc2 := "{[deny][library][\"x\"]} //@group trailing\n"
	gs2, err := ParseGroupSet(doc2)
	if err != nil {
		t.Fatalf("ParseGroupSet trailing: %v", err)
	}
	if len(gs2.Groups) != 0 || len(gs2.Global) != 1 {
		t.Fatalf("trailing comment treated as directive: %+v", gs2)
	}
}
