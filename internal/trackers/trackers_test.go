package trackers

import "testing"

func TestCatalogSizeAndDeterminism(t *testing.T) {
	a := Catalog()
	b := Catalog()
	if len(a) != CatalogSize {
		t.Fatalf("catalog has %d entries, want %d", len(a), CatalogSize)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("catalog not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCatalogSortedByPopularity(t *testing.T) {
	libs := Catalog()
	for i := 1; i < len(libs); i++ {
		if libs[i].Popularity > libs[i-1].Popularity {
			t.Fatalf("catalog not popularity-sorted at %d", i)
		}
	}
	if libs[0].Package != "com/flurry" {
		t.Fatalf("most popular library = %s, want com/flurry", libs[0].Package)
	}
}

func TestCatalogUniquePackages(t *testing.T) {
	seen := make(map[string]bool, CatalogSize)
	for _, l := range Catalog() {
		if seen[l.Package] {
			t.Fatalf("duplicate package %s", l.Package)
		}
		seen[l.Package] = true
		if l.Package == "" || l.Category == 0 {
			t.Fatalf("incomplete entry %+v", l)
		}
	}
}

func TestCategoryString(t *testing.T) {
	if Analytics.String() != "analytics" || Advertising.String() != "advertising" {
		t.Error("category names")
	}
	if Category(99).String() == "" {
		t.Error("unknown category must still render")
	}
}
