// Package trackers provides the deny-list substrate for the validation
// experiment (paper §VI-B1): a catalog of 1,050 third-party libraries known
// to exfiltrate sensitive information, standing in for the Li et al.
// (SANER'16) common-libraries dataset the paper uses. The catalog combines
// a curated head of well-known analytics/advertising package prefixes with
// a deterministic generated long tail, ranked by popularity so experiments
// can select "the 60 most popular libraries" exactly as the paper does.
package trackers

import (
	"fmt"
	"math/rand"
	"sort"
)

// Category classifies why a library is on the deny-list.
type Category int

// Categories of undesirable libraries.
const (
	// Analytics libraries collect usage telemetry.
	Analytics Category = iota + 1
	// Advertising libraries fetch and report ads.
	Advertising
	// SocialSDK libraries mix identity features with tracking.
	SocialSDK
	// CrashReporting libraries upload device state on faults.
	CrashReporting
	// Utility libraries bundle tracking side-channels.
	Utility
)

// String names the category.
func (c Category) String() string {
	switch c {
	case Analytics:
		return "analytics"
	case Advertising:
		return "advertising"
	case SocialSDK:
		return "social-sdk"
	case CrashReporting:
		return "crash-reporting"
	case Utility:
		return "utility"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// Library is one deny-list entry.
type Library struct {
	// Package is the Java package-path prefix ("com/flurry").
	Package string
	// Category is the library's tracking classification.
	Category Category
	// Popularity is a relative inclusion weight; higher means the library
	// appears in more apps (drives the experiment's top-60 sample).
	Popularity float64
}

// CatalogSize is the number of libraries in the full deny-list, matching
// the 1,050 libraries identified by Li et al. that the paper builds its
// validation policy from.
const CatalogSize = 1050

// curatedHead lists well-known tracking/advertising package prefixes; these
// anchor the popular end of the catalog (the names appear in the paper or
// are prominent in the ecosystem it samples).
var curatedHead = []Library{
	{Package: "com/flurry", Category: Analytics, Popularity: 1.00},
	{Package: "com/google/ads", Category: Advertising, Popularity: 0.98},
	{Package: "com/google/android/gms/analytics", Category: Analytics, Popularity: 0.96},
	{Package: "com/facebook/appevents", Category: SocialSDK, Popularity: 0.94},
	{Package: "com/crashlytics", Category: CrashReporting, Popularity: 0.92},
	{Package: "com/mixpanel", Category: Analytics, Popularity: 0.90},
	{Package: "com/appsflyer", Category: Analytics, Popularity: 0.88},
	{Package: "com/adjust/sdk", Category: Analytics, Popularity: 0.86},
	{Package: "com/mopub", Category: Advertising, Popularity: 0.84},
	{Package: "com/inmobi", Category: Advertising, Popularity: 0.82},
	{Package: "com/chartboost", Category: Advertising, Popularity: 0.80},
	{Package: "com/unity3d/ads", Category: Advertising, Popularity: 0.78},
	{Package: "com/applovin", Category: Advertising, Popularity: 0.76},
	{Package: "com/vungle", Category: Advertising, Popularity: 0.74},
	{Package: "com/tapjoy", Category: Advertising, Popularity: 0.72},
	{Package: "com/amplitude", Category: Analytics, Popularity: 0.70},
	{Package: "com/segment/analytics", Category: Analytics, Popularity: 0.68},
	{Package: "com/localytics", Category: Analytics, Popularity: 0.66},
	{Package: "com/kochava", Category: Analytics, Popularity: 0.64},
	{Package: "com/urbanairship", Category: Analytics, Popularity: 0.62},
	{Package: "io/branch", Category: Analytics, Popularity: 0.60},
	{Package: "com/comscore", Category: Analytics, Popularity: 0.58},
	{Package: "com/adcolony", Category: Advertising, Popularity: 0.56},
	{Package: "com/smaato", Category: Advertising, Popularity: 0.54},
	{Package: "com/millennialmedia", Category: Advertising, Popularity: 0.52},
	{Package: "com/startapp", Category: Advertising, Popularity: 0.50},
	{Package: "com/ironsource", Category: Advertising, Popularity: 0.48},
	{Package: "com/onesignal", Category: Analytics, Popularity: 0.46},
	{Package: "com/newrelic/agent", Category: CrashReporting, Popularity: 0.44},
	{Package: "com/bugsnag", Category: CrashReporting, Popularity: 0.42},
}

// Catalog builds the full deterministic 1,050-library deny-list: the
// curated head plus a generated Zipf-like long tail. The same seed always
// yields the identical catalog, so database keys and experiment samples are
// reproducible.
func Catalog() []Library {
	libs := make([]Library, 0, CatalogSize)
	libs = append(libs, curatedHead...)
	r := rand.New(rand.NewSource(1050))
	vendors := []string{"adnet", "metricx", "trackly", "quantify", "pingbase",
		"admax", "statsy", "beaconly", "telemetria", "insightful",
		"audiencehub", "growthkit", "funnelio", "attribix", "clickstream"}
	kinds := []Category{Analytics, Advertising, SocialSDK, CrashReporting, Utility}
	for i := len(libs); i < CatalogSize; i++ {
		vendor := vendors[r.Intn(len(vendors))]
		// Zipf-ish popularity tail under the curated head.
		rank := float64(i + 1)
		libs = append(libs, Library{
			Package:    fmt.Sprintf("com/%s/sdk%03d", vendor, i),
			Category:   kinds[r.Intn(len(kinds))],
			Popularity: 0.40 / rank * float64(CatalogSize) / 25,
		})
	}
	sort.SliceStable(libs, func(a, b int) bool { return libs[a].Popularity > libs[b].Popularity })
	return libs
}
