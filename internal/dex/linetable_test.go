package dex

import "testing"

func TestLineTableResolveExactOverload(t *testing.T) {
	apk := buildTestAPK()
	lt := NewLineTable(apk)

	sig, ok := lt.Resolve(Frame{Class: "com/example/app/Main", Method: "upload", File: "Main.java", Line: 55})
	if !ok {
		t.Fatal("frame not resolved")
	}
	if sig.Proto != "(Ljava/lang/String;)V" {
		t.Fatalf("line 55 resolved to wrong overload: %s", sig)
	}

	sig, ok = lt.Resolve(Frame{Class: "com/example/app/Main", Method: "upload", File: "Main.java", Line: 100})
	if !ok || sig.Proto != "([B)V" {
		t.Fatalf("line 100 resolved to %v (ok=%v), want byte-array overload", sig, ok)
	}
}

func TestLineTableResolveSingleMethodIgnoresLine(t *testing.T) {
	apk := buildTestAPK()
	lt := NewLineTable(apk)
	// Non-overloaded methods resolve even with a bogus line number.
	sig, ok := lt.Resolve(Frame{Class: "com/flurry/sdk/Analytics", Method: "report", Line: 9999})
	if !ok || sig.Name != "report" {
		t.Fatalf("single method did not resolve: %v ok=%v", sig, ok)
	}
}

func TestLineTableFrameworkFramesDropped(t *testing.T) {
	apk := buildTestAPK()
	lt := NewLineTable(apk)
	if _, ok := lt.Resolve(Frame{Class: "java/net/Socket", Method: "connect", Line: 10}); ok {
		t.Fatal("framework frame resolved; it is not in the app dex")
	}
}

func TestLineTableStrippedOverApproximates(t *testing.T) {
	apk := buildTestAPK()
	apk.Dexes[0].DebugStripped = true
	lt := NewLineTable(apk)
	if !lt.stripped {
		t.Fatal("stripped flag lost")
	}
	sig, ok := lt.Resolve(Frame{Class: "com/example/app/Main", Method: "upload", Line: 55})
	if !ok {
		t.Fatal("stripped frame not resolved")
	}
	if !sig.Merged() {
		t.Fatalf("stripped overload resolution must merge, got %s", sig)
	}
	if sig.Name != "upload" {
		t.Fatalf("merged signature lost method name: %s", sig)
	}
}

func TestLineTableUnknownLineOverApproximates(t *testing.T) {
	apk := buildTestAPK()
	lt := NewLineTable(apk)
	// A line outside every overload range cannot disambiguate.
	sig, ok := lt.Resolve(Frame{Class: "com/example/app/Main", Method: "upload", Line: 999})
	if !ok || !sig.Merged() {
		t.Fatalf("unknown line must merge overloads, got %v ok=%v", sig, ok)
	}
}

func TestFrameString(t *testing.T) {
	f := Frame{Class: "com/a/B", Method: "m", File: "B.java", Line: 3}
	if got := f.String(); got != "com/a/B.m(B.java:3)" {
		t.Fatalf("Frame.String() = %q", got)
	}
}
