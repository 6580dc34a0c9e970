package borderpatrol

import (
	"net/netip"
	"strings"
	"testing"

	"borderpatrol/internal/metrics"
)

func demoAPK() *APK {
	return &APK{
		PackageName: "com.corp.files",
		Label:       "CorpFiles",
		Category:    "BUSINESS",
		VersionCode: 1,
		Dexes: []*DexFile{{
			Classes: []ClassDef{
				{
					Package: "com/corp/files",
					Name:    "SyncEngine",
					Methods: []MethodDef{
						{Name: "download", Proto: "()V", File: "S.java", StartLine: 10, EndLine: 30},
						{Name: "upload", Proto: "()V", File: "S.java", StartLine: 40, EndLine: 60},
					},
				},
				{
					Package: "com/flurry/sdk",
					Name:    "Agent",
					Methods: []MethodDef{
						{Name: "beacon", Proto: "()V", File: "A.java", StartLine: 5, EndLine: 20},
					},
				},
			},
		}},
	}
}

func demoFuncs() []Functionality {
	ep := netip.AddrPortFrom(netip.MustParseAddr("93.184.216.34"), 443)
	return []Functionality{
		{
			Name:      "download",
			Desirable: true,
			CallPath:  []Frame{{Class: "com/corp/files/SyncEngine", Method: "download", File: "S.java", Line: 12}},
			Op:        NetOp{Endpoint: ep, Host: "files.corp", Method: "GET"},
		},
		{
			Name:     "upload",
			CallPath: []Frame{{Class: "com/corp/files/SyncEngine", Method: "upload", File: "S.java", Line: 45}},
			Op:       NetOp{Endpoint: ep, Host: "files.corp", Method: "PUT", PayloadBytes: 1024},
		},
		{
			Name:     "analytics",
			CallPath: []Frame{{Class: "com/flurry/sdk/Agent", Method: "beacon", File: "A.java", Line: 8}},
			Op:       NetOp{Endpoint: ep, Host: "data.flurry.com", Method: "POST", PayloadBytes: 128},
		},
	}
}

func TestDeploymentEndToEnd(t *testing.T) {
	dep, err := New(Config{Policy: PolicyConfig{Doc: `
// block the tracker library and the upload method
{[deny][library]["com/flurry"]}
{[deny][method]["Lcom/corp/files/SyncEngine;->upload()V"]}
`}})
	if err != nil {
		t.Fatal(err)
	}
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}

	// Download flows: one TCP connection, three packets (SYN, request,
	// FIN), every one delivered and attributed to the download context.
	out, err := dep.Exercise(app, "download")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("download emitted %d outcomes, want 3 (SYN + request + FIN)", len(out))
	}
	for i, o := range out {
		if !o.Delivered {
			t.Fatalf("download packet %d not delivered: %+v", i, o)
		}
		if len(o.Stack) == 0 || o.Stack[0].Name != "download" {
			t.Fatalf("decoded stack %d = %v", i, o.Stack)
		}
	}

	// Upload dropped by the method rule — same endpoint, same app. The
	// whole connection dies: the SYN already carries the upload context.
	out, err = dep.Exercise(app, "upload")
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o.Delivered {
			t.Fatalf("upload packet %d not blocked", i)
		}
		if o.DropStage != "gateway" {
			t.Fatalf("packet %d drop stage = %s", i, o.DropStage)
		}
		if !strings.Contains(o.Reason, "deny rule") {
			t.Fatalf("packet %d reason = %q", i, o.Reason)
		}
	}

	// Analytics dropped by the library rule.
	out, err = dep.Exercise(app, "analytics")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Delivered {
		t.Fatal("analytics not blocked")
	}

	reg := dep.Metrics()
	tagged, _ := reg.Value("bp_contextmgr_sockets_tagged_total")
	dropped, _ := reg.Value("bp_enforcer_verdicts_total", metrics.L("decision", "drop"))
	accepted, _ := reg.Value("bp_enforcer_verdicts_total", metrics.L("decision", "allow"))
	if tagged != 3 || dropped != 6 || accepted != 3 {
		t.Fatalf("sockets tagged %v, packets dropped %v accepted %v; want 3, 6, 3", tagged, dropped, accepted)
	}
	if c, _ := reg.Value("bp_sanitizer_cleansed_total"); c != 3 {
		t.Fatalf("sanitizer cleansed %v packets, want 3 (the delivered connection)", c)
	}
	// The download connection's FIN tore its flow down via conntrack.
	if est, closed := conns(dep); est != 1 || closed != 1 {
		t.Fatalf("conntrack = est %v closed %v, want 1/1", est, closed)
	}
}

func TestDeploymentReconfiguration(t *testing.T) {
	dep, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}
	out, err := dep.Exercise(app, "analytics")
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Delivered {
		t.Fatal("empty policy must allow")
	}
	if err := dep.SetPolicy(`{[deny][library]["com/flurry"]}`); err != nil {
		t.Fatal(err)
	}
	out, err = dep.Exercise(app, "analytics")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Delivered {
		t.Fatal("reconfigured policy not applied")
	}
}

func TestDeploymentErrors(t *testing.T) {
	if _, err := New(Config{Policy: PolicyConfig{Doc: "{[bogus]}"}}); err == nil {
		t.Fatal("bad policy accepted")
	}
	dep, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.SetPolicy("{[bogus]}"); err == nil {
		t.Fatal("bad policy accepted by SetPolicy")
	}
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Exercise(app, "nope"); err == nil {
		t.Fatal("unknown functionality accepted")
	}
}

func TestParseFormatPolicyRoundTrip(t *testing.T) {
	doc := `{[deny][library]["com/flurry"]}
{[allow][hash]["da6880ab1f9919747d39e2bd895b95a5"]}`
	rules, err := ParsePolicy(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Action != Deny || rules[1].Level != LevelHash {
		t.Fatalf("rules = %+v", rules)
	}
	again, err := ParsePolicy(FormatPolicy(rules))
	if err != nil || len(again) != 2 {
		t.Fatalf("round trip: %v %v", again, err)
	}
}

func TestGenerateCorpusFacade(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.Apps = 10
	corpus, err := GenerateCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 10 {
		t.Fatalf("corpus = %d", len(corpus))
	}
	dep, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	app, err := dep.InstallGenerated(corpus[0])
	if err != nil {
		t.Fatal(err)
	}
	out, err := dep.Exercise(app, "core-sync")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || !out[0].Delivered {
		t.Fatalf("corpus app core-sync failed: %+v", out)
	}
}

func TestUntaggedDefaultDrop(t *testing.T) {
	// An app using native sockets bypasses tagging; the gateway drops it.
	dep, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	funcs := demoFuncs()
	funcs[0].Op.UseNativeSocket = true
	app, err := dep.InstallApp(demoAPK(), funcs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := dep.Exercise(app, "download")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Delivered {
		t.Fatal("untagged native-socket packet escaped")
	}
	if !strings.Contains(out[0].Reason, "untagged") {
		t.Fatalf("reason = %q", out[0].Reason)
	}
}
