package borderpatrol

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"borderpatrol/internal/cliflags"
	"borderpatrol/internal/experiments"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/policystore"
)

// A knob is a leaf field of a public configuration struct (Config,
// FleetConfig, GatewaySpec) or of experiments.TestbedConfig, the assembly
// every gateway goes through, or a flag a cliflags.Register* function
// declares. A knob that changes nothing is a promise the code does not
// keep, so each one has a liveness case: the case builds a baseline
// (set=false) and a build that differs from it only in that knob
// (set=true), and reads each through what a user can see — a registry
// value, a verdict, an error, the bytes written or an audit entry. The two
// readings must differ.
type liveCase func(t *testing.T, set bool) string

// knobAllowList names the knobs that are known to be dead, each with the
// reason it cannot go yet.
var knobAllowList = map[string]string{
	"TestbedConfig.DisableCapture": "the network keeps no packet-capture logs; the repository benchmark's testbed configuration (benchmark/setup.go) still sets it, so it goes with the next change to the benchmark",
}

// knobs lists every knob: the configuration structs' leaf fields by path
// (a struct field of a type of this module is walked into, anything else
// is a leaf) and the shared flags by name.
func knobs() []string {
	var out []string
	for _, v := range []any{Config{}, FleetConfig{}, GatewaySpec{}, experiments.TestbedConfig{}} {
		typ := reflect.TypeOf(v)
		out = appendLeaves(out, typ.Name(), typ)
	}
	fs := flag.NewFlagSet("knobs", flag.ContinueOnError)
	cliflags.RegisterPolicy(fs)
	cliflags.RegisterContext(fs)
	cliflags.RegisterAudit(fs)
	cliflags.RegisterMetrics(fs)
	fs.VisitAll(func(f *flag.Flag) { out = append(out, "-"+f.Name) })
	return out
}

func appendLeaves(out []string, path string, typ reflect.Type) []string {
	for i := range typ.NumField() {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		p := path + "." + f.Name
		if f.Type.Kind() == reflect.Struct && strings.HasPrefix(f.Type.PkgPath(), "borderpatrol") {
			out = appendLeaves(out, p, f.Type)
		} else {
			out = append(out, p)
		}
	}
	return out
}

// TestEveryKnobIsLive fails for a knob with no case (give it one, or
// delete it), for a case or allow-list row that names no knob, and for a
// case whose two builds read the same.
func TestEveryKnobIsLive(t *testing.T) {
	all := knobs()
	cases := liveCases()
	for _, k := range all {
		_, hasCase := cases[k]
		_, allowed := knobAllowList[k]
		switch {
		case hasCase && allowed:
			t.Errorf("%s has both a liveness case and an allow-list row", k)
		case !hasCase && !allowed:
			t.Errorf("%s has no liveness case: give it one, or delete it", k)
		}
	}
	for k := range cases {
		if !slices.Contains(all, k) {
			t.Errorf("liveness case %s names no field or flag", k)
		}
	}
	for k := range knobAllowList {
		if !slices.Contains(all, k) {
			t.Errorf("allow-list row %s names no field or flag", k)
		}
	}
	names := make([]string, 0, len(cases))
	for k := range cases {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		t.Run(k, func(t *testing.T) {
			base, set := cases[k](t, false), cases[k](t, true)
			t.Logf("baseline reads %q, set reads %q", base, set)
			if base == set {
				t.Errorf("setting %s changes nothing observable: both builds read %q", k, base)
			}
		})
	}
}

const denyFlurry = `{[deny][library]["com/flurry"]}`

// A probe reads a built deployment.
type probe func(t *testing.T, d *Deployment) string

// viaNew builds a deployment with New and reads it; a build error is the
// reading.
func viaNew(t *testing.T, cfg Config, read probe) string {
	d, err := New(cfg)
	if err != nil {
		return "error: " + err.Error()
	}
	t.Cleanup(func() { d.Close() })
	return read(t, d)
}

// viaTestbed builds the assembly directly and reads it through the
// facade's handle.
func viaTestbed(t *testing.T, cfg experiments.TestbedConfig, read probe) string {
	tb, err := experiments.NewTestbed(nil, cfg)
	if err != nil {
		return "error: " + err.Error()
	}
	t.Cleanup(func() { tb.Close() })
	return read(t, &Deployment{tb: tb})
}

// viaFleet builds a fleet and reads its first gateway.
func viaFleet(t *testing.T, cfg FleetConfig, read probe) string {
	f, err := NewFleet(cfg)
	if err != nil {
		return "error: " + err.Error()
	}
	t.Cleanup(func() { f.Close() })
	return read(t, f.Deployments()[0])
}

// fleetOf is a one-gateway fleet on fleetPolicyV1 (the global tracker
// deny, and an eng group that denies uploads).
func fleetOf(spec GatewaySpec) FleetConfig {
	if !spec.Subnet.IsValid() {
		spec.Subnet = netip.MustParsePrefix("10.1.0.0/16")
	}
	return FleetConfig{Policy: PolicyConfig{Doc: fleetPolicyV1}, Gateways: []GatewaySpec{spec}}
}

// installDemo installs the demo app plus "native": a download over a
// native socket, which bypasses tagging.
func installDemo(t *testing.T, d *Deployment) *App {
	t.Helper()
	funcs := demoFuncs()
	native := funcs[0]
	native.Name, native.Op.UseNativeSocket = "native", true
	app, err := d.InstallApp(demoAPK(), append(funcs, native))
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// fates reports, per functionality, which of its packets were delivered.
func fates(fns ...string) probe {
	return func(t *testing.T, d *Deployment) string {
		app := installDemo(t, d)
		var b strings.Builder
		for _, fn := range fns {
			out, err := d.Exercise(app, fn)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s:", fn)
			for _, o := range out {
				fmt.Fprintf(&b, " %v", o.Delivered)
			}
			b.WriteString("; ")
		}
		return b.String()
	}
}

// auditSrc reports the source address a download's audit entry carries.
func auditSrc(t *testing.T, d *Deployment) string {
	fates("download")(t, d)
	tail := d.AuditTail()
	if len(tail) == 0 {
		return "no audit entry"
	}
	return tail[0].Src
}

// auditBytes reports how much of a download's audit trail reached buf.
func auditBytes(buf *bytes.Buffer) probe {
	return func(t *testing.T, d *Deployment) string {
		fates("download")(t, d)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d audit bytes written", buf.Len())
	}
}

// idleSweep caches the tracker's drop verdict (the deployment must deny
// it), lets two virtual seconds pass, and reports how many cached flows an
// idle sweep reclaims.
func idleSweep(t *testing.T, d *Deployment) string {
	fates("analytics")(t, d)
	d.tb.Network.Clock.Advance(2 * time.Second)
	_, flows := d.SweepIdle(time.Hour)
	return fmt.Sprintf("%d flows reclaimed", flows)
}

// burstCalls sends one download burst from 256 pooled devices in prefix
// and reports how many enforcer batch calls it took: one per worker that
// ran a share.
func burstCalls(prefix string) probe {
	return func(t *testing.T, d *Deployment) string {
		app := installDemo(t, d)
		res, err := app.Invoke("download")
		if err != nil {
			t.Fatal(err)
		}
		pool, err := netsim.NewDevicePool(netip.MustParsePrefix(prefix), 256)
		if err != nil {
			t.Fatal(err)
		}
		var pkts []*Packet
		for i := range pool.Len() {
			pkts = append(pkts, pool.Rewrite(i, res.Packets)...)
		}
		before, _ := d.Metrics().Value("bp_enforcer_batch_packets")
		d.tb.Network.DeliverBatch(pkts)
		after, _ := d.Metrics().Value("bp_enforcer_batch_packets")
		return fmt.Sprintf("%v enforcer batch calls", after-before)
	}
}

// policyFile writes doc to a fresh policy file.
func policyFile(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "policy.bp")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// starved deletes the deployment's policy file, lets two virtual seconds
// pass, runs one reload (it fails: the backend is gone), and reports the
// fates that follow.
func starved(path string) probe {
	return func(t *testing.T, d *Deployment) string {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		d.tb.Network.Clock.Advance(2 * time.Second)
		if _, err := d.ReloadPolicy(); err == nil {
			t.Fatal("reload from a deleted policy file succeeded")
		}
		return fates("download")(t, d)
	}
}

// settle polls cond until it holds. A set arm waits up to ten seconds for
// its effect; a baseline arm waits a tenth of a second to show none came.
func settle(set bool, cond func() bool) bool {
	patience := 100 * time.Millisecond
	if set {
		patience = 10 * time.Second
	}
	for deadline := time.Now().Add(patience); !cond() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// metricAbove reports, once settled, whether a registry family exceeds n.
func metricAbove(set bool, d *Deployment, family string, n float64, labels ...metrics.Label) string {
	above := settle(set, func() bool {
		v, _ := d.Metrics().Value(family, labels...)
		return v > n
	})
	return fmt.Sprintf("%s above %v: %v", family, n, above)
}

// replay steals the tag off a download packet and sets it again on a
// fresh, already tagged socket of the same app, reporting whether the
// device kernel refused (§VII).
func replay(t *testing.T, d *Deployment) string {
	app := installDemo(t, d)
	res, err := app.Invoke("download")
	if err != nil {
		t.Fatal(err)
	}
	stolen, ok := res.Packets[0].Header.FindOption(ipv4.OptSecurity)
	if !ok {
		t.Fatal("download packet untagged")
	}
	sock := d.Device().Stack().NewJavaSocket(app.UID)
	defer sock.Close()
	app.Thread().PushAll([]Frame{{Class: "com/flurry/sdk/Agent", Method: "beacon", File: "A.java", Line: 8}})
	err = sock.Connect(demoFuncs()[0].Op.Endpoint)
	app.Thread().PopN(1)
	if err != nil {
		t.Fatal(err)
	}
	err = d.Device().Kernel().SetIPOptions(sock.FD(), 0, []ipv4.Option{stolen})
	return fmt.Sprintf("replay refused: %v", err != nil)
}

// flagSet parses args into the four shared flag groups.
type flagSet struct {
	policy  *cliflags.Policy
	context *cliflags.Context
	audit   *cliflags.Audit
	metrics *cliflags.Metrics
}

func parseFlags(t *testing.T, args ...string) flagSet {
	t.Helper()
	fs := flag.NewFlagSet("live", flag.ContinueOnError)
	s := flagSet{cliflags.RegisterPolicy(fs), cliflags.RegisterContext(fs), cliflags.RegisterAudit(fs), cliflags.RegisterMetrics(fs)}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

// policySource reads what the policy flags build.
func policySource(t *testing.T, args ...string) string {
	src, poll, mode, err := parseFlags(t, args...).policy.Source()
	return fmt.Sprint(src, poll, mode, err)
}

// viaPolicyFlags builds a testbed on what the policy flags build, wired as
// bp-gateway wires them (without the reload loop), and reads it.
func viaPolicyFlags(t *testing.T, read probe, args ...string) string {
	p := parseFlags(t, args...).policy
	src, _, mode, err := p.Source()
	if err != nil {
		return "error: " + err.Error()
	}
	return viaTestbed(t, experiments.TestbedConfig{EnforcementOn: true, PolicySource: src,
		PolicyMaxStale: p.MaxStale, PolicyFailMode: mode, PolicyVirtualTime: true}, read)
}

// auditFiles writes six 6-byte lines through the audit flags' writer and
// reports the files and bytes it left.
func auditFiles(t *testing.T, args ...string) string {
	dir := t.TempDir()
	a := parseFlags(t, append(args, "-audit", filepath.Join(dir, "trail.jsonl"))...).audit
	w, closeW, err := a.Writer()
	if err != nil {
		return "error: " + err.Error()
	}
	for range 6 {
		if _, err := w.Write([]byte("{}   \n")); err != nil {
			t.Fatal(err)
		}
	}
	if err := closeW(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s=%d ", e.Name(), info.Size())
	}
	return b.String()
}

// args returns base, plus extra when set.
func args(set bool, base []string, extra ...string) []string {
	if set {
		return append(base, extra...)
	}
	return base
}

func liveCases() map[string]liveCase {
	return map[string]liveCase{
		// The facade's single deployment.
		"Config.Policy.Doc": func(t *testing.T, set bool) string {
			cfg := Config{}
			if set {
				cfg.Policy.Doc = denyFlurry
			}
			return viaNew(t, cfg, fates("analytics"))
		},
		"Config.Policy.Source": func(t *testing.T, set bool) string {
			cfg := Config{}
			if set {
				cfg.Policy.Source = StaticPolicySource(denyFlurry)
			}
			return viaNew(t, cfg, fates("analytics"))
		},
		"Config.Policy.Poll": func(t *testing.T, set bool) string {
			path := policyFile(t, "")
			cfg := Config{Policy: PolicyConfig{Source: FilePolicySource(path)}}
			if set {
				cfg.Policy.Poll = time.Millisecond
			}
			return viaNew(t, cfg, func(t *testing.T, d *Deployment) string {
				if err := os.WriteFile(path, []byte(denyFlurry), 0o644); err != nil {
					t.Fatal(err)
				}
				return metricAbove(set, d, "bp_policy_reloads_total", 1, metrics.L("outcome", "applied"))
			})
		},
		"Config.Policy.MaxStale": func(t *testing.T, set bool) string {
			path := policyFile(t, "")
			cfg := Config{Policy: PolicyConfig{Source: FilePolicySource(path), MaxStale: time.Hour, FailMode: FailClosed}}
			if set {
				cfg.Policy.MaxStale = time.Second
			}
			return viaNew(t, cfg, starved(path))
		},
		"Config.Policy.FailMode": func(t *testing.T, set bool) string {
			path := policyFile(t, "")
			cfg := Config{Policy: PolicyConfig{Source: FilePolicySource(path), MaxStale: time.Second, FailMode: FailOpen}}
			if set {
				cfg.Policy.FailMode = FailClosed
			}
			return viaNew(t, cfg, starved(path))
		},
		"Config.Policy.DefaultVerdict": func(t *testing.T, set bool) string {
			cfg := Config{}
			if set {
				cfg.Policy.DefaultVerdict = VerdictDrop
			}
			return viaNew(t, cfg, fates("download"))
		},
		"Config.Policy.AllowUntagged": func(t *testing.T, set bool) string {
			cfg := Config{}
			cfg.Policy.AllowUntagged = set
			return viaNew(t, cfg, fates("native"))
		},
		"Config.Flow.TTL": func(t *testing.T, set bool) string {
			cfg := Config{Policy: PolicyConfig{Doc: denyFlurry}}
			if set {
				cfg.Flow.TTL = time.Second
			}
			return viaNew(t, cfg, idleSweep)
		},
		"Config.Flow.Workers": func(t *testing.T, set bool) string {
			cfg := Config{Flow: FlowConfig{Workers: 1}}
			if set {
				cfg.Flow.Workers = 2
			}
			return viaNew(t, cfg, burstCalls("10.200.0.0/16"))
		},
		"Config.Audit.Writer": func(t *testing.T, set bool) string {
			var buf bytes.Buffer
			cfg := Config{}
			if set {
				cfg.Audit.Writer = &buf
			}
			return viaNew(t, cfg, auditBytes(&buf))
		},
		"Config.Net.Faults": func(t *testing.T, set bool) string {
			cfg := Config{}
			if set {
				cfg.Net.Faults = &FaultPlan{Seed: 1, Drop: 1}
			}
			return viaNew(t, cfg, fates("download"))
		},
		"Config.Net.DeviceAddr": func(t *testing.T, set bool) string {
			cfg := Config{}
			if set {
				cfg.Net.DeviceAddr = netip.MustParseAddr("10.77.0.9")
			}
			return viaNew(t, cfg, auditSrc)
		},

		// The fleet. Policy.Source, Poll, MaxStale and FailMode are live as
		// rejections: a fleet's stores watch a hub that never fails a round.
		"FleetConfig.Policy.Doc": func(t *testing.T, set bool) string {
			cfg := fleetOf(GatewaySpec{})
			if !set {
				cfg.Policy.Doc = ""
			}
			return viaFleet(t, cfg, fates("analytics"))
		},
		"FleetConfig.Policy.Source": func(t *testing.T, set bool) string {
			cfg := fleetOf(GatewaySpec{})
			if set {
				cfg.Policy.Source = StaticPolicySource(denyFlurry)
			}
			return viaFleet(t, cfg, fates("analytics"))
		},
		"FleetConfig.Policy.Poll": func(t *testing.T, set bool) string {
			cfg := fleetOf(GatewaySpec{})
			if set {
				cfg.Policy.Poll = time.Second
			}
			return viaFleet(t, cfg, fates("analytics"))
		},
		"FleetConfig.Policy.MaxStale": func(t *testing.T, set bool) string {
			cfg := fleetOf(GatewaySpec{})
			if set {
				cfg.Policy.MaxStale = time.Second
			}
			return viaFleet(t, cfg, fates("analytics"))
		},
		"FleetConfig.Policy.FailMode": func(t *testing.T, set bool) string {
			cfg := fleetOf(GatewaySpec{})
			if set {
				cfg.Policy.FailMode = FailClosed
			}
			return viaFleet(t, cfg, fates("analytics"))
		},
		"FleetConfig.Policy.DefaultVerdict": func(t *testing.T, set bool) string {
			cfg := fleetOf(GatewaySpec{})
			if set {
				cfg.Policy.DefaultVerdict = VerdictDrop
			}
			return viaFleet(t, cfg, fates("download"))
		},
		"FleetConfig.Policy.AllowUntagged": func(t *testing.T, set bool) string {
			cfg := fleetOf(GatewaySpec{})
			cfg.Policy.AllowUntagged = set
			return viaFleet(t, cfg, fates("native"))
		},
		"FleetConfig.Gateways": func(t *testing.T, set bool) string {
			cfg := fleetOf(GatewaySpec{})
			if !set {
				cfg.Gateways = nil
			}
			return viaFleet(t, cfg, fates("download"))
		},
		"FleetConfig.WatchTimeout": func(t *testing.T, set bool) string {
			cfg := fleetOf(GatewaySpec{})
			if set {
				cfg.WatchTimeout = time.Millisecond
			}
			return viaFleet(t, cfg, func(t *testing.T, d *Deployment) string {
				return metricAbove(set, d, "bp_policy_watch_rounds_total", 0)
			})
		},
		"FleetConfig.Faults": func(t *testing.T, set bool) string {
			cfg := fleetOf(GatewaySpec{})
			if set {
				cfg.Faults = &FaultPlan{Seed: 1, Drop: 1}
			}
			return viaFleet(t, cfg, fates("download"))
		},

		// A fleet's gateways.
		"GatewaySpec.Name": func(t *testing.T, set bool) string {
			spec := GatewaySpec{}
			if set {
				spec.Name = "edge"
			}
			return viaFleet(t, fleetOf(spec), func(t *testing.T, d *Deployment) string { return d.Name() })
		},
		"GatewaySpec.Subnet": func(t *testing.T, set bool) string {
			spec := GatewaySpec{}
			if set {
				spec.Subnet = netip.MustParsePrefix("10.9.0.0/16")
			}
			return viaFleet(t, fleetOf(spec), auditSrc)
		},
		"GatewaySpec.Groups": func(t *testing.T, set bool) string {
			spec := GatewaySpec{}
			if set {
				spec.Groups = []string{"eng"}
			}
			return viaFleet(t, fleetOf(spec), fates("upload"))
		},
		"GatewaySpec.Flow.TTL": func(t *testing.T, set bool) string {
			spec := GatewaySpec{}
			if set {
				spec.Flow.TTL = time.Second
			}
			return viaFleet(t, fleetOf(spec), idleSweep)
		},
		"GatewaySpec.Flow.Workers": func(t *testing.T, set bool) string {
			spec := GatewaySpec{Flow: FlowConfig{Workers: 1}}
			if set {
				spec.Flow.Workers = 2
			}
			return viaFleet(t, fleetOf(spec), burstCalls("10.1.0.0/16"))
		},
		"GatewaySpec.Audit.Writer": func(t *testing.T, set bool) string {
			var buf bytes.Buffer
			spec := GatewaySpec{}
			if set {
				spec.Audit.Writer = &buf
			}
			return viaFleet(t, fleetOf(spec), auditBytes(&buf))
		},

		// The assembly every gateway goes through.
		"TestbedConfig.Doc": func(t *testing.T, set bool) string {
			cfg := experiments.TestbedConfig{EnforcementOn: true}
			if set {
				cfg.Doc = denyFlurry
			}
			return viaTestbed(t, cfg, fates("analytics"))
		},
		"TestbedConfig.Rules": func(t *testing.T, set bool) string {
			cfg := experiments.TestbedConfig{EnforcementOn: true}
			if set {
				cfg.Rules = mustRules(t, denyFlurry)
			}
			return viaTestbed(t, cfg, fates("analytics"))
		},
		"TestbedConfig.DefaultVerdict": func(t *testing.T, set bool) string {
			cfg := experiments.TestbedConfig{EnforcementOn: true}
			if set {
				cfg.DefaultVerdict = VerdictDrop
			}
			return viaTestbed(t, cfg, fates("download"))
		},
		"TestbedConfig.EnforcementOn": func(t *testing.T, set bool) string {
			cfg := experiments.TestbedConfig{Rules: mustRules(t, denyFlurry), EnforcementOn: set}
			return viaTestbed(t, cfg, fates("analytics"))
		},
		"TestbedConfig.AllowUntagged": func(t *testing.T, set bool) string {
			cfg := experiments.TestbedConfig{EnforcementOn: true, AllowUntagged: set}
			return viaTestbed(t, cfg, fates("native"))
		},
		"TestbedConfig.DisableFlowCache": func(t *testing.T, set bool) string {
			cfg := experiments.TestbedConfig{EnforcementOn: true, DisableFlowCache: set}
			return viaTestbed(t, cfg, func(t *testing.T, d *Deployment) string {
				fates("download")(t, d)
				return fmt.Sprint(d.Metrics().Value("bp_flowtable_misses_total"))
			})
		},
		"TestbedConfig.GatewayWorkers": func(t *testing.T, set bool) string {
			cfg := experiments.TestbedConfig{EnforcementOn: true, GatewayWorkers: 1}
			if set {
				cfg.GatewayWorkers = 2
			}
			return viaTestbed(t, cfg, burstCalls("10.200.0.0/16"))
		},
		"TestbedConfig.AuditWriter": func(t *testing.T, set bool) string {
			var buf bytes.Buffer
			cfg := experiments.TestbedConfig{EnforcementOn: true}
			if set {
				cfg.AuditWriter = &buf
			}
			return viaTestbed(t, cfg, auditBytes(&buf))
		},
		"TestbedConfig.PolicySource": func(t *testing.T, set bool) string {
			cfg := experiments.TestbedConfig{EnforcementOn: true}
			if set {
				cfg.PolicySource = StaticPolicySource(denyFlurry)
			}
			return viaTestbed(t, cfg, fates("analytics"))
		},
		"TestbedConfig.PolicyPoll": func(t *testing.T, set bool) string {
			hub := policystore.NewHub("")
			cfg := experiments.TestbedConfig{EnforcementOn: true, PolicySource: hub.Source()}
			if set {
				cfg.PolicyPoll = time.Hour
			}
			return viaTestbed(t, cfg, func(t *testing.T, d *Deployment) string {
				hub.Set(denyFlurry)
				return metricAbove(set, d, "bp_policy_reloads_total", 1, metrics.L("outcome", "applied"))
			})
		},
		"TestbedConfig.PolicyWatchTimeout": func(t *testing.T, set bool) string {
			hub := policystore.NewHub("")
			cfg := experiments.TestbedConfig{EnforcementOn: true, PolicySource: hub.Source(), PolicyPoll: time.Hour}
			if set {
				cfg.PolicyWatchTimeout = time.Millisecond
			}
			return viaTestbed(t, cfg, func(t *testing.T, d *Deployment) string {
				return metricAbove(set, d, "bp_policy_watch_rounds_total", 0)
			})
		},
		"TestbedConfig.Faults": func(t *testing.T, set bool) string {
			cfg := experiments.TestbedConfig{EnforcementOn: true}
			if set {
				cfg.Faults = &FaultPlan{Seed: 1, Drop: 1}
			}
			return viaTestbed(t, cfg, fates("download"))
		},
		"TestbedConfig.FlowTTL": func(t *testing.T, set bool) string {
			cfg := experiments.TestbedConfig{EnforcementOn: true, Rules: mustRules(t, denyFlurry)}
			if set {
				cfg.FlowTTL = time.Second
			}
			return viaTestbed(t, cfg, idleSweep)
		},
		"TestbedConfig.PolicyMaxStale": func(t *testing.T, set bool) string {
			path := policyFile(t, "")
			cfg := experiments.TestbedConfig{EnforcementOn: true, PolicySource: FilePolicySource(path),
				PolicyMaxStale: time.Hour, PolicyFailMode: FailClosed, PolicyVirtualTime: true}
			if set {
				cfg.PolicyMaxStale = time.Second
			}
			return viaTestbed(t, cfg, starved(path))
		},
		"TestbedConfig.PolicyFailMode": func(t *testing.T, set bool) string {
			path := policyFile(t, "")
			cfg := experiments.TestbedConfig{EnforcementOn: true, PolicySource: FilePolicySource(path),
				PolicyMaxStale: time.Second, PolicyFailMode: FailOpen, PolicyVirtualTime: true}
			if set {
				cfg.PolicyFailMode = FailClosed
			}
			return viaTestbed(t, cfg, starved(path))
		},
		"TestbedConfig.PolicyVirtualTime": func(t *testing.T, set bool) string {
			path := policyFile(t, "")
			cfg := experiments.TestbedConfig{EnforcementOn: true, PolicySource: FilePolicySource(path),
				PolicyMaxStale: time.Second, PolicyFailMode: FailClosed, PolicyVirtualTime: set}
			return viaTestbed(t, cfg, starved(path))
		},
		"TestbedConfig.DeviceAddr": func(t *testing.T, set bool) string {
			cfg := experiments.TestbedConfig{EnforcementOn: true}
			if set {
				cfg.DeviceAddr = netip.MustParseAddr("10.77.0.9")
			}
			return viaTestbed(t, cfg, auditSrc)
		},
		"TestbedConfig.UnhardenedKernel": func(t *testing.T, set bool) string {
			cfg := experiments.TestbedConfig{EnforcementOn: true, UnhardenedKernel: set}
			return viaTestbed(t, cfg, replay)
		},

		// The shared command-line flags.
		"-policy-file": func(t *testing.T, set bool) string {
			return policySource(t, args(set, nil, "-policy-file", "rules.bp")...)
		},
		"-policy-url": func(t *testing.T, set bool) string {
			return policySource(t, args(set, nil, "-policy-url", "http://ctrl.invalid/rules.bp")...)
		},
		"-policy-poll": func(t *testing.T, set bool) string {
			return policySource(t, args(set, []string{"-policy-file", "rules.bp"}, "-policy-poll", "1h")...)
		},
		"-policy-max-stale": func(t *testing.T, set bool) string {
			path := policyFile(t, "")
			base := []string{"-policy-file", path, "-fail-mode", "closed", "-policy-max-stale", "1h"}
			return viaPolicyFlags(t, starved(path), args(set, base, "-policy-max-stale", "1s")...)
		},
		"-fail-mode": func(t *testing.T, set bool) string {
			return policySource(t, args(set, []string{"-policy-file", "rules.bp"}, "-fail-mode", "closed")...)
		},
		"-device-network": func(t *testing.T, set bool) string {
			dc, err := parseFlags(t, args(set, nil, "-device-network", "trusted")...).context.DeviceContext()
			return fmt.Sprint(dc, err)
		},
		"-device-patch-age": func(t *testing.T, set bool) string {
			dc, err := parseFlags(t, args(set, []string{"-device-network", "trusted"}, "-device-patch-age", "12")...).context.DeviceContext()
			return fmt.Sprint(dc, err)
		},
		"-audit": func(t *testing.T, set bool) string {
			if !set {
				w, _, err := parseFlags(t).audit.Writer()
				return fmt.Sprint(w, err)
			}
			return auditFiles(t)
		},
		"-audit-rotate-bytes": func(t *testing.T, set bool) string {
			return auditFiles(t, args(set, nil, "-audit-rotate-bytes", "12")...)
		},
		"-audit-rotate-keep": func(t *testing.T, set bool) string {
			return auditFiles(t, args(set, []string{"-audit-rotate-bytes", "12"}, "-audit-rotate-keep", "1")...)
		},
		"-metrics-addr": func(t *testing.T, set bool) string {
			addr, stop, err := parseFlags(t, args(set, nil, "-metrics-addr", "127.0.0.1:0")...).metrics.Serve(http.NotFoundHandler())
			if err != nil {
				return "error: " + err.Error()
			}
			stop()
			return fmt.Sprintf("serving: %v", addr != "")
		},
		"-linger": func(t *testing.T, set bool) string {
			var out bytes.Buffer
			parseFlags(t, args(set, nil, "-linger", "1ms")...).metrics.Wait(&out)
			return out.String()
		},
	}
}

func mustRules(t *testing.T, doc string) []Rule {
	t.Helper()
	rules, err := policy.ParsePolicyString(doc)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}
