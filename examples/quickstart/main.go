// Quickstart walks through the entire BorderPatrol pipeline (paper Fig. 2)
// on one app: provision a device, install an app with a tracker library,
// watch the Context Manager tag a socket, decode the tag like the Policy
// Enforcer does, and see the policy separate two functionalities that share
// one destination IP.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net/netip"

	"borderpatrol"
)

func main() {
	// 1. Stand up a deployment: provisioned device (patched kernel + Context
	//    Manager) plus the enterprise gateway (Policy Enforcer + Packet
	//    Sanitizer) in front of a simulated network.
	dep, err := borderpatrol.New(borderpatrol.Config{
		Policy: borderpatrol.PolicyConfig{Doc: `
// Example 1 from the paper: prevent ad/analytics library connections.
{[deny][library]["com/flurry"]}
// Example 3 style: prevent a single method - the upload task.
{[deny][method]["Lcom/corp/files/SyncEngine;->upload([B)V"]}
`},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()

	// 2. Define an app the way the Offline Analyzer would see it: developer
	//    code plus a bundled tracker library, all in one dex.
	apk := &borderpatrol.APK{
		PackageName: "com.corp.files",
		Label:       "Corp Files",
		Category:    "BUSINESS",
		VersionCode: 3,
		Dexes: []*borderpatrol.DexFile{{
			Classes: []borderpatrol.ClassDef{
				{
					Package: "com/corp/files",
					Name:    "SyncEngine",
					Methods: []borderpatrol.MethodDef{
						{Name: "download", Proto: "(Ljava/lang/String;)V", File: "SyncEngine.java", StartLine: 10, EndLine: 40},
						{Name: "upload", Proto: "([B)V", File: "SyncEngine.java", StartLine: 50, EndLine: 90},
					},
				},
				{
					Package: "com/flurry/sdk",
					Name:    "Agent",
					Methods: []borderpatrol.MethodDef{
						{Name: "beacon", Proto: "()V", File: "Agent.java", StartLine: 5, EndLine: 25},
					},
				},
			},
		}},
	}

	// 3. Give the app behaviour: three functionalities, all talking to the
	//    SAME destination IP, so IP/DNS-level enforcement cannot tell them
	//    apart — only the stack context can.
	endpoint := netip.AddrPortFrom(netip.MustParseAddr("93.184.216.34"), 443)
	funcs := []borderpatrol.Functionality{
		{
			Name:      "download",
			Desirable: true,
			CallPath: []borderpatrol.Frame{
				{Class: "com/corp/files/SyncEngine", Method: "download", File: "SyncEngine.java", Line: 15},
			},
			Op: borderpatrol.NetOp{Endpoint: endpoint, Host: "files.corp", Method: "GET", Path: "/doc.pdf"},
		},
		{
			Name: "upload",
			CallPath: []borderpatrol.Frame{
				{Class: "com/corp/files/SyncEngine", Method: "upload", File: "SyncEngine.java", Line: 60},
			},
			Op: borderpatrol.NetOp{Endpoint: endpoint, Host: "files.corp", Method: "PUT", Path: "/doc.pdf", PayloadBytes: 2048},
		},
		{
			Name: "analytics",
			CallPath: []borderpatrol.Frame{
				{Class: "com/flurry/sdk/Agent", Method: "beacon", File: "Agent.java", Line: 10},
			},
			Op: borderpatrol.NetOp{Endpoint: endpoint, Host: "data.flurry.com", Method: "POST", Path: "/aap.do", PayloadBytes: 256},
		},
	}

	app, err := dep.InstallApp(apk, funcs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("installed %s (apk hash %s, truncated id %s)\n\n",
		apk.PackageName, apk.HashHex(), apk.Truncated())

	// 4. Exercise each functionality and watch the verdicts. All three hit
	//    the same IP; only the call stack distinguishes them.
	for _, name := range []string{"download", "upload", "analytics"} {
		outcomes, err := dep.Exercise(app, name)
		if err != nil {
			log.Fatal(err)
		}
		for _, o := range outcomes {
			status := "DELIVERED"
			if !o.Delivered {
				status = "DROPPED at " + o.DropStage
			}
			fmt.Printf("%-10s -> %s\n", name, status)
			if len(o.Stack) > 0 {
				fmt.Println("  decoded stack (innermost first):")
				for _, sig := range o.Stack {
					fmt.Printf("    %s\n", sig)
				}
			}
			if o.Reason != "" {
				fmt.Printf("  reason: %s\n", o.Reason)
			}
		}
		fmt.Println()
	}

	// 5. Every counter lives on the deployment's metrics registry (the same
	//    series a Prometheus scrape of Metrics() would show).
	total := map[string]float64{}
	for _, s := range dep.Metrics().Snapshot() {
		key := s.Name
		for _, l := range s.Labels {
			key += "," + l.Key + "=" + l.Value
		}
		total[key] += s.Value
	}
	accepted, dropped := total["bp_enforcer_verdicts_total,decision=allow"], total["bp_enforcer_verdicts_total,decision=drop"]
	fmt.Printf("summary: %.0f sockets tagged, %.0f packets enforced (%.0f accepted, %.0f dropped), %.0f cleansed at the border\n",
		total["bp_contextmgr_sockets_tagged_total"], accepted+dropped, accepted, dropped, total["bp_sanitizer_cleansed_total"])
}
