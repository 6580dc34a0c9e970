// Package ioi computes the IPs-of-interest analysis of the paper's §VI-B:
// an IoI is a destination IP address that receives multiple packets from
// one app carrying more than one distinct stack trace. IoIs are exactly the
// cases where IP/DNS-level enforcement cannot separate functionalities and
// BorderPatrol's contextual tags are needed.
package ioi

import (
	"fmt"
	"net/netip"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/tag"
)

// Analysis is the result of scanning a capture.
type Analysis struct {
	// AppsAnalyzed is the number of distinct tagged apps observed.
	AppsAnalyzed int
	// IoIsPerApp maps app hash (hex) to its IoI count.
	IoIsPerApp map[string]int
	// Histogram[k] is the number of apps with exactly k IoIs (k >= 1).
	Histogram map[int]int
	// AppsWithIoI is the number of apps with at least one IoI.
	AppsWithIoI int
	// SamePackageApps counts IoI-having apps whose IoI stack traces all
	// originate from a single Java package (paper: 75%).
	SamePackageApps int
	// TotalIoIs is the total number of (app, IP) IoI pairs.
	TotalIoIs int
	// CrossPackageIoIs counts IoIs receiving stacks whose methods span
	// multiple Java packages (paper: 25% — shared HTTP client reuse).
	CrossPackageIoIs int
	// UntaggedPackets counts packets without a decodable tag (excluded).
	UntaggedPackets int
}

// flowKey groups packets per app and destination.
type flowKey struct {
	app dex.TruncatedHash
	dst netip.Addr
}

// Analyze scans device-egress packets. The database is used to decode
// stacks for the package-origin statistics; packets whose app is unknown
// are counted as untagged.
func Analyze(packets []*ipv4.Packet, db *analyzer.Database) (*Analysis, error) {
	type flowState struct {
		stacks  map[string]struct{} // distinct raw index sequences
		packets int
		// pkgs are the Java packages seen across all stack frames.
		pkgs map[string]struct{}
	}
	flows := make(map[flowKey]*flowState)
	apps := make(map[dex.TruncatedHash]struct{})
	an := &Analysis{
		IoIsPerApp: make(map[string]int),
		Histogram:  make(map[int]int),
	}
	for _, pkt := range packets {
		opt, ok := pkt.Header.FindOption(ipv4.OptSecurity)
		if !ok {
			an.UntaggedPackets++
			continue
		}
		decoded, err := tag.Decode(opt.Data)
		if err != nil {
			an.UntaggedPackets++
			continue
		}
		if _, known := db.LookupTruncated(decoded.AppHash); !known {
			an.UntaggedPackets++
			continue
		}
		apps[decoded.AppHash] = struct{}{}
		key := flowKey{app: decoded.AppHash, dst: pkt.Header.Dst}
		fs := flows[key]
		if fs == nil {
			fs = &flowState{stacks: make(map[string]struct{}), pkgs: make(map[string]struct{})}
			flows[key] = fs
		}
		fs.packets++
		stackKey := fmt.Sprintf("%v", decoded.Indexes)
		if _, seen := fs.stacks[stackKey]; !seen {
			fs.stacks[stackKey] = struct{}{}
			sigs, err := db.DecodeStack(decoded.AppHash, decoded.Indexes)
			if err != nil {
				return nil, fmt.Errorf("ioi: decode stack: %w", err)
			}
			for _, s := range sigs {
				fs.pkgs[s.Package] = struct{}{}
			}
		}
	}

	perApp := make(map[dex.TruncatedHash]int)
	appAllSamePkg := make(map[dex.TruncatedHash]bool)
	appIoIPkgs := make(map[dex.TruncatedHash]map[string]struct{})
	for key, fs := range flows {
		if fs.packets < 2 || len(fs.stacks) < 2 {
			continue
		}
		perApp[key.app]++
		an.TotalIoIs++
		if len(fs.pkgs) > 1 {
			an.CrossPackageIoIs++
		}
		if appIoIPkgs[key.app] == nil {
			appIoIPkgs[key.app] = make(map[string]struct{})
			appAllSamePkg[key.app] = true
		}
		for p := range fs.pkgs {
			appIoIPkgs[key.app][p] = struct{}{}
		}
	}
	for app, pkgs := range appIoIPkgs {
		appAllSamePkg[app] = len(pkgs) <= 1
	}

	an.AppsAnalyzed = len(apps)
	for app, n := range perApp {
		an.IoIsPerApp[app.String()] = n
		an.Histogram[n]++
		an.AppsWithIoI++
		if appAllSamePkg[app] {
			an.SamePackageApps++
		}
	}
	return an, nil
}

// SamePackageShare returns the fraction of IoI-having apps whose IoI
// traffic stays within one Java package.
func (a *Analysis) SamePackageShare() float64 {
	if a.AppsWithIoI == 0 {
		return 0
	}
	return float64(a.SamePackageApps) / float64(a.AppsWithIoI)
}

// CrossPackageShare returns the fraction of IoIs that receive stacks from
// multiple Java packages.
func (a *Analysis) CrossPackageShare() float64 {
	if a.TotalIoIs == 0 {
		return 0
	}
	return float64(a.CrossPackageIoIs) / float64(a.TotalIoIs)
}
