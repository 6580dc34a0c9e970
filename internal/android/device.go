// Package android simulates the BYOD-provisioned Android device the
// Context Manager runs on (paper §III, §V-B): a patched kernel, a network
// stack with Java socket semantics, per-app sandboxes forked from zygote
// (distinct uids), work/personal profile separation, and an Xposed-like
// framework that lets a provisioned module hook socket creation without
// modifying apps.
package android

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"

	"borderpatrol/internal/dex"
	"borderpatrol/internal/kernel"
	"borderpatrol/internal/netstack"
	"borderpatrol/internal/policy"
)

// Config selects how a device is provisioned.
type Config struct {
	// Addr is the device's network address.
	Addr netip.Addr
	// Kernel configures the simulated Linux kernel (the paper's patch and
	// optional set-once hardening).
	Kernel kernel.Config
	// XposedInstalled controls whether modules can hook at all; an
	// unprovisioned stock image runs apps without any hooking.
	XposedInstalled bool
}

// Module is an Xposed-style instrumentation module. The Context Manager is
// the only module BorderPatrol ships, but the interface keeps the
// provisioning surface explicit.
type Module interface {
	// Name identifies the module.
	Name() string
	// HandleLoadPackage runs when an app is installed/loaded, mirroring
	// Xposed's handleLoadPackage callback: the module may parse the app's
	// dex files and register hooks.
	HandleLoadPackage(app *App) error
}

// ContextSink receives the device's self-reported context signals — the
// MDM/agent channel of the contextual policy dimension. devctx.Source
// satisfies it; the device never imports the gateway side.
type ContextSink interface {
	SetNetwork(addr netip.Addr, class policy.NetworkClass)
	SetScreenLocked(addr netip.Addr, locked bool)
	SetPatchAge(addr netip.Addr, days int32)
	ObserveLocation(addr netip.Addr, lat, lon float64)
}

// Device is one simulated smart device.
type Device struct {
	mu      sync.Mutex
	cfg     Config
	kern    *kernel.Kernel
	stack   *netstack.Stack
	ctx     ContextSink
	modules []Module
	// apps by uid; uids start at firstAppUID like Android's app sandboxes.
	apps  map[int]*App
	byPkg map[string]*App
	next  int
}

// firstAppUID is the first uid Android assigns to installed apps.
const firstAppUID = 10001

// Errors for device operations.
var (
	ErrNoXposed     = errors.New("android: Xposed framework not installed")
	ErrAppInstalled = errors.New("android: app already installed")
)

// NewDevice provisions a device.
func NewDevice(cfg Config) *Device {
	k := kernel.New(cfg.Kernel)
	return &Device{
		cfg:   cfg,
		kern:  k,
		stack: netstack.NewStack(k, cfg.Addr),
		apps:  make(map[int]*App),
		byPkg: make(map[string]*App),
		next:  firstAppUID,
	}
}

// Kernel returns the device kernel.
func (d *Device) Kernel() *kernel.Kernel { return d.kern }

// Stack returns the device network stack.
func (d *Device) Stack() *netstack.Stack { return d.stack }

// Config returns the provisioning configuration.
func (d *Device) Config() Config { return d.cfg }

// BindContext connects the device to a gateway-side context sink: from now
// on Report* calls forward the device's context signals keyed by its
// address. A nil sink unbinds.
func (d *Device) BindContext(sink ContextSink) {
	d.mu.Lock()
	d.ctx = sink
	d.mu.Unlock()
}

// contextSink returns the bound sink, if any.
func (d *Device) contextSink() ContextSink {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ctx
}

// ReportNetwork reports the network the device attached to (SSID roam,
// cellular handoff). No-op while unbound.
func (d *Device) ReportNetwork(class policy.NetworkClass) {
	if s := d.contextSink(); s != nil {
		s.SetNetwork(d.cfg.Addr, class)
	}
}

// ReportScreenLocked reports the device's screen-lock state.
func (d *Device) ReportScreenLocked(locked bool) {
	if s := d.contextSink(); s != nil {
		s.SetScreenLocked(d.cfg.Addr, locked)
	}
}

// ReportPatchAge reports the age in days of the device's security patch
// level.
func (d *Device) ReportPatchAge(days int32) {
	if s := d.contextSink(); s != nil {
		s.SetPatchAge(d.cfg.Addr, days)
	}
}

// ReportLocation reports a location fix; the sink derives the apparent
// travel velocity from successive fixes.
func (d *Device) ReportLocation(lat, lon float64) {
	if s := d.contextSink(); s != nil {
		s.ObserveLocation(d.cfg.Addr, lat, lon)
	}
}

// LoadModule installs an instrumentation module. It fails on stock images
// without Xposed — the paper's production story replaces this with
// vendor-provided BYOD ROMs, but the capability gate is the same.
func (d *Device) LoadModule(m Module) error {
	if !d.cfg.XposedInstalled {
		return fmt.Errorf("%w: cannot load %s", ErrNoXposed, m.Name())
	}
	d.mu.Lock()
	d.modules = append(d.modules, m)
	apps := make([]*App, 0, len(d.apps))
	for _, a := range d.apps {
		apps = append(apps, a)
	}
	d.mu.Unlock()
	// Late-loaded modules see already-installed apps.
	for _, a := range apps {
		if a.Profile == ProfileWork {
			if err := m.HandleLoadPackage(a); err != nil {
				return fmt.Errorf("android: module %s: %w", m.Name(), err)
			}
		}
	}
	return nil
}

// InstallApp installs an apk with its behaviour graph into a profile,
// forking a fresh sandbox (uid) from zygote. Work-profile apps are exposed
// to provisioned modules; personal-profile apps are not (paper §VII
// "Compatibility": the Context Manager does not interact with apps outside
// the work container).
func (d *Device) InstallApp(apk *dex.APK, funcs []Functionality, profile Profile) (*App, error) {
	if err := apk.Validate(); err != nil {
		return nil, fmt.Errorf("android: install: %w", err)
	}
	d.mu.Lock()
	if _, dup := d.byPkg[apk.PackageName]; dup {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrAppInstalled, apk.PackageName)
	}
	app := &App{
		APK:     apk,
		UID:     d.next,
		Profile: profile,
		device:  d,
		thread:  NewThread(),
		funcs:   make(map[string]*Functionality, len(funcs)),
	}
	d.next++
	for i := range funcs {
		f := funcs[i]
		if _, dup := app.funcs[f.Name]; dup {
			d.mu.Unlock()
			return nil, fmt.Errorf("android: duplicate functionality %q in %s", f.Name, apk.PackageName)
		}
		app.funcs[f.Name] = &f
		app.order = append(app.order, f.Name)
	}
	d.apps[app.UID] = app
	d.byPkg[apk.PackageName] = app
	modules := append([]Module(nil), d.modules...)
	d.mu.Unlock()

	if profile == ProfileWork {
		for _, m := range modules {
			if err := m.HandleLoadPackage(app); err != nil {
				return nil, fmt.Errorf("android: module %s on %s: %w", m.Name(), apk.PackageName, err)
			}
		}
	}
	return app, nil
}

// AppByUID finds an installed app by its sandbox uid.
func (d *Device) AppByUID(uid int) (*App, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.apps[uid]
	return a, ok
}

// AppByPackage finds an installed app by its package name.
func (d *Device) AppByPackage(pkg string) (*App, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.byPkg[pkg]
	return a, ok
}

// Apps returns all installed apps (stable by uid order).
func (d *Device) Apps() []*App {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*App, 0, len(d.apps))
	for uid := firstAppUID; uid < d.next; uid++ {
		if a, ok := d.apps[uid]; ok {
			out = append(out, a)
		}
	}
	return out
}
