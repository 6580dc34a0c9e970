package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/dns"
	"borderpatrol/internal/experiments"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/policystore"
	"borderpatrol/internal/trackers"
)

// Traffic mix: trackerSlots of every mixPeriod scheduled operations are
// tracker functionality, the rest are not. A fixed interleave (rather
// than weighting each functionality) keeps the delivered share at
// 10/13 ≈ 77 % on every seed, so per-packet metrics do not inherit the
// corpus's tracker count.
const (
	mixPeriod    = 13
	trackerSlots = 3
	schedPeriods = 512
	// waveStride shifts each pooled device onto another schedule slot
	// every wave, so a device's successive flows differ.
	waveStride = 131
)

// dnsServer is the zone server every churn functionality queries.
var dnsServer = netip.AddrPortFrom(netip.MustParseAddr("10.66.0.53"), 53)

// poolPrefix numbers the pooled devices (65,534 addresses).
var poolPrefix = netip.MustParsePrefix("10.80.0.0/16")

// fnRef names one functionality of the corpus.
type fnRef struct {
	app, idx int // corpus app, and position within its Functionalities
	name     string
	tracker  bool
}

// env is one fully set-up benchmark instance: corpus, policy, schedule,
// oracle fates, and the testbeds the run drives. tbs[0] receives the whole
// path; a traced run adds twins behind it.
type env struct {
	shape
	seed   int64
	corpus []*apkgen.App
	fns    []fnRef
	sched  []int32
	// want[doc][fn] is the oracle's fate — delivered or dropped at the
	// gateway — of fn's packets under policy document doc.
	want [2][]bool
	// docs are churn's two alternating policy documents, served from hub;
	// the other workloads pass rules straight to the testbed.
	docs  [2]string
	rules []policy.Rule
	hub   *policystore.Hub
	zone  *dns.Zone
	// templates[fn] is fn's burst as the oracle's device emitted it.
	templates [][]*ipv4.Packet
	pool      *netsim.DevicePool
	order     []int32
	tbs       []*experiments.Testbed

	// Run state shared by every testbed of the env.
	doc   int // active policy document
	burst []*ipv4.Packet
	fates []bool
}

func (e *env) close() {
	for _, tb := range e.tbs {
		_ = tb.Close() // tail-only audit: nothing to flush to
	}
	e.tbs = nil
}

// setUp builds an env with n cold testbeds; warming them is the runner's
// job, because a traced run warms each twin at its own depth.
func setUp(w *workload, cfg config, n int) (*env, error) {
	e := &env{shape: w.shape(cfg.scale), seed: cfg.seed}
	if cfg.apps > 0 {
		small := *w
		small.apps = cfg.apps
		e.workload = &small
	}
	if err := e.buildCorpus(); err != nil {
		return nil, err
	}
	e.buildSchedule()
	if err := e.buildPolicy(); err != nil {
		return nil, err
	}
	if err := e.runOracle(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		tb, err := e.newTestbed(false)
		if err != nil {
			e.close()
			return nil, err
		}
		e.tbs = append(e.tbs, tb)
	}
	if e.pooled {
		pool, err := netsim.NewDevicePool(poolPrefix, e.devices)
		if err != nil {
			e.close()
			return nil, err
		}
		e.pool = pool
		r := rand.New(rand.NewSource(e.seed ^ 0x6f72646572)) // "order"
		e.order = make([]int32, e.devices)
		for i, d := range r.Perm(e.devices) {
			e.order[i] = int32(d)
		}
		e.burst = make([]*ipv4.Packet, 0, burstSize)
		e.fates = make([]bool, 0, burstSize)
	}
	return e, nil
}

// buildCorpus generates the seeded corpus and reshapes every
// functionality to the workload: Requests per flow, and for churn a DNS
// query over UDP to the one zone server.
func (e *env) buildCorpus() error {
	gen := apkgen.DefaultConfig()
	gen.Seed = e.seed
	gen.Apps = e.apps
	corpus, err := apkgen.Generate(gen)
	if err != nil {
		return err
	}
	e.corpus = corpus
	if e.udp {
		e.zone = dns.NewZone()
	}
	for a, ga := range corpus {
		for i := range ga.Functionalities {
			f := &ga.Functionalities[i]
			f.Op.Requests = e.requests
			if e.udp {
				if err := e.zone.AddRecord(f.Op.Host, f.Op.Endpoint.Addr()); err != nil {
					return err
				}
				q, err := (&dns.Query{ID: uint16(len(e.fns)), Name: f.Op.Host}).Marshal()
				if err != nil {
					return err
				}
				f.Op.Proto = ipv4.ProtoUDP
				f.Op.Datagram = q
				f.Op.Endpoint = dnsServer
			}
			e.fns = append(e.fns, fnRef{app: a, idx: i, name: f.Name, tracker: ga.Meta[f.Name].IsTracker})
		}
	}
	return nil
}

// buildSchedule lays the fixed tracker/non-tracker interleave over seeded
// shuffles of the two functionality lists.
func (e *env) buildSchedule() {
	var plain, tracked []int32
	for i, f := range e.fns {
		if f.tracker {
			tracked = append(tracked, int32(i))
		} else {
			plain = append(plain, int32(i))
		}
	}
	r := rand.New(rand.NewSource(e.seed ^ 0x7363686564)) // "sched"
	r.Shuffle(len(plain), func(i, j int) { plain[i], plain[j] = plain[j], plain[i] })
	r.Shuffle(len(tracked), func(i, j int) { tracked[i], tracked[j] = tracked[j], tracked[i] })
	if len(tracked) == 0 {
		tracked = plain // a corpus without trackers still runs
	}
	e.sched = make([]int32, 0, mixPeriod*schedPeriods)
	var p, t int
	for s := 0; s < cap(e.sched); s++ {
		// Tracker slots spread evenly through the period: 4, 8, 12 of 13.
		if k := s % mixPeriod; k > 0 && k%(mixPeriod/trackerSlots) == 0 {
			e.sched = append(e.sched, tracked[t%len(tracked)])
			t++
		} else {
			e.sched = append(e.sched, plain[p%len(plain)])
			p++
		}
	}
}

// buildPolicy is the paper's §VI-B1 policy: one deny-library rule per
// tracker catalog entry. Churn alternates it with a document in which a
// rule for a library no corpus app bundles is replaced by a class-level
// deny that flips the first scheduled functionality's fate.
func (e *env) buildPolicy() error {
	catalog := trackers.Catalog()
	e.rules = make([]policy.Rule, len(catalog))
	for i, lib := range catalog {
		e.rules[i] = policy.Rule{Action: policy.Deny, Level: policy.LevelLibrary, Target: lib.Package}
	}
	if e.swapEvery == 0 {
		return nil
	}
	bundled := make(map[string]bool)
	for _, ga := range e.corpus {
		for _, lib := range ga.Libraries {
			bundled[lib] = true
		}
	}
	spare := -1
	for i := len(catalog) - 1; i >= 0; i-- {
		if !bundled[catalog[i].Package] {
			spare = i
			break
		}
	}
	if spare < 0 {
		return fmt.Errorf("every catalog library is bundled; no rule to trade for the flip rule")
	}
	victim := e.fns[e.sched[0]]
	path := e.corpus[victim.app].Functionalities[victim.idx].CallPath
	alt := append([]policy.Rule(nil), e.rules...)
	alt[spare] = policy.Rule{Action: policy.Deny, Level: policy.LevelClass, Target: path[len(path)-1].Class}
	e.docs = [2]string{policy.FormatPolicy(e.rules), policy.FormatPolicy(alt)}
	e.hub = policystore.NewHub(e.docs[0])
	return nil
}

// newTestbed assembles the deployment every experiment and bp-gateway
// ship: NewTestbed with enforcement on, captures off, a one-minute flow
// TTL, dataplane off, tail-only audit. The oracle differs only in having
// no flow cache.
func (e *env) newTestbed(oracle bool) (*experiments.Testbed, error) {
	cfg := experiments.TestbedConfig{
		EnforcementOn:    true,
		DisableCapture:   true,
		FlowTTL:          time.Minute,
		DefaultVerdict:   policy.VerdictAllow,
		DisableFlowCache: oracle,
	}
	if e.hub != nil {
		cfg.PolicySource = e.hub.Source()
	} else {
		cfg.Rules = e.rules
	}
	tb, err := experiments.NewTestbed(e.corpus, cfg)
	if err != nil {
		return nil, err
	}
	if e.udp {
		tb.Network.AddServer(&netsim.Server{
			Addr: dnsServer.Addr(), Name: "corp-dns",
			UDPHandler: dns.ZoneHandler(e.zone), Internal: true,
		})
	}
	return tb, nil
}

// publish makes doc the hub's current policy document; each testbed picks
// it up at its next Store.Reload.
func (e *env) publish(doc int) {
	e.doc = doc
	e.hub.Set(e.docs[doc])
}

// runOracle pushes every functionality's burst once through a testbed
// without a flow cache, records each fate per policy document, keeps the
// bursts as templates, and cross-checks the fates against the generator's
// own truth.
func (e *env) runOracle() error {
	tb, err := e.newTestbed(true)
	if err != nil {
		return err
	}
	defer tb.Close()
	e.templates = make([][]*ipv4.Packet, len(e.fns))
	for i, f := range e.fns {
		inv, err := tb.Apps[f.app].Invoke(f.name)
		if err != nil {
			return err
		}
		if len(inv.Packets) != e.phases() {
			return fmt.Errorf("oracle: %s/%s emitted %d packets, want %d", e.corpus[f.app].APK.PackageName, f.name, len(inv.Packets), e.phases())
		}
		e.templates[i] = inv.Packets
	}
	docs := 1
	if e.hub != nil {
		docs = 2
	}
	for doc := 0; doc < docs; doc++ {
		if doc > 0 {
			e.publish(doc)
			if _, err := tb.Policy.Reload(); err != nil {
				return err
			}
		}
		e.want[doc] = make([]bool, len(e.fns))
		for i := range e.fns {
			fate, err := e.uniformFate(tb.Network.DeliverBatch(e.templates[i]))
			if err != nil {
				return fmt.Errorf("oracle: %s: %w", e.fns[i].name, err)
			}
			e.want[doc][i] = fate
		}
	}
	flipped := 0
	for i, f := range e.fns {
		if e.want[0][i] == f.tracker {
			return fmt.Errorf("oracle: %s/%s tracker=%v but delivered=%v", e.corpus[f.app].APK.PackageName, f.name, f.tracker, e.want[0][i])
		}
		if docs == 2 && e.want[1][i] != e.want[0][i] {
			if f.tracker {
				return fmt.Errorf("oracle: the alternate document admits tracker %s", f.name)
			}
			flipped++
		}
	}
	if docs == 2 {
		if flipped == 0 {
			return fmt.Errorf("oracle: the alternate document flips no functionality")
		}
		e.publish(0)
	}
	return nil
}

// uniformFate reduces a burst's deliveries to one fate; every packet of a
// flow carries the same tag, so a split verdict is an error.
func (e *env) uniformFate(dels []netsim.Delivery) (bool, error) {
	for p, d := range dels {
		if d.Delivered != dels[0].Delivered || (!d.Delivered && d.Stage != netsim.StageGateway) {
			return false, fmt.Errorf("packet %d: delivered=%v stage=%v, first packet delivered=%v", p, d.Delivered, d.Stage, dels[0].Delivered)
		}
		if !answered(d, e.dataPhase(p)) {
			return false, fmt.Errorf("packet %d delivered without its response", p)
		}
	}
	return dels[0].Delivered, nil
}

// answered reports whether a delivery carries what its packet is owed: a
// delivered request comes back with an HTTP response or a DNS answer,
// unless the gateway's own response-direction check refused the response
// (counted apart, as response_seq_drops; the packet's fate is still the
// oracle's).
func answered(d netsim.Delivery, data bool) bool {
	return !d.Delivered || !data || d.Response != nil || len(d.Datagram) > 0 || d.ResponseDropped
}
