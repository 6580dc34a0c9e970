package policystore

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"borderpatrol/internal/policy"
)

// This file adds the push half of fleet policy distribution. Polling
// alone makes a fleet-wide change cost N staggered rounds (jittered
// deliberately — see jitter); the in-process Hub lets every gateway's
// store park a blocking watch and have ONE revision wake them all, so the
// change propagates in a single round. A Store takes the watch path
// whenever its Source implements Watcher; a failed watch round backs off
// like a failed poll (see Store.run).

// Watcher is an optional Source extension for backends that can block
// until the document changes. Watch has Fetch semantics — prev is the
// last version this consumer saw — plus a hold: when the backend's
// current version equals prev, the call blocks until a new revision
// lands, the timeout elapses (→ unchanged, a healthy idle round), or
// cancel is closed (→ unchanged, the store is shutting down).
type Watcher interface {
	Source
	Watch(prev string, timeout time.Duration, cancel <-chan struct{}) (Candidate, bool, error)
}

// Hub is an in-process fleet policy control plane: one authoritative
// grouped document, revisioned on every Set, fanned out to any number of
// gateways in the same process. Each gateway's store watches its own
// Source, so a fleet-wide Set wakes every parked gateway at once.
type Hub struct {
	mu      sync.Mutex
	doc     string
	version string
	rev     uint64
	changed chan struct{} // closed and replaced on every revision
}

// NewHub builds a Hub serving the given document as revision 1.
func NewHub(doc string) *Hub {
	h := &Hub{changed: make(chan struct{})}
	h.publish(doc)
	return h
}

// publish installs doc as the next revision. Callers hold h.mu or have
// exclusive access (NewHub).
func (h *Hub) publish(doc string) {
	h.rev++
	h.doc = doc
	h.version = fmt.Sprintf("rev%d-%s", h.rev, contentVersion([]byte(doc)))
	close(h.changed)
	h.changed = make(chan struct{})
}

// Set publishes a new document and returns its version, waking every
// parked watcher. Publishing identical bytes is a no-op (the current
// version is returned and nobody wakes).
func (h *Hub) Set(doc string) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if doc != h.doc {
		h.publish(doc)
	}
	return h.version
}

// Rev returns the current revision number (1 after NewHub, +1 per Set).
func (h *Hub) Rev() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rev
}

// state snapshots the document, version, and the channel that closes on
// the next revision.
func (h *Hub) state() (doc, version string, changed <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.doc, h.version, h.changed
}

// Source returns an in-process Source+Watcher over the hub. Each store
// needs its own instance (Sources are single-consumer); all instances
// share the hub's document.
func (h *Hub) Source() *HubSource { return &HubSource{h: h} }

// Shard returns a hub source narrowed to one gateway's shard of the
// grouped document (policy.ParseGroupSet): the global rules plus the named
// groups' rules, or the global rules alone with no groups. The shard is
// versioned on its content, so an edit to another group's section is an
// unchanged round: no recompile, no generation bump, no cache
// invalidation. It is re-parsed only when the hub revision moves, and its
// watch parks on the hub revision.
func (h *Hub) Shard(groups ...string) *HubSource {
	return &HubSource{h: h, shard: &shard{groups: append([]string(nil), groups...)}}
}

// HubSource adapts a Hub to the Source and Watcher interfaces.
type HubSource struct {
	h     *Hub
	shard *shard // nil unless built by Hub.Shard
}

// shard is a Hub.Shard source's groups and its render of the hub version
// it last parsed (a store's prev names the render's version).
type shard struct {
	groups                   []string
	hubVersion, doc, version string
}

// Fetch returns the hub's current document, or the shard of it, when it
// differs from prev.
func (s *HubSource) Fetch(prev string) (Candidate, bool, error) {
	doc, version, _ := s.h.state()
	return s.serve(prev, doc, version)
}

// Watch blocks until the hub's version differs from the last one this
// source served, the timeout elapses, or cancel closes. On a shard, a hub
// revision that leaves the shard as it was surfaces as unchanged.
func (s *HubSource) Watch(prev string, timeout time.Duration, cancel <-chan struct{}) (Candidate, bool, error) {
	seen := prev
	if s.shard != nil {
		seen = s.shard.hubVersion
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		doc, version, changed := s.h.state()
		if seen == "" || seen != version {
			return s.serve(prev, doc, version)
		}
		select {
		case <-changed:
		case <-deadline.C:
			return Candidate{}, true, nil
		case <-cancel:
			return Candidate{}, true, nil
		}
	}
}

// serve answers prev with the hub document at version, scoped to the
// shard on a Hub.Shard source.
func (s *HubSource) serve(prev, doc, version string) (Candidate, bool, error) {
	if sh := s.shard; sh != nil {
		if version != sh.hubVersion {
			gs, err := policy.ParseGroupSet(doc)
			if err != nil {
				return Candidate{}, false, fmt.Errorf("policystore: hub: grouped document %s rejected: %w", version, err)
			}
			sh.hubVersion = version
			sh.doc = gs.DocFor(sh.groups...)
			sh.version = "group:" + contentVersion([]byte(sh.doc))
		}
		doc, version = sh.doc, sh.version
	}
	if prev != "" && prev == version {
		return Candidate{}, true, nil
	}
	return Candidate{Doc: doc, Version: version}, false, nil
}

// String describes the backend, and a shard's groups.
func (s *HubSource) String() string {
	if s.shard != nil {
		return fmt.Sprintf("hub[groups:%s]", strings.Join(s.shard.groups, ","))
	}
	return "hub"
}
