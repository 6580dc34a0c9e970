package policystore

import (
	"fmt"
	"sync"
	"time"
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

// Get returns the current document and its version.
func (h *Hub) Get() (doc, version string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.doc, h.version
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

// HubSource adapts a Hub to the Source and Watcher interfaces.
type HubSource struct{ h *Hub }

// Fetch returns the hub's current document when it differs from prev.
func (s *HubSource) Fetch(prev string) (Candidate, bool, error) {
	doc, version := s.h.Get()
	if prev != "" && prev == version {
		return Candidate{}, true, nil
	}
	return Candidate{Doc: doc, Version: version}, false, nil
}

// Watch blocks until the hub's version differs from prev, the timeout
// elapses, or cancel closes.
func (s *HubSource) Watch(prev string, timeout time.Duration, cancel <-chan struct{}) (Candidate, bool, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		doc, version, changed := s.h.state()
		if prev == "" || prev != version {
			return Candidate{Doc: doc, Version: version}, false, nil
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

// String describes the backend.
func (s *HubSource) String() string { return "hub" }
