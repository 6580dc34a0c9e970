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
//
// The hub scopes shards for every source: it splits a revision's grouped
// document once (policy.ParseGroupSet), at the first shard read or at
// SetGroups, and renders each shard from that split.
type Hub struct {
	mu      sync.Mutex
	doc     string
	version string
	rev     uint64
	changed chan struct{} // closed and replaced on every revision

	// split is doc split into its groups (nil until a shard first reads
	// the revision), or splitErr its refusal.
	split    *policy.GroupSet
	splitErr error
}

// NewHub builds a Hub serving the given document as revision 1.
func NewHub(doc string) *Hub {
	h := &Hub{changed: make(chan struct{})}
	h.publish(doc, nil)
	return h
}

// publish installs doc, and its split when the caller made it, as the
// next revision. Callers hold h.mu or have exclusive access (NewHub).
func (h *Hub) publish(doc string, split *policy.GroupSet) {
	h.rev++
	h.doc = doc
	h.version = fmt.Sprintf("rev%d-%s", h.rev, contentVersion([]byte(doc)))
	h.split, h.splitErr = split, nil
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
		h.publish(doc, nil)
	}
	return h.version
}

// SetGroups is Set for a grouped document: it splits doc first and
// refuses one that does not split, publishing nothing. The split serves
// every shard of the new revision.
func (h *Hub) SetGroups(doc string) (string, error) {
	split, err := policy.ParseGroupSet(doc)
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if doc != h.doc {
		h.publish(doc, split)
	}
	return h.version, nil
}

// ShardVersion returns the version a Shard(groups...) source serves at the
// current revision, or the refusal of a document that does not split.
func (h *Hub) ShardVersion(groups ...string) (string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, err := h.shard(groups)
	return c.Version, err
}

// shard renders the current revision's shard for groups: the global rules
// plus the named groups' rules, versioned on its content. Callers hold
// h.mu.
func (h *Hub) shard(groups []string) (Candidate, error) {
	if h.split == nil && h.splitErr == nil {
		h.split, h.splitErr = policy.ParseGroupSet(h.doc)
	}
	if h.splitErr != nil {
		return Candidate{}, h.splitErr
	}
	doc := h.split.DocFor(groups...)
	return Candidate{Doc: doc, Version: "group:" + contentVersion([]byte(doc))}, nil
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
// invalidation. Its watch parks on the hub revision.
func (h *Hub) Shard(groups ...string) *HubSource {
	return &HubSource{h: h, sharded: true, groups: append([]string(nil), groups...)}
}

// HubSource adapts a Hub to the Source and Watcher interfaces.
type HubSource struct {
	h *Hub
	// sharded marks a Hub.Shard source, serving the shard for groups.
	sharded bool
	groups  []string
	// seen is the hub version a shard source last served (a store's prev
	// names the shard's own version).
	seen string
}

// Fetch returns the hub's current document, or the shard of it, when it
// differs from prev.
func (s *HubSource) Fetch(prev string) (Candidate, bool, error) {
	c, err := s.current()
	if err != nil {
		return Candidate{}, false, err
	}
	if prev != "" && prev == c.Version {
		return Candidate{}, true, nil
	}
	return c, false, nil
}

// current reads the hub's current document, or the shard of it.
func (s *HubSource) current() (Candidate, error) {
	h := s.h
	h.mu.Lock()
	defer h.mu.Unlock()
	if !s.sharded {
		return Candidate{Doc: h.doc, Version: h.version}, nil
	}
	c, err := h.shard(s.groups)
	if err != nil {
		return c, fmt.Errorf("policystore: hub: grouped document %s rejected: %w", h.version, err)
	}
	s.seen = h.version
	return c, nil
}

// Watch blocks until the hub's version differs from the last one this
// source served, the timeout elapses, or cancel closes. On a shard, a hub
// revision that leaves the shard as it was surfaces as unchanged.
func (s *HubSource) Watch(prev string, timeout time.Duration, cancel <-chan struct{}) (Candidate, bool, error) {
	seen := prev
	if s.sharded {
		seen = s.seen
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		_, version, changed := s.h.state()
		if seen == "" || seen != version {
			return s.Fetch(prev)
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

// String describes the backend, and a shard's groups.
func (s *HubSource) String() string {
	if s.sharded {
		return fmt.Sprintf("hub[groups:%s]", strings.Join(s.groups, ","))
	}
	return "hub"
}
