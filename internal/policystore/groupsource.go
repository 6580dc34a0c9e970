package policystore

import (
	"fmt"
	"strings"
	"time"

	"borderpatrol/internal/policy"
)

// GroupScopedSource narrows a fleet-wide grouped policy document (see
// policy.ParseGroupSet) to one gateway's shard: the global rules plus the
// rules of the groups this gateway serves. The fleet controller publishes
// ONE document on a Hub; every gateway wraps its own HubSource in a
// GroupScopedSource and compiles only its slice, so a 100k-device fleet
// never compiles a monolithic rule set per gateway.
//
// Versioning is content-addressed on the *scoped* render: an edit to
// another group's section leaves this gateway's shard byte-identical, so
// the source reports unchanged and the store skips the recompile and the
// engine-generation bump (cached flow verdicts survive). Only an edit to
// the global section or to one of this gateway's groups produces a new
// version.
//
// Like every Source, an instance belongs to exactly one Store. It
// forwards Watch to the hub.
type GroupScopedSource struct {
	inner  *HubSource
	groups []string

	// lastInner memoizes the hub's version so a watch keeps parking across
	// the re-scoping: the store's prev token names the scoped version, not
	// the hub's.
	lastInner     string
	scopedDoc     string
	scopedVersion string
}

// NewGroupScopedSource wraps a hub source, scoping it to the named groups.
func NewGroupScopedSource(inner *HubSource, groups ...string) *GroupScopedSource {
	return &GroupScopedSource{inner: inner, groups: append([]string(nil), groups...)}
}

// Fetch fetches the fleet document and returns this gateway's shard.
func (s *GroupScopedSource) Fetch(prev string) (Candidate, bool, error) {
	c, unchanged, err := s.inner.Fetch(s.lastInner)
	return s.scope(prev, c, unchanged, err)
}

// Watch parks a blocking watch on the hub and scopes the result. A hub
// revision that does not touch this shard surfaces as unchanged.
func (s *GroupScopedSource) Watch(prev string, timeout time.Duration, cancel <-chan struct{}) (Candidate, bool, error) {
	c, unchanged, err := s.inner.Watch(s.lastInner, timeout, cancel)
	return s.scope(prev, c, unchanged, err)
}

// scope turns an inner fetch result into this gateway's shard.
func (s *GroupScopedSource) scope(prev string, c Candidate, unchanged bool, err error) (Candidate, bool, error) {
	if err != nil {
		return Candidate{}, false, err
	}
	if !unchanged {
		gs, perr := policy.ParseGroupSet(c.Doc)
		if perr != nil {
			return Candidate{}, false, fmt.Errorf("policystore: %s: grouped document %s rejected: %w", s.inner, c.Version, perr)
		}
		s.lastInner = c.Version
		s.scopedDoc = gs.DocFor(s.groups...)
		s.scopedVersion = "group:" + contentVersion([]byte(s.scopedDoc))
	}
	if prev != "" && prev == s.scopedVersion {
		return Candidate{}, true, nil
	}
	return Candidate{Doc: s.scopedDoc, Version: s.scopedVersion}, false, nil
}

// String describes the backend and its scope.
func (s *GroupScopedSource) String() string {
	return fmt.Sprintf("%s[groups:%s]", s.inner, strings.Join(s.groups, ","))
}
