// Package analyzer implements BorderPatrol's Offline Analyzer (paper
// §IV-A1, §V-A): it processes every app the enterprise manages, extracts
// method signatures from the app's dex files, orders them
// deterministically, assigns sequential indexes, and stores the mapping in
// a JSON database keyed by the apk's MD5 hash. The Context Manager (on
// device) and the Policy Enforcer (on network) both derive their mappings
// from the same apk bytes, so encode and decode stay in coherence without
// any runtime coordination.
package analyzer

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"borderpatrol/internal/dex"
)

// AppEntry is one app's record in the signature database.
type AppEntry struct {
	// Hash is the full MD5 of the apk, in hex (the primary key).
	Hash string `json:"hash"`
	// PackageName is the Android application id, for operator readability.
	PackageName string `json:"package_name"`
	// VersionCode distinguishes entries for different versions of an app.
	VersionCode int `json:"version_code"`
	// MultiDex records whether indexes need the wide (3-byte) encoding.
	MultiDex bool `json:"multi_dex"`
	// DebugStripped records whether the apk lacked debug line tables.
	DebugStripped bool `json:"debug_stripped"`
	// Signatures is the ordered signature list; a method's index is its
	// position in this slice.
	Signatures []string `json:"signatures"`
}

// shardCount is the number of lock stripes in a Database, a power of two
// selected by the first byte of an app's truncated hash (MD5 bytes are
// uniform, so apps spread evenly). At fleet scale a provisioning write
// contends only with resolves that land on the same 1/64th of the hash
// space; the per-packet resolve path never touches a lock another shard's
// writer holds.
const shardCount = 64

// dbShard is one lock stripe of the database. Both maps for a given app
// live in the same shard — the byFull key (full hex hash) starts with the
// hex form of the truncated hash that selects the shard — so duplicate and
// collision checks need only the shard lock.
type dbShard struct {
	mu sync.RWMutex
	// byFull maps full 32-hex MD5 to entry.
	byFull map[string]*entry
	// byTruncated maps the 8-byte packet identifier to the full hash.
	// Collisions (paper §VII "Hash collision") are detected at insert.
	byTruncated map[dex.TruncatedHash]string
	// pad keeps neighbouring shard locks off one cache line.
	_ [40]byte
}

// Database maps truncated and full apk hashes to signature tables. It is
// safe for concurrent use; the Policy Enforcer reads it on every packet
// while new apps are provisioned, so the table is sharded by truncated-hash
// prefix: resolves RLock one shard, provisioning writes lock one shard.
type Database struct {
	// generation counts successful mutations; flow-verdict caches key
	// their entries on it so provisioning a new app invalidates any
	// verdict that depended on the app being unknown.
	generation atomic.Uint64
	shards     [shardCount]dbShard
}

// entry is immutable once inserted: the Resolver hands out lock-free
// references to it, so nothing may mutate sigs after AddEntry.
type entry struct {
	meta AppEntry
	sigs []dex.Signature
}

// Errors returned by database operations.
var (
	ErrUnknownApp     = errors.New("analyzer: unknown app hash")
	ErrUnknownIndex   = errors.New("analyzer: method index out of range")
	ErrHashCollision  = errors.New("analyzer: truncated hash collision")
	ErrDuplicateEntry = errors.New("analyzer: app already in database")
)

// NewDatabase returns an empty signature database.
func NewDatabase() *Database {
	db := &Database{}
	for i := range db.shards {
		db.shards[i].byFull = make(map[string]*entry)
		db.shards[i].byTruncated = make(map[dex.TruncatedHash]string)
	}
	return db
}

// shardFor selects the lock stripe owning a truncated hash.
func (db *Database) shardFor(t dex.TruncatedHash) *dbShard {
	return &db.shards[t[0]&(shardCount-1)]
}

// AnalyzeAPK extracts the deterministic signature table for one apk,
// exactly as the Java/dexlib2 Offline Analyzer does: validate the package,
// pull method signatures per dex in canonical order, concatenate across dex
// files.
func AnalyzeAPK(apk *dex.APK) (AppEntry, error) {
	if err := apk.Validate(); err != nil {
		return AppEntry{}, fmt.Errorf("analyzer: %w", err)
	}
	sigs := apk.Signatures()
	out := AppEntry{
		Hash:          apk.HashHex(),
		PackageName:   apk.PackageName,
		VersionCode:   apk.VersionCode,
		MultiDex:      apk.MultiDex(),
		DebugStripped: apk.DebugStripped(),
		Signatures:    make([]string, len(sigs)),
	}
	for i, s := range sigs {
		out.Signatures[i] = s.String()
	}
	return out, nil
}

// Add analyzes an apk and inserts its entry. Adding the same apk twice is
// an error; adding a different apk whose truncated hash collides with an
// existing entry returns ErrHashCollision (the probability is < 1e-6 at
// Play-store scale, but the enforcer must not mis-attribute packets).
func (db *Database) Add(apk *dex.APK) error {
	ae, err := AnalyzeAPK(apk)
	if err != nil {
		return err
	}
	return db.AddEntry(ae)
}

// AddEntry inserts a pre-built entry (used when loading a JSON database).
func (db *Database) AddEntry(ae AppEntry) error {
	e := &entry{meta: ae, sigs: make([]dex.Signature, len(ae.Signatures))}
	for i, raw := range ae.Signatures {
		sig, err := dex.ParseSignature(raw)
		if err != nil {
			return fmt.Errorf("analyzer: entry %s signature %d: %w", ae.Hash, i, err)
		}
		e.sigs[i] = sig
	}
	if len(ae.Hash) != 2*dex.HashSize {
		return fmt.Errorf("analyzer: entry hash %q has %d hex digits, want %d", ae.Hash, len(ae.Hash), 2*dex.HashSize)
	}
	trunc, err := dex.ParseTruncatedHash(ae.Hash[:2*dex.TruncatedHashSize])
	if err != nil {
		return fmt.Errorf("analyzer: entry hash %q: %w", ae.Hash, err)
	}

	s := db.shardFor(trunc)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byFull[ae.Hash]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateEntry, ae.Hash)
	}
	if existing, clash := s.byTruncated[trunc]; clash && existing != ae.Hash {
		return fmt.Errorf("%w: %s vs %s", ErrHashCollision, existing, ae.Hash)
	}
	s.byFull[ae.Hash] = e
	s.byTruncated[trunc] = ae.Hash
	// Bump the generation only after the entry is resolvable, so a reader
	// observing the new generation re-evaluates against the new entry.
	db.generation.Add(1)
	return nil
}

// Generation returns the number of successful mutations so far. Verdict
// caches store it with each entry and treat any change as invalidation.
func (db *Database) Generation() uint64 { return db.generation.Load() }

// Len returns the number of apps in the database.
func (db *Database) Len() int {
	n := 0
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.RLock()
		n += len(s.byFull)
		s.mu.RUnlock()
	}
	return n
}

// LookupTruncated resolves a packet's 8-byte app identifier to the app's
// database entry.
func (db *Database) LookupTruncated(t dex.TruncatedHash) (AppEntry, bool) {
	s := db.shardFor(t)
	s.mu.RLock()
	defer s.mu.RUnlock()
	full, ok := s.byTruncated[t]
	if !ok {
		return AppEntry{}, false
	}
	return s.byFull[full].meta, true
}

// Resolver is a read-only handle to one app's signature table, resolved
// from its truncated hash exactly once. Entries are immutable after
// insertion, so every Resolver method runs lock-free: the per-packet hot
// path pays one RLock in Resolve and then decodes an arbitrary number of
// frames without touching the database again.
type Resolver struct {
	hash dex.TruncatedHash
	e    *entry
}

// Resolve looks up the app behind a packet's truncated hash and returns a
// lock-free handle to its signature table. The single RLock it takes is on
// the hash's shard, so resolves proceed in parallel with provisioning
// writes to the other shards.
func (db *Database) Resolve(t dex.TruncatedHash) (Resolver, bool) {
	s := db.shardFor(t)
	s.mu.RLock()
	full, ok := s.byTruncated[t]
	var e *entry
	if ok {
		e = s.byFull[full]
	}
	s.mu.RUnlock()
	return Resolver{hash: t, e: e}, ok
}

// Len returns the number of methods in the app's signature table.
func (r Resolver) Len() int { return len(r.e.sigs) }

// Signature maps one method index back to its parsed signature.
func (r Resolver) Signature(index uint32) (dex.Signature, error) {
	if int(index) >= len(r.e.sigs) {
		return dex.Signature{}, fmt.Errorf("%w: %d >= %d for app %s", ErrUnknownIndex, index, len(r.e.sigs), r.hash)
	}
	return r.e.sigs[index], nil
}

// SignatureString returns the cached canonical string for one method
// index, so consumers that need the smali form (the Policy Extractor's
// profile builder, tooling) never re-stringify decoded signatures.
func (r Resolver) SignatureString(index uint32) (string, error) {
	if int(index) >= len(r.e.meta.Signatures) {
		return "", fmt.Errorf("%w: %d >= %d for app %s", ErrUnknownIndex, index, len(r.e.meta.Signatures), r.hash)
	}
	return r.e.meta.Signatures[index], nil
}

// DecodeStackInto decodes an index sequence into dst (reusing its backing
// array when capacity allows), preserving order. Steady-state per-packet
// decoding through a retained buffer is allocation-free.
func (r Resolver) DecodeStackInto(dst []dex.Signature, indexes []uint32) ([]dex.Signature, error) {
	dst = dst[:0]
	for _, idx := range indexes {
		sig, err := r.Signature(idx)
		if err != nil {
			return nil, err
		}
		dst = append(dst, sig)
	}
	return dst, nil
}

// DecodeStack decodes a full index sequence into the stack trace of method
// signatures, preserving order (paper §IV-A3 decoding stage). The app is
// resolved once and the whole stack decodes under that single lookup.
func (db *Database) DecodeStack(t dex.TruncatedHash, indexes []uint32) ([]dex.Signature, error) {
	r, ok := db.Resolve(t)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownApp, t)
	}
	return r.DecodeStackInto(make([]dex.Signature, 0, len(indexes)), indexes)
}

// jsonDB is the serialized database document: the paper ships the mapping
// as JSON "for its ease of use and portability" (§V-A).
type jsonDB struct {
	Version int        `json:"version"`
	Apps    []AppEntry `json:"apps"`
}

// Save writes the database as JSON. Entries added concurrently with Save
// may or may not appear; each shard is snapshotted consistently.
func (db *Database) Save(w io.Writer) error {
	doc := jsonDB{Version: 1}
	doc.Apps = make([]AppEntry, 0, db.Len())
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.RLock()
		for _, e := range s.byFull {
			doc.Apps = append(doc.Apps, e.meta)
		}
		s.mu.RUnlock()
	}
	sort.Slice(doc.Apps, func(i, j int) bool { return doc.Apps[i].Hash < doc.Apps[j].Hash })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("analyzer: save: %w", err)
	}
	return nil
}

// Load reads a JSON database document.
func Load(r io.Reader) (*Database, error) {
	var doc jsonDB
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("analyzer: load: %w", err)
	}
	if doc.Version != 1 {
		return nil, fmt.Errorf("analyzer: unsupported database version %d", doc.Version)
	}
	db := NewDatabase()
	for _, ae := range doc.Apps {
		if err := db.AddEntry(ae); err != nil {
			return nil, err
		}
	}
	return db, nil
}
