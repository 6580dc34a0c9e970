package analyzer

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"borderpatrol/internal/dex"
)

// entryWithPrefix builds an AppEntry whose truncated hash starts with the
// given byte, so tests can steer entries into a chosen shard.
func entryWithPrefix(prefix byte, i int) AppEntry {
	return AppEntry{
		Hash:        fmt.Sprintf("%02x%014x%016x", prefix, uint64(i), uint64(i)),
		PackageName: fmt.Sprintf("com.shard.app%02x.%d", prefix, i),
		VersionCode: 1,
		Signatures:  []string{"Lcom/shard/A;->m()V"},
	}
}

// TestShardSpread checks that entries distribute across stripes by their
// truncated-hash prefix: one entry per possible first byte must leave no
// shard holding more than its 256/shardCount share.
func TestShardSpread(t *testing.T) {
	db := NewDatabase()
	for p := 0; p < 256; p++ {
		if err := db.AddEntry(entryWithPrefix(byte(p), p)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != 256 {
		t.Fatalf("Len = %d, want 256", db.Len())
	}
	want := 256 / shardCount
	for i := range db.shards {
		s := &db.shards[i]
		if len(s.byFull) != want || len(s.byTruncated) != want {
			t.Fatalf("shard %d holds %d/%d entries, want %d each", i, len(s.byFull), len(s.byTruncated), want)
		}
	}
}

// TestShardedCollisionStillDetected verifies the §VII hash-collision guard
// survives sharding: two different full hashes with the same truncated
// prefix land in the same shard and the second insert fails.
func TestShardedCollisionStillDetected(t *testing.T) {
	db := NewDatabase()
	a := entryWithPrefix(0x11, 1)
	b := entryWithPrefix(0x11, 1)
	b.Hash = a.Hash[:2*dex.TruncatedHashSize] + "ffffffffffffffff"
	b.PackageName = "com.shard.collider"
	if err := db.AddEntry(a); err != nil {
		t.Fatal(err)
	}
	if err := db.AddEntry(b); err == nil {
		t.Fatal("truncated-hash collision accepted")
	}
	// The duplicate check also stays intact.
	if err := db.AddEntry(a); err == nil {
		t.Fatal("duplicate entry accepted")
	}
}

// TestConcurrentProvisioningAndResolve is the tentpole's correctness side:
// writers provision apps into every shard while readers resolve, decode and
// list concurrently (run under -race in CI). Every provisioned app must be
// resolvable afterwards and the generation must count every insert.
func TestConcurrentProvisioningAndResolve(t *testing.T) {
	db := NewDatabase()
	seedEntry := entryWithPrefix(0xaa, 99999)
	if err := db.AddEntry(seedEntry); err != nil {
		t.Fatal(err)
	}
	seed, err := dex.ParseTruncatedHash(seedEntry.Hash[:2*dex.TruncatedHashSize])
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter, readers = 4, 64, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := db.AddEntry(entryWithPrefix(byte(w*perWriter+i), w*1000+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				res, ok := db.Resolve(seed)
				if !ok {
					t.Error("seed app unresolvable during provisioning")
					return
				}
				if _, err := res.Signature(0); err != nil {
					t.Error(err)
					return
				}
				db.Len()
				if i%100 == 0 {
					if err := db.Save(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if got, want := db.Len(), 1+writers*perWriter; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got := db.Generation(); got != uint64(1+writers*perWriter) {
		t.Fatalf("Generation = %d, want %d", got, 1+writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			ae := entryWithPrefix(byte(w*perWriter+i), w*1000+i)
			tr, err := dex.ParseTruncatedHash(ae.Hash[:2*dex.TruncatedHashSize])
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := db.LookupTruncated(tr); !ok {
				t.Fatalf("provisioned app %s unresolvable", ae.Hash)
			}
		}
	}
}

// TestShardedSaveLoadDeterministic locks in the serialization contract
// across the sharded layout: Save output is sorted by hash and byte-stable,
// and Load rebuilds an equivalent database.
func TestShardedSaveLoadDeterministic(t *testing.T) {
	db := NewDatabase()
	for p := 0; p < 32; p++ {
		if err := db.AddEntry(entryWithPrefix(byte(p*8), p)); err != nil {
			t.Fatal(err)
		}
	}
	var a, b bytes.Buffer
	if err := db.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Save output not deterministic across calls")
	}
	loaded, err := Load(&a)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("loaded Len = %d, want %d", loaded.Len(), db.Len())
	}
	var c bytes.Buffer
	if err := loaded.Save(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Bytes(), b.Bytes()) {
		t.Fatal("the loaded database saves differently")
	}
}
