package analyzer

import (
	"bytes"
	"testing"
)

// FuzzLoad: no input panics the database loader, and a database it
// accepts saves to a document that loads and saves again to the same
// bytes.
func FuzzLoad(f *testing.F) {
	db := NewDatabase()
	for v := 1; v <= 2; v++ {
		if err := db.Add(buildAPK("com.example.app", v)); err != nil {
			f.Fatal(err)
		}
	}
	var saved bytes.Buffer
	if err := db.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add([]byte(`{"version":1,"apps":[]}`))
	f.Add([]byte(`{"version":2,"apps":[]}`))
	f.Add([]byte(`{"version":1,"apps":[{"hash":"0123456789abcdef0123456789abcdef","signatures":["Lcom/a;->b()V","bad"]}]}`))
	f.Add([]byte(`{"version":1,"apps":[{"hash":"0123456789abcdef0123456789abcdef"},{"hash":"0123456789ABCDEF0123456789abcdef"}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		db, err := Load(bytes.NewReader(b))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := db.Save(&first); err != nil {
			t.Fatalf("loaded database does not save: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved database %q does not load: %v", first.Bytes(), err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save is not a fixpoint:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
