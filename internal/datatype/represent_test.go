package datatype_test

import (
	"testing"

	"repro/internal/datatype"
	"repro/internal/flatten"
)

// TestRepresentationSize pins the paper's representation-size argument
// (§2.1) on its canonical layout, 1000 doubles one every second slot: the
// explicit ol-list of ⟨offset, length⟩ tuples takes 16 000 bytes, twice
// the 8 000 data bytes it describes, and the compact encoding the
// listless engine exchanges takes 15 — 1 067× smaller.
func TestRepresentationSize(t *testing.T) {
	dt, err := datatype.Vector(1000, 1, 2, datatype.Double)
	if err != nil {
		t.Fatal(err)
	}
	list, enc := flatten.Flatten(dt).Footprint(), int64(datatype.EncodedSize(dt))
	if dt.Size() != 8000 || list != 16000 || enc != 15 {
		t.Fatalf("%d data bytes: ol-list %d B, encoding %d B; want 8000, 16000 and 15", dt.Size(), list, enc)
	}
}
