package datatype

import (
	"fmt"
	"strings"
)

// String returns a single-line structural description of t.
func (t *Type) String() string {
	var b strings.Builder
	t.describe(&b)
	return b.String()
}

func (t *Type) describe(b *strings.Builder) {
	switch t.kind {
	case KindNamed:
		if t.name != "" {
			b.WriteString(t.name)
		} else {
			fmt.Fprintf(b, "named(%d)", t.size)
		}
	case KindContiguous:
		fmt.Fprintf(b, "contig(%d, ", t.count)
		t.child.describe(b)
		b.WriteByte(')')
	case KindVector:
		fmt.Fprintf(b, "hvector(count=%d, blocklen=%d, stride=%dB, ", t.count, t.blocklen, t.stride)
		t.child.describe(b)
		b.WriteByte(')')
	case KindIndexed:
		fmt.Fprintf(b, "hindexed(%d blocks, ", len(t.blocklens))
		t.child.describe(b)
		b.WriteByte(')')
	case KindStruct:
		b.WriteString("struct{")
		for i, c := range t.children {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%d@%d:", t.blocklens[i], t.displs[i])
			c.describe(b)
		}
		b.WriteByte('}')
	case KindResized:
		fmt.Fprintf(b, "resized(lb=%d, extent=%d, ", t.lb, t.Extent())
		t.child.describe(b)
		b.WriteByte(')')
	}
}

// Summary returns a multi-line report of the derived properties of t.
func (t *Type) Summary() string {
	return fmt.Sprintf(
		"type:    %s\nsize:    %d B\nextent:  %d B (lb=%d, ub=%d)\ntrue:    [%d, %d)\nblocks:  %d\ndepth:   %d\ndense:   %v (tiled-contiguous: %v)\nencoded: %d B",
		t.String(), t.size, t.Extent(), t.lb, t.ub, t.trueLB, t.trueUB,
		t.blocks, t.depth, t.dense, t.tileable, EncodedSize(t))
}
