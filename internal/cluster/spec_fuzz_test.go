package cluster

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzUnmarshalSpec feeds UnmarshalSpec arbitrary frames: a WAL record or
// a lease body is foreign bytes. Each must decode to an error or to a
// Spec that survives Marshal -> UnmarshalSpec unchanged, and the decode
// must never panic. The header bound holds: bytes past the 4+length
// header never change what the header decodes to, and they come back,
// unparsed, as the FASTA. The seed corpus is testdata/fuzz/FuzzUnmarshalSpec.
func FuzzUnmarshalSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := UnmarshalSpec(b)
		if len(b) >= 4 {
			if hlen := int(binary.LittleEndian.Uint32(b)); hlen > 0 && hlen <= len(b)-4 {
				head, herr := UnmarshalSpec(b[: 4+hlen : 4+hlen])
				if (err == nil) != (herr == nil) {
					t.Fatalf("the bytes past the header decide the decode: %v with them, %v without", err, herr)
				}
				if err == nil {
					if !bytes.Equal(s.Fasta, b[4+hlen:]) || len(head.Fasta) != 0 {
						t.Fatalf("FASTA %q, %q without the tail; want the %d bytes past the header", s.Fasta, head.Fasta, len(b)-4-hlen)
					}
					head.Fasta = s.Fasta
					if !reflect.DeepEqual(head, s) {
						t.Fatalf("the bytes past the header change the header:\n%+v\n%+v", s, head)
					}
				}
			}
		}
		if err != nil {
			return
		}
		out, err := s.Marshal()
		if err != nil {
			t.Fatalf("decoded spec does not marshal: %v\n%+v", err, s)
		}
		back, err := UnmarshalSpec(out)
		if err != nil {
			t.Fatalf("marshalled spec does not decode: %v\n%q", err, out)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v", s, back)
		}
	})
}
