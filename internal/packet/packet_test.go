package packet

import (
	"testing"
	"testing/quick"
)

func TestAddressString(t *testing.T) {
	a := Address{SW: 1, MPE: 2, MCA: 3}
	if a.String() != "sw1.mpe2.mca3" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestNewPacketMasksInvalidBits(t *testing.T) {
	p := NewPacket(Address{}, 0, ^uint64(0), 8)
	if p.Bits != 0xFF {
		t.Fatalf("Bits = %x, want ff", p.Bits)
	}
}

func TestNewPacketFullWidth(t *testing.T) {
	p := NewPacket(Address{}, 0, ^uint64(0), 64)
	if p.Bits != ^uint64(0) {
		t.Fatal("full-width payload must be preserved")
	}
}

func TestNewPacketValidation(t *testing.T) {
	cases := []struct {
		offset, valid int
	}{{0, 0}, {0, 65}, {-1, 8}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("offset=%d valid=%d accepted", c.offset, c.valid)
				}
			}()
			NewPacket(Address{}, c.offset, 1, c.valid)
		}()
	}
}

func TestIsZero(t *testing.T) {
	if !NewPacket(Address{}, 0, 0, 64).IsZero() {
		t.Fatal("zero payload not detected")
	}
	if NewPacket(Address{}, 0, 1<<63, 64).IsZero() {
		t.Fatal("non-zero payload reported zero")
	}
	// High garbage bits beyond Valid are masked, so this IS a zero packet.
	if !NewPacket(Address{}, 0, 0xF0, 4).IsZero() {
		t.Fatal("masked packet should be zero")
	}
}

func TestSpikes(t *testing.T) {
	p := NewPacket(Address{}, 128, 0b1011, 8)
	got := p.Spikes()
	want := []int{128, 129, 131}
	if len(got) != len(want) {
		t.Fatalf("Spikes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Spikes = %v, want %v", got, want)
		}
	}
	if NewPacket(Address{}, 0, 0, 8).Spikes() != nil {
		t.Fatal("zero packet should yield no spikes")
	}
}

// Property: spike count equals popcount of the masked payload.
func TestSpikesCountProperty(t *testing.T) {
	f := func(bits uint64, valid uint8) bool {
		v := int(valid%64) + 1
		p := NewPacket(Address{}, 0, bits, v)
		n := 0
		for _, idx := range p.Spikes() {
			if idx < 0 || idx >= v {
				return false
			}
			n++
		}
		cnt := 0
		for i := 0; i < v; i++ {
			if bits&(1<<uint(i)) != 0 {
				cnt++
			}
		}
		return n == cnt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
