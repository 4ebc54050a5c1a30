package regfile

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// linearScanLowestFree is the reference priority encoder: the lowest
// invalid address of the bank, or -1 when every address is valid.
func linearScanLowestFree(valid []bool) int {
	for a := range valid {
		if !valid[a] {
			return a
		}
	}
	return -1
}

// naive is the contract written as plainly as possible: valid bits per
// bank, a map from landing cycle to the writes landing then, and the
// linear scan.
type naive struct {
	valid    [][]bool
	inflight []int
	landing  map[int][]landed
}

type landed struct{ bank, addr, p int }

func newNaive(banks, regs int) *naive {
	n := &naive{valid: make([][]bool, banks), inflight: make([]int, banks), landing: map[int][]landed{}}
	for b := range n.valid {
		n.valid[b] = make([]bool, regs)
	}
	return n
}

func (n *naive) free(bank, addr int) { n.valid[bank][addr] = false }

func (n *naive) schedule(bank, land, p int) (int, bool) {
	for _, w := range n.landing[land] {
		if w.bank == bank {
			return w.p, false
		}
	}
	n.landing[land] = append(n.landing[land], landed{bank: bank, p: p})
	n.inflight[bank]++
	return 0, true
}

func (n *naive) land(cycle int) []landed {
	var out []landed
	for _, w := range n.landing[cycle] {
		w.addr = linearScanLowestFree(n.valid[w.bank])
		if w.addr >= 0 {
			n.valid[w.bank][w.addr] = true
		}
		n.inflight[w.bank]--
		out = append(out, w)
	}
	delete(n.landing, cycle)
	return out
}

// trace drives f through cycles of random frees (valid and invalid
// addresses alike), schedules (conflicting ones included) and landings,
// checking every observable against the naive model after each step. It
// returns a transcript of everything f reported.
func trace(t *testing.T, f *File[int], banks, regs, lat, cycles int, seed int64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := newNaive(banks, regs)
	var log []string
	for c := 0; c < cycles; c++ {
		for i := rng.Intn(banks + 1); i > 0; i-- {
			b, a := rng.Intn(banks), rng.Intn(regs)
			f.Free(b, a)
			n.free(b, a)
		}
		for i := rng.Intn(banks + 1); i > 0; i-- {
			b, land, p := rng.Intn(banks), c+1+rng.Intn(lat), rng.Intn(1000)
			want := slices.ContainsFunc(n.landing[land], func(w landed) bool { return w.bank == b })
			if got := f.Busy(b, land); got != want {
				t.Fatalf("cycle %d: Busy(%d, %d) = %v, want %v", c, b, land, got, want)
			}
			gp, gok := f.Schedule(b, land, p)
			wp, wok := n.schedule(b, land, p)
			if gp != wp || gok != wok {
				t.Fatalf("cycle %d: Schedule(%d, %d) = %d,%v, want %d,%v", c, b, land, gp, gok, wp, wok)
			}
			log = append(log, fmt.Sprint("s", b, land, p, gok))
		}
		var got []landed
		f.Land(c, func(bank, addr, p int) { got = append(got, landed{bank, addr, p}) })
		if want := n.land(c); !slices.Equal(got, want) {
			t.Fatalf("cycle %d: landed %v, want %v", c, got, want)
		}
		for _, l := range got {
			log = append(log, fmt.Sprint("l", l))
		}
		for b := 0; b < banks; b++ {
			occ := 0
			for a := 0; a < regs; a++ {
				if f.Valid(b, a) != n.valid[b][a] {
					t.Fatalf("cycle %d: Valid(%d, %d) = %v", c, b, a, !n.valid[b][a])
				}
				if n.valid[b][a] {
					occ++
				}
			}
			if f.Occupied()[b] != occ || f.InFlight(b) != n.inflight[b] {
				t.Fatalf("cycle %d: bank %d occupied/in flight %d/%d, want %d/%d", c, b, f.Occupied()[b], f.InFlight(b), occ, n.inflight[b])
			}
		}
	}
	return log
}

func TestFileMatchesNaiveModel(t *testing.T) {
	for _, tc := range []struct {
		name             string
		banks, regs, lat int
	}{
		{"R=65 straddles a bitmap word", 4, 65, 3},
		{"B=128 conflicts past one mask word", 128, 8, 2},
		{"single register", 2, 1, 1},
		{"min-EDP shape", 64, 32, 3},
		{"deep pipeline", 8, 130, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				trace(t, New[int](tc.banks, tc.regs, tc.lat), tc.banks, tc.regs, tc.lat, 300, seed)
			}
		})
	}
}

func TestConflictOnHighBank(t *testing.T) {
	// Banks 3 and 67 share a bit position in different bitset words, and
	// 127 is the last bit of the last word: only the same bank conflicts.
	f := New[int](128, 4, 2)
	for _, b := range []int{3, 67, 127} {
		if _, ok := f.Schedule(b, 2, b); !ok {
			t.Fatalf("first write to bank %d refused", b)
		}
	}
	if p, ok := f.Schedule(67, 2, 99); ok || p != 67 {
		t.Fatalf("second write to bank 67 at cycle 2: %d,%v, want the first write's payload 67,false", p, ok)
	}
	if f.Busy(66, 2) || f.Busy(67, 3) || !f.Busy(127, 2) {
		t.Fatal("Busy reports the wrong bank or cycle")
	}
	if f.InFlight(67) != 1 {
		t.Fatalf("refused write counted in flight: %d", f.InFlight(67))
	}
}

func TestFreeOfInvalidIsNoOp(t *testing.T) {
	f := New[int](2, 4, 1)
	f.Free(1, 2)
	if f.Valid(1, 2) || f.Occupied()[1] != 0 {
		t.Fatal("freeing an empty register changed the file")
	}
	f.Schedule(1, 1, 0)
	f.Land(1, func(bank, addr, p int) {
		if addr != 0 {
			t.Fatalf("landed at %d, want 0", addr)
		}
	})
	f.Free(1, 0)
	f.Free(1, 0)
	if f.Occupied()[1] != 0 {
		t.Fatalf("double free: occupied %d, want 0", f.Occupied()[1])
	}
}

func TestFreesBeforeLandings(t *testing.T) {
	// A full bank whose register 0 is freed in the cycle a write lands:
	// the write takes the freed address instead of overflowing.
	f := New[int](1, 2, 1)
	for c := 0; c < 2; c++ {
		f.Schedule(0, c, c)
		f.Land(c, func(int, int, int) {})
	}
	f.Schedule(0, 2, 7)
	f.Free(0, 0)
	f.Land(2, func(bank, addr, p int) {
		if addr != 0 || p != 7 {
			t.Fatalf("landed %d at %d, want 7 at 0", p, addr)
		}
	})
}

func TestOverflowReportsMinusOne(t *testing.T) {
	f := New[int](1, 1, 1)
	var addrs []int
	for c := 0; c < 2; c++ {
		f.Schedule(0, c, c)
		f.Land(c, func(bank, addr, p int) { addrs = append(addrs, addr) })
	}
	if !slices.Equal(addrs, []int{0, -1}) {
		t.Fatalf("addresses %v, want [0 -1]", addrs)
	}
	if f.Occupied()[0] != 1 || f.InFlight(0) != 0 {
		t.Fatalf("after overflow: occupied %d in flight %d, want 1 and 0", f.Occupied()[0], f.InFlight(0))
	}
}

func TestResetEqualsFresh(t *testing.T) {
	const banks, regs, lat = 8, 65, 3
	used := New[int](banks, regs, lat)
	trace(t, used, banks, regs, lat, 50, 1) // leaves writes in flight
	used.Reset()
	if got, want := trace(t, used, banks, regs, lat, 200, 2), trace(t, New[int](banks, regs, lat), banks, regs, lat, 200, 2); !slices.Equal(got, want) {
		t.Fatal("a reset File behaves differently from a new one")
	}
}

// book marks bank busy at cycle land, as File.Schedule does.
func book(p *Ports, bank, land int) { p.At(land)[bank>>6] |= 1 << uint(bank&63) }

// TestPortsRing holds Ports to its contract, for one- and two-word bank
// sets: a booked bank reads busy at its cycle and at no other cycle the
// ring tells apart from it; clearing each cycle as it passes leaves no
// stale bit for a write landing maxLatency later, not even for the next
// cycle's before this one is cleared; and Reset reuses the array.
func TestPortsRing(t *testing.T) {
	for lat := 1; lat <= 6; lat++ {
		for _, banks := range []int{1, 64, 65} {
			name := fmt.Sprintf("maxLatency %d, %d banks", lat, banks)
			var p Ports
			p.Reset(banks, lat)
			hi := banks - 1
			const land = 100
			book(&p, hi, land)
			for c := land - lat - 1; c <= land+lat+1; c++ {
				for b := range banks {
					if got := p.Busy(b, c); got != (b == hi && c == land) {
						t.Fatalf("%s: bank %d booked at cycle %d reads bank %d busy=%v at cycle %d", name, hi, land, b, got, c)
					}
				}
			}
			if got := len(p.At(land)); got != (banks+63)/64 {
				t.Fatalf("%s: a cycle has %d words", name, got)
			}

			p.Reset(banks, lat)
			for c := range 8 * (lat + 2) {
				if got, want := p.Busy(hi, c), c >= lat; got != want {
					t.Fatalf("%s: bank busy=%v at cycle %d, want %v", name, got, c, want)
				}
				if p.Busy(hi, c+lat) {
					t.Fatalf("%s: cycle %d's longest write finds a stale bit", name, c)
				}
				book(&p, hi, c+lat)
				if p.Busy(hi, c+1+lat) {
					t.Fatalf("%s: cycle %d's longest write finds a stale bit before cycle %d is cleared", name, c+1, c)
				}
				p.Clear(c)
			}

			arr := &p.At(0)[0]
			p.Reset(banks, lat)
			if &p.At(0)[0] != arr {
				t.Fatalf("%s: Reset allocated a new array", name)
			}
			for c := range lat + 2 {
				for b := range banks {
					if p.Busy(b, c) {
						t.Fatalf("%s: bank %d busy at cycle %d after Reset", name, b, c)
					}
				}
			}
		}
	}
}
