package dag

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// sameSlotTexts returns two distinct graph texts that share a memo slot.
func sameSlotTexts(tb testing.TB) (string, string) {
	tb.Helper()
	seen := map[int]string{}
	for i := 0; ; i++ {
		text := fmt.Sprintf("input\ninput\nadd 0 1\n# %d\n", i)
		s := slotOf(sha256.Sum256([]byte(text)))
		if other, ok := seen[s]; ok {
			return other, text
		}
		seen[s] = text
	}
}

// FuzzFingerprintMemo: on first and repeated calls, interleaved over two
// texts, the memo answers Parse's fingerprint or Parse's error, and it
// answers from the table (a nil *Parsed) exactly when the last text to
// parse in that slot was this one.
func FuzzFingerprintMemo(f *testing.F) {
	// Same graph, different whitespace: one fingerprint, two keys.
	f.Add("input\ninput\nadd 0 1\n", "input\r\ninput \n add  0 1\n")
	f.Add("const 2.5\ninput\nmul 0 1\n", "const 2.5\ninput\nmul 0 1")
	// Malformed: an error on every call.
	f.Add("input\nadd 0 7\n", "frob 0\n")
	f.Add("", "input\nadd 0 7\n")
	f.Add("input\ninput\nadd 0 1\n", "input\nadd 1\n")
	// One slot, two texts: each evicts the other.
	x, y := sameSlotTexts(f)
	f.Add(x, y)
	f.Fuzz(func(t *testing.T, a, b string) {
		var m Fingerprints
		resident := map[int][sha256.Size]byte{} // slot → key of the last text parsed there
		for call, text := range []string{a, b, a, b, b, a} {
			fp, p, err := m.Parse(text)
			want, werr := Parse(text)
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
				t.Fatalf("call %d: memo error %v, Parse %v\nin: %q", call, err, werr, text)
			}
			key := sha256.Sum256([]byte(text))
			k, ok := resident[slotOf(key)]
			hit := ok && k == key
			if err != nil {
				if p != nil || fp != (Fingerprint{}) {
					t.Fatalf("call %d: error %v with fingerprint %s, parsed %v", call, err, fp.Short(), p != nil)
				}
				continue
			}
			if fp != want.Fingerprint() {
				t.Fatalf("call %d: fingerprint %s, Parse %s\nin: %q", call, fp.Short(), want.Fingerprint().Short(), text)
			}
			if (p == nil) != hit {
				t.Fatalf("call %d: memo hit %v, want %v\nin: %q", call, p == nil, hit, text)
			}
			if p != nil && p.Fingerprint() != fp {
				t.Fatalf("call %d: parsed fingerprint %s, returned %s", call, p.Fingerprint().Short(), fp.Short())
			}
			resident[slotOf(key)] = key
		}
	})
}

// TestFingerprintMemoHitAllocatesNothing: a hit hashes the text in
// place and copies a fingerprint out of the table.
func TestFingerprintMemoHitAllocatesNothing(t *testing.T) {
	var sb strings.Builder
	if err := Write(&sb, RandomGraph(RandomConfig{Inputs: 8, Interior: 500, MaxArgs: 3, MulFrac: 0.4, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	var m Fingerprints
	want, p, err := m.Parse(text)
	if err != nil || p == nil {
		t.Fatalf("first call: parsed %v, %v", p != nil, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		fp, p, err := m.Parse(text)
		if err != nil || p != nil || fp != want {
			t.Fatalf("hit: fingerprint %s, parsed %v, %v", fp.Short(), p != nil, err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per memo hit on a %d-byte text, want 0", allocs, len(text))
	}
}

// TestFingerprintMemoConcurrent: callers racing on texts that share a
// slot and texts that do not each get their own text's fingerprint.
func TestFingerprintMemoConcurrent(t *testing.T) {
	a, b := sameSlotTexts(t)
	texts := []string{a, b, "input\n", "const 1\ninput\nmul 0 1\n"}
	want := make([]Fingerprint, len(texts))
	for i, text := range texts {
		p, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.Fingerprint()
	}
	var m Fingerprints
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				k := (w + i) % len(texts)
				if fp, _, err := m.Parse(texts[k]); err != nil || fp != want[k] {
					t.Errorf("text %d: fingerprint %s, %v; want %s", k, fp.Short(), err, want[k].Short())
					return
				}
			}
		}()
	}
	wg.Wait()
}
