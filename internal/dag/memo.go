package dag

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"unsafe"
)

// memoSlots is the number of texts a Fingerprints remembers at most.
// At 65 bytes a slot the table is about 66 kB whatever the size of the
// graphs, so it is a constant and not an option.
const memoSlots = 1024

// Fingerprints is a bounded memo from graph text to the Fingerprint
// of the graph it describes, so a server that sees the same text again
// answers its fingerprint without parsing it. It is keyed on the
// SHA-256 of the exact text, the trust model of Fingerprint itself: a
// text answered from the memo is the text that was parsed unless
// SHA-256 collides. A shorter or non-cryptographic key would let a
// crafted text take another graph's fingerprint, and so its program.
// The table is direct-mapped on the key: a text whose slot holds
// another text's key is parsed again and takes the slot. It stores no
// text, and only texts that parse: a malformed text is parsed, and
// rejected, on every call. The zero value is ready for use, and a
// Fingerprints is safe for concurrent use.
type Fingerprints struct {
	mu    sync.Mutex
	slots [memoSlots]memoSlot
}

type memoSlot struct {
	key  [sha256.Size]byte // SHA-256 of the text
	fp   Fingerprint
	full bool
}

// Parse returns the fingerprint of the graph text describes. On a memo
// hit it returns a nil *Parsed and allocates nothing; otherwise it
// parses text (see Parse), remembers the fingerprint if the text
// parses, and returns the parsed form with it. The error is Parse's.
func (m *Fingerprints) Parse(text string) (Fingerprint, *Parsed, error) {
	// Sum256 neither keeps nor writes its argument, so the text is hashed
	// where it lies instead of being copied into a []byte first.
	key := sha256.Sum256(unsafe.Slice(unsafe.StringData(text), len(text)))
	s := &m.slots[slotOf(key)]
	m.mu.Lock()
	if s.full && s.key == key {
		fp := s.fp
		m.mu.Unlock()
		return fp, nil, nil
	}
	m.mu.Unlock()
	p, err := Parse(text)
	if err != nil {
		return Fingerprint{}, nil, err
	}
	fp := p.Fingerprint()
	m.mu.Lock()
	*s = memoSlot{key: key, fp: fp, full: true}
	m.mu.Unlock()
	return fp, p, nil
}

// slotOf maps a key to its slot. The key is a SHA-256 digest, so
// its low bits are already uniform.
func slotOf(key [sha256.Size]byte) int {
	return int(binary.LittleEndian.Uint16(key[:]) % memoSlots)
}
