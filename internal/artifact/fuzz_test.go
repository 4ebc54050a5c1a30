package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
)

// FuzzArtifactDecode hammers the decoder with corrupted, truncated and
// bit-flipped artifacts. The contract under fuzz:
//
//   - Decode never panics, whatever the input;
//   - every failure is one of the typed errors (ErrBadMagic,
//     ErrVersion, ErrTruncated, ErrChecksum, ErrCorrupt);
//   - any input that decodes re-encodes byte-identically — the
//     encoding is canonical, so Encode∘Decode is the identity on the
//     set of valid artifacts;
//   - the serving decode accepts every input the full decode accepts
//     and yields the same artifact up to the program tail (see
//     sameServed).
//
// The checksum rejects most random payload mutations before the
// semantic decoder runs, so the target also feeds the raw input to
// decodePayload directly, exercising every structural guard without
// the fuzzer having to forge CRC-32C.
func FuzzArtifactDecode(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		b, err := EncodeBytes(testArtifact(f, seed))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		// A deliberately damaged variant seeds the corrupt-path corpus.
		bad := append([]byte(nil), b...)
		bad[len(bad)/2] ^= 0x40
		f.Add(bad)
		f.Add(b[:len(b)*2/3])
	}
	// A constant's program has no instructions, only a memory image: the
	// serving decode must read it whole.
	konst := dag.New("const")
	konst.AddConst(2.5)
	if b, err := EncodeBytes(compileArtifact(f, konst, testCfg, compiler.Options{})); err != nil {
		f.Fatal(err)
	} else {
		f.Add(b)
	}
	for _, name := range []string{"pc_small.dpuprog", "sptrsv_small.dpuprog"} {
		if b, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{})
	f.Add(magic[:])

	typed := func(err error) bool {
		return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrVersion) ||
			errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum) ||
			errors.Is(err, ErrCorrupt)
	}
	verified := func(Digest) bool { return true }

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeBytes(data)
		if err != nil {
			if !typed(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
		} else {
			reencoded, err := EncodeBytes(a)
			if err != nil {
				t.Fatalf("decoded artifact does not re-encode: %v", err)
			}
			if !bytes.Equal(reencoded, data) {
				t.Fatalf("Encode(Decode(x)) differs from x (%d vs %d bytes)", len(reencoded), len(data))
			}
			s, err := decodeBytes(data, verified)
			if err != nil {
				t.Fatalf("serving decode rejects what the full decode accepts: %v", err)
			}
			sameServed(t, a, s)
			if s.Digest != a.Digest {
				t.Fatal("serving and full decode digest the payload differently")
			}
		}

		// Same contract for the payload decoder on the raw bytes: only
		// ErrCorrupt failures, and canonical on success.
		pa, perr := decodePayload(data, false)
		if perr != nil {
			if !errors.Is(perr, ErrCorrupt) {
				t.Fatalf("decodePayload: untyped error: %v", perr)
			}
			return
		}
		pp, err := encodePayload(pa)
		if err != nil {
			t.Fatalf("decoded payload does not re-encode: %v", err)
		}
		if !bytes.Equal(pp, data) {
			t.Fatalf("encodePayload(decodePayload(x)) differs from x")
		}
		ps, err := decodePayload(data, true)
		if err != nil {
			t.Fatalf("serving payload decode rejects what the full one accepts: %v", err)
		}
		sameServed(t, pa, ps)
	})
}

// sameServed fails t unless the serving decode s carries exactly what
// the full decode a does up to the program tail: fingerprint, options,
// config, graph (per node: op, args and Val bits), remap, input and
// output words and stats, floats compared by their bits. s is a serving
// decode (Serving true, no instructions) unless the stats count no
// instructions, in which case it is decoded whole.
func sameServed(t *testing.T, a, s *Artifact) {
	t.Helper()
	ac, sc := a.Compiled, s.Compiled
	var ae, se enc
	for _, e := range []struct {
		e *enc
		a *Artifact
	}{{&ae, a}, {&se, s}} {
		e.e.config(e.a.Compiled.Prog.Cfg)
		e.e.options(e.a.Options)
		e.e.raw(e.a.Fingerprint[:])
		e.e.stats(e.a.Compiled.Stats)
	}
	if !bytes.Equal(ae.buf, se.buf) || sc.Prog.W != ac.Prog.W {
		t.Fatal("serving decode differs in config, options, fingerprint or stats")
	}
	if ag, sg := ac.Graph, sc.Graph; ag.Name != sg.Name || ag.NumNodes() != sg.NumNodes() {
		t.Fatalf("serving decode graph %q of %d nodes, full %q of %d", sg.Name, sg.NumNodes(), ag.Name, ag.NumNodes())
	}
	for i := 0; i < ac.Graph.NumNodes(); i++ {
		an, sn := ac.Graph.Node(dag.NodeID(i)), sc.Graph.Node(dag.NodeID(i))
		if an.Op != sn.Op || math.Float64bits(an.Val) != math.Float64bits(sn.Val) || !slices.Equal(an.Args, sn.Args) {
			t.Fatalf("node %d: serving decode %+v, full %+v", i, *sn, *an)
		}
	}
	if !slices.Equal(ac.Remap, sc.Remap) || !slices.Equal(ac.InputWord, sc.InputWord) || !maps.Equal(ac.OutputWord, sc.OutputWord) {
		t.Fatal("serving decode differs in remap, input words or output words")
	}
	if want := ac.Stats.Instructions != 0; s.Serving() != want || (want && (sc.Prog.Instrs != nil || sc.Prog.InitMem != nil)) {
		t.Fatalf("Serving() = %v with %d instructions, %d memory words; want %v and none when serving",
			s.Serving(), len(sc.Prog.Instrs), len(sc.Prog.InitMem), want)
	}
}

// FuzzStoreGetAfterCorruption flips bytes of a stored artifact on disk
// and checks Get never hands damaged content to the engine: every
// outcome is either a clean typed error or the intact artifact.
func FuzzStoreGetAfterCorruption(f *testing.F) {
	dir := f.TempDir()
	st, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	a := testArtifact(f, 11)
	if err := st.Put(a); err != nil {
		f.Fatal(err)
	}
	k := a.Key()
	path := filepath.Join(dir, k.ID()+Ext)
	orig, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(0), uint8(1))
	f.Add(uint16(len(orig)-1), uint8(0x80))
	f.Add(uint16(headerSize+2), uint8(0xff))

	f.Fuzz(func(t *testing.T, off uint16, mask uint8) {
		b := append([]byte(nil), orig...)
		b[int(off)%len(b)] ^= mask
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := st.Get(k)
		if mask == 0 || bytes.Equal(b, orig) {
			if err != nil {
				t.Fatalf("pristine artifact failed to load: %v", err)
			}
			if got.Fingerprint != a.Fingerprint {
				t.Fatal("pristine artifact decoded to a different fingerprint")
			}
			return
		}
		if err == nil {
			// The flip landed somewhere that still decodes to the same
			// identity — only acceptable if the bytes genuinely decode
			// and re-encode canonically (DecodeBytes enforces this), and
			// the program still round-trips. Spot-check the checksum
			// actually held.
			sum := binary.LittleEndian.Uint32(b[10:])
			if crc32.Checksum(b[headerSize:], castagnoli) != sum {
				t.Fatal("store returned an artifact whose checksum does not hold")
			}
			return
		}
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
			!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) &&
			!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotFound) {
			t.Fatalf("untyped store error: %v", err)
		}
	})
}
