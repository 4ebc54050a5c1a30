package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
)

// ErrNotFound reports a store lookup for a key with no artifact.
var ErrNotFound = errors.New("artifact: not in store")

// Key is the content address of a compiled program — the same triple
// the serving engine keys its in-memory cache on. Construct with
// KeyFor, which normalizes the config; two keys are equal iff they
// address the same compilation.
type Key struct {
	Fingerprint dag.Fingerprint
	Config      arch.Config
	Options     compiler.Options
}

// KeyFor builds the key for (fp, cfg, opts), with cfg normalized.
func KeyFor(fp dag.Fingerprint, cfg arch.Config, opts compiler.Options) Key {
	return Key{Fingerprint: fp, Config: cfg.Normalize(), Options: opts}
}

// keyDomain versions the key hash; bump alongside any change to the
// canonical key encoding below so old store files cannot alias. It moves
// with Version, so a file of an older format lives at an address no
// current key names and is never read as this build's artifact.
const keyDomain = "dpuv2/artifact/key/v2"

// ID returns the key's stable hex content address, the store filename
// stem. It hashes the same canonical binary encoding the artifact
// payload uses, so it is identical across processes and hosts.
func (k Key) ID() string {
	var e enc
	e.config(k.Config)
	e.options(k.Options)
	h := sha256.New()
	h.Write([]byte(keyDomain))
	h.Write(k.Fingerprint[:])
	h.Write(e.buf)
	return hex.EncodeToString(h.Sum(nil))
}

// Ext is the artifact file extension. Store.Walk considers every *.dpuprog
// file in the directory, whatever its name stem, so hand-placed
// `dpu-compile -o` output participates in warm-start alongside
// store-addressed files.
const Ext = ".dpuprog"

// tmpPrefix marks in-progress writes; Walk skips them and Open sweeps
// leftovers from a crashed writer.
const tmpPrefix = ".tmp-"

// Store is a content-addressed directory of artifacts. Writes are
// atomic (temp file + rename), so readers — including concurrent
// warm-starting processes — never observe a torn artifact; reads
// verify the checksum and the embedded key before returning anything.
// A Store is safe for concurrent use by any number of goroutines and
// processes sharing the directory.
type Store struct {
	dir string
}

// Open returns a store rooted at dir, creating the directory if needed
// and sweeping temp files abandoned by crashed writers.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("artifact: open store: %w", err)
	}
	swept := 0
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasPrefix(ent.Name(), tmpPrefix) {
			if os.Remove(filepath.Join(dir, ent.Name())) == nil {
				swept++
			}
		}
	}
	if swept > 0 {
		// Worth an operator's attention: it means a previous writer
		// died mid-Put (or the directory is shared with something
		// creating .tmp-* files of its own).
		log.Printf("artifact: store %s: swept %d temp file(s) left by a crashed writer", dir, swept)
	}
	return &Store{dir: dir}, nil
}

func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, k.ID()+Ext)
}

// Get loads and decodes the artifact stored under k. A missing file is
// ErrNotFound; a file that fails to decode, or whose embedded identity
// does not match k, surfaces its typed decode error so callers can
// distinguish "compile it" from "the store is damaged". A *corrupt*
// file is also removed, so the store self-heals: the caller's recompile
// will persist a fresh artifact instead of being shadowed by the corpse
// forever (Put is first-wins). An ErrVersion file is left alone — in a
// mixed-version fleet it is another binary's valid artifact, not
// damage. The removal can in principle race a concurrent writer's
// just-renamed replacement; the loss is one persist, repaired by the
// next miss.
func (s *Store) Get(k Key) (*Artifact, error) { return s.GetServing(k, nil) }

// GetServing is Get for a caller that remembers which payloads it has
// verified: when verified reports true for the file's payload digest,
// the artifact comes from a serving decode (see Artifact.Serving),
// which never reads the program tail. Every other check of Get, the
// identity check included, runs either way, and the returned
// artifact's Digest names its payload.
func (s *Store) GetServing(k Key, verified func(Digest) bool) (*Artifact, error) {
	p := s.path(k)
	b, err := os.ReadFile(p)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, k.ID())
		}
		return nil, fmt.Errorf("artifact: %w", err)
	}
	a, err := decodeBytes(b, verified)
	if err != nil {
		if !errors.Is(err, ErrVersion) {
			os.Remove(p)
		}
		return nil, fmt.Errorf("%s: %w", p, err)
	}
	if got := a.Key(); got != k {
		os.Remove(p)
		return nil, fmt.Errorf("%s: %w: artifact identity %s does not match its address", p, ErrCorrupt, got.ID())
	}
	return a, nil
}

// Key returns the artifact's own content address, derived from its
// embedded fingerprint, configuration and options.
func (a *Artifact) Key() Key {
	return KeyFor(a.Fingerprint, a.Compiled.Prog.Cfg, a.Options)
}

// Remove deletes the artifact stored under k; a missing file is not an
// error. The engine uses it to purge an artifact whose content turned
// out to be poisoned in a way only the caller can detect (e.g. a remap
// that does not fit the graph being served).
func (s *Store) Remove(k Key) error {
	if err := os.Remove(s.path(k)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("artifact: remove: %w", err)
	}
	return nil
}

// Put persists a under its content address. The write is
// first-wins-idempotent: if the key already has an artifact the call is
// a no-op, so concurrent compilations of the same graph produce exactly
// one persisted artifact. New content lands via a same-directory temp
// file and an atomic rename; a reader can never observe a partial
// write.
func (s *Store) Put(a *Artifact) error {
	p := s.path(a.Key())
	if _, err := os.Stat(p); err == nil {
		return nil
	}
	b, err := EncodeBytes(a)
	if err != nil {
		return err
	}
	if err := s.writeAtomic(p, b); err != nil {
		return fmt.Errorf("artifact: put: %w", err)
	}
	return nil
}

// writeAtomic lands b at dest via a same-directory temp file and an
// atomic rename, so a reader can never observe a torn file.
func (s *Store) writeAtomic(dest string, b []byte) error {
	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, dest); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Walk decodes every artifact file in the store (any *.dpuprog, not
// just content-addressed names) and calls fn with the path and either
// the artifact or its decode error. fn returning false stops the walk.
// Temp files and files of any other extension are skipped, and files
// appearing or vanishing mid-walk are tolerated — concurrent Puts only
// ever add complete files.
func (s *Store) Walk(fn func(path string, a *Artifact, err error) bool) error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("artifact: walk: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || strings.HasPrefix(name, tmpPrefix) || !strings.HasSuffix(name, Ext) {
			continue
		}
		p := filepath.Join(s.dir, name)
		b, err := os.ReadFile(p)
		var a *Artifact
		switch {
		case errors.Is(err, fs.ErrNotExist):
			continue // raced a concurrent removal
		case err == nil:
			a, err = DecodeBytes(b)
		}
		if !fn(p, a, err) {
			return nil
		}
	}
	return nil
}

// Len counts the artifact files currently in the store.
func (s *Store) Len() (int, error) {
	n := 0
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("artifact: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() && !strings.HasPrefix(ent.Name(), tmpPrefix) && strings.HasSuffix(ent.Name(), Ext) {
			n++
		}
	}
	return n, nil
}
