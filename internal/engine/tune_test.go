package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
)

// fakeTuner returns a canned decision (or error) after an optional gate,
// counting invocations — enough to drive the engine's autotune state
// machine without real sweeps.
type fakeTuner struct {
	decide func(g *dag.Graph, def arch.Config, opts compiler.Options) (*artifact.Decision, error)
	gate   chan struct{} // when non-nil, Tune blocks until it closes
	calls  atomic.Int64
}

func (f *fakeTuner) Tune(ctx context.Context, g *dag.Graph, def arch.Config, opts compiler.Options) (*artifact.Decision, error) {
	f.calls.Add(1)
	if f.gate != nil {
		<-f.gate
	}
	return f.decide(g, def, opts)
}

// tunedFor builds the canned decision: serve fp on cfg instead of def.
func tunedFor(fp dag.Fingerprint, cfg, def arch.Config, opts compiler.Options) *artifact.Decision {
	return &artifact.Decision{
		Fingerprint: fp,
		Config:      cfg.Normalize(),
		Options:     opts.Normalized(),
		Score:       1,
		Provenance: artifact.Provenance{
			Metric:       "latency",
			Default:      def.Normalize(),
			DefaultScore: 2,
			Points:       2,
			GridSize:     2,
			TunedAtUnix:  1_700_000_000,
			Tuner:        "test/1",
		},
	}
}

func tuneTestGraph() *dag.Graph {
	g := dag.New("tune-test")
	a := g.AddInput()
	b := g.AddInput()
	s := g.AddOp(dag.OpAdd, a, b)
	g.AddOp(dag.OpMul, s, a)
	return g
}

// TestResolveIdentityWithoutAutoTune: an engine without AutoTune must
// pass configs through untouched (normalization aside) and count nothing.
func TestResolveIdentityWithoutAutoTune(t *testing.T) {
	e := New(Options{})
	g := tuneTestGraph()
	def := arch.MinEDP()
	cfg, opts := e.Resolve(g, def, compiler.Options{})
	if cfg != def || opts != (compiler.Options{}).Normalized() {
		t.Fatalf("Resolve changed the request: %v %+v", cfg, opts)
	}
	if s := e.TuneStats(); s.TunedHits != 0 || s.Decisions != 0 {
		t.Fatalf("autotune counters moved without AutoTune: %+v", s)
	}
}

// TestAutoTuneBackgroundSwitch is the core serving contract: first sight
// serves the default while tuning in the background, and once the
// decision lands every subsequent request resolves to the tuned config.
func TestAutoTuneBackgroundSwitch(t *testing.T) {
	g := tuneTestGraph()
	def := arch.MinEDP()
	tuned := arch.MinEnergy()
	ft := &fakeTuner{
		gate: make(chan struct{}),
		decide: func(tg *dag.Graph, d arch.Config, o compiler.Options) (*artifact.Decision, error) {
			if tg.Fingerprint() != g.Fingerprint() {
				t.Error("tuner got a different graph")
			}
			if d != def {
				t.Errorf("tuner default = %v, want %v", d, def)
			}
			return tunedFor(tg.Fingerprint(), tuned, d, o), nil
		},
	}
	e := New(Options{Tuner: ft})

	// While the tune is gated, requests keep the default config.
	for i := 0; i < 3; i++ {
		cfg, _ := e.Resolve(g, def, compiler.Options{})
		if cfg != def {
			t.Fatalf("request %d resolved to %v before the tune finished", i, cfg)
		}
	}
	if s := e.TuneStats(); s.InFlight != 1 || s.Tunes != 0 || s.TunedHits != 0 {
		t.Fatalf("mid-tune stats: %+v", s)
	}

	close(ft.gate)
	e.WaitTunes()
	if got := ft.calls.Load(); got != 1 {
		t.Fatalf("tuner invoked %d times for one fingerprint", got)
	}

	cfg, opts := e.Resolve(g, def, compiler.Options{})
	if cfg != tuned {
		t.Fatalf("post-tune request resolved to %v, want tuned %v", cfg, tuned)
	}
	if opts != (compiler.Options{}).Normalized() {
		t.Fatalf("post-tune options %+v", opts)
	}
	if s := e.TuneStats(); s.InFlight != 0 || s.Tunes != 1 || s.TunedHits != 1 || s.TuneErrors != 0 {
		t.Fatalf("post-tune stats: %+v", s)
	}
	// The background tune pre-compiled the tuned program: executing on
	// the resolved config must be a cache hit, not a miss.
	misses := e.Stats().Misses
	if _, err := e.Execute(g, cfg, opts, []float64{2, 3}); err != nil {
		t.Fatal(err)
	}
	if s2 := e.Stats(); s2.Misses != misses {
		t.Fatalf("first post-switch execute compiled (misses %d -> %d)", misses, s2.Misses)
	}
	if d, ok := e.Decision(g.Fingerprint()); !ok || d.Config != tuned {
		t.Fatalf("Decision() = %v, %v", d, ok)
	}
}

// TestAutoTuneSingleFlight: N concurrent first sights start exactly one
// background tune.
func TestAutoTuneSingleFlight(t *testing.T) {
	g := tuneTestGraph()
	def := arch.MinEDP()
	ft := &fakeTuner{
		gate: make(chan struct{}),
		decide: func(tg *dag.Graph, d arch.Config, o compiler.Options) (*artifact.Decision, error) {
			return tunedFor(tg.Fingerprint(), arch.MinEnergy(), d, o), nil
		},
	}
	e := New(Options{Tuner: ft})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg, _ := e.Resolve(g.Clone(), def, compiler.Options{})
			if cfg != def {
				t.Error("pre-decision resolve did not serve the default")
			}
		}()
	}
	wg.Wait()
	close(ft.gate)
	e.WaitTunes()
	if got := ft.calls.Load(); got != 1 {
		t.Fatalf("%d tuner invocations for one fingerprint", got)
	}
	if cfg, _ := e.Resolve(g, def, compiler.Options{}); cfg != arch.MinEnergy() {
		t.Fatalf("post-tune config %v", cfg)
	}
}

// TestAutoTuneFailurePinsDefault: a failing tuner must not be retried
// per request, and requests keep their config.
func TestAutoTuneFailurePinsDefault(t *testing.T) {
	g := tuneTestGraph()
	ft := &fakeTuner{
		decide: func(*dag.Graph, arch.Config, compiler.Options) (*artifact.Decision, error) {
			return nil, errors.New("synthetic tuner failure")
		},
	}
	e := New(Options{Tuner: ft})
	def := arch.MinEDP()
	for i := 0; i < 5; i++ {
		cfg, _ := e.Resolve(g, def, compiler.Options{})
		if cfg != def {
			t.Fatalf("failed tune changed the config to %v", cfg)
		}
		e.WaitTunes()
	}
	if got := ft.calls.Load(); got != 1 {
		t.Fatalf("failing tuner retried %d times", got)
	}
	s := e.TuneStats()
	if s.TuneErrors != 1 || s.Tunes != 0 || s.TunedHits != 0 {
		t.Fatalf("stats after failed tune: %+v", s)
	}
	if s.Decisions != 1 {
		t.Fatalf("failed tune not pinned: %+v", s)
	}
}

// TestAutoTuneMismatchedFingerprintRejected: a buggy tuner returning a
// decision for some other workload must not poison the table.
func TestAutoTuneMismatchedFingerprintRejected(t *testing.T) {
	g := tuneTestGraph()
	ft := &fakeTuner{
		decide: func(tg *dag.Graph, d arch.Config, o compiler.Options) (*artifact.Decision, error) {
			var wrong dag.Fingerprint
			wrong[0] = 0xEE
			return tunedFor(wrong, arch.MinEnergy(), d, o), nil
		},
	}
	e := New(Options{Tuner: ft})
	def := arch.MinEDP()
	e.Resolve(g, def, compiler.Options{})
	e.WaitTunes()
	if cfg, _ := e.Resolve(g, def, compiler.Options{}); cfg != def {
		t.Fatalf("mismatched decision applied: %v", cfg)
	}
	if s := e.TuneStats(); s.TuneErrors != 1 {
		t.Fatalf("mismatch not counted as error: %+v", s)
	}
}

// TestAutoTunePersistAndWarmRestart is the engine half of the restart
// acceptance criterion: a second engine over the same store serves the
// tuned config on its very first request, with zero in-process tunes.
func TestAutoTunePersistAndWarmRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := tuneTestGraph()
	def := arch.MinEDP()
	tuned := arch.MinEnergy()
	ft := &fakeTuner{
		decide: func(tg *dag.Graph, d arch.Config, o compiler.Options) (*artifact.Decision, error) {
			return tunedFor(tg.Fingerprint(), tuned, d, o), nil
		},
	}
	e1 := newStoreEngine(t, Options{Tuner: ft, Store: st})
	e1.Resolve(g, def, compiler.Options{})
	e1.WaitTunes()
	e1.Flush()
	if cfg, _ := e1.Resolve(g, def, compiler.Options{}); cfg != tuned {
		t.Fatalf("first engine did not switch: %v", cfg)
	}

	// The decision and the tuned program are both on disk now.
	if _, err := st.GetDecision(g.Fingerprint()); err != nil {
		t.Fatalf("decision not persisted: %v", err)
	}

	// "Restart": a fresh engine, same store, no tuner. Preload pulls the
	// decision; the first request resolves tuned and executes without
	// compiling.
	st2, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := newStoreEngine(t, Options{AutoTune: true, Store: st2})
	if _, err := e2.Preload(); err != nil {
		t.Fatal(err)
	}
	if s := e2.TuneStats(); s.StoreTuned != 1 || s.Decisions != 1 {
		t.Fatalf("preload did not load the decision: %+v", s)
	}
	cfg, opts := e2.Resolve(g, def, compiler.Options{})
	if cfg != tuned {
		t.Fatalf("restarted engine resolved %v, want %v", cfg, tuned)
	}
	if _, err := e2.Execute(g, cfg, opts, []float64{2, 3}); err != nil {
		t.Fatal(err)
	}
	ts := e2.TuneStats()
	if ts.Tunes != 0 || ts.InFlight != 0 {
		t.Fatalf("restart re-tuned: %+v", ts)
	}
	if s := e2.Stats(); s.Misses != 0 {
		t.Fatalf("restart compiled despite preloaded tuned artifact: %+v", s)
	}
	if ts.TunedHits != 1 {
		t.Fatalf("tuned hit not counted: %+v", ts)
	}
}

// TestAutoTuneStoreProbeWithoutPreload: even without Preload, the first
// request for a stored fingerprint finds the decision by probing the
// store once (and only once — the negative path pins).
func TestAutoTuneStoreProbeWithoutPreload(t *testing.T) {
	dir := t.TempDir()
	st, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := tuneTestGraph()
	def := arch.MinEDP()
	tuned := arch.MinEnergy()
	d := tunedFor(g.Fingerprint(), tuned, def, compiler.Options{})
	if err := st.PutDecision(d); err != nil {
		t.Fatal(err)
	}
	e := newStoreEngine(t, Options{AutoTune: true, Store: st})
	if cfg, _ := e.Resolve(g, def, compiler.Options{}); cfg != tuned {
		t.Fatalf("store probe missed the decision: %v", cfg)
	}
	if s := e.TuneStats(); s.StoreTuned != 1 || s.TunedHits != 1 {
		t.Fatalf("probe stats: %+v", s)
	}

	// An unknown fingerprint with no tuner: probed once, then pinned.
	g2 := dag.New("other")
	a := g2.AddInput()
	g2.AddOp(dag.OpAdd, a, a)
	for i := 0; i < 3; i++ {
		if cfg, _ := e.Resolve(g2, def, compiler.Options{}); cfg != def {
			t.Fatalf("undecided workload changed config: %v", cfg)
		}
	}
	if s := e.TuneStats(); s.Decisions != 2 {
		t.Fatalf("negative probe not pinned: %+v", s)
	}
}

// TestAutoTuneInFlightCap: first sights beyond the tuning-concurrency
// bound are deferred (served on the default, no tune started, nothing
// pinned) and retried once a slot frees.
func TestAutoTuneInFlightCap(t *testing.T) {
	graphs := make([]*dag.Graph, 3)
	for i := range graphs {
		g := dag.New("capped")
		a := g.AddInput()
		b := g.AddInput()
		s := g.AddOp(dag.OpAdd, a, b)
		for j := 0; j <= i; j++ { // distinct structure per graph
			s = g.AddOp(dag.OpMul, s, a)
		}
		graphs[i] = g
	}
	def := arch.MinEDP()
	ft := &fakeTuner{
		gate: make(chan struct{}),
		decide: func(tg *dag.Graph, d arch.Config, o compiler.Options) (*artifact.Decision, error) {
			return tunedFor(tg.Fingerprint(), arch.MinEnergy(), d, o), nil
		},
	}
	e := New(Options{Tuner: ft})

	// The first maxTunesInFlight fingerprints start tunes; the next is
	// deferred, not pinned.
	for _, g := range graphs {
		if cfg, _ := e.Resolve(g, def, compiler.Options{}); cfg != def {
			t.Fatalf("pre-decision resolve served %v", cfg)
		}
	}
	if s := e.TuneStats(); s.InFlight != int64(maxTunesInFlight) {
		t.Fatalf("in-flight tunes = %d, want the cap %d", s.InFlight, maxTunesInFlight)
	}
	close(ft.gate)
	e.WaitTunes()
	if got := ft.calls.Load(); got != int64(maxTunesInFlight) {
		t.Fatalf("%d tunes ran, cap is %d", got, maxTunesInFlight)
	}

	// The deferred fingerprint retries now that slots are free.
	if cfg, _ := e.Resolve(graphs[2], def, compiler.Options{}); cfg != def {
		t.Fatalf("deferred fingerprint's retry request served %v", cfg)
	}
	e.WaitTunes()
	if cfg, _ := e.Resolve(graphs[2], def, compiler.Options{}); cfg != arch.MinEnergy() {
		t.Fatalf("deferred fingerprint never tuned: %v", cfg)
	}
	if got := ft.calls.Load(); got != 3 {
		t.Fatalf("%d total tunes, want 3", got)
	}
}

// TestAutoTuneDecisionTableBound: a full decision table stops growing —
// new fingerprints serve their defaults with no probe, tune or pin.
func TestAutoTuneDecisionTableBound(t *testing.T) {
	old := maxDecisions
	maxDecisions = 2
	defer func() { maxDecisions = old }()

	ft := &fakeTuner{
		decide: func(tg *dag.Graph, d arch.Config, o compiler.Options) (*artifact.Decision, error) {
			return tunedFor(tg.Fingerprint(), arch.MinEnergy(), d, o), nil
		},
	}
	e := New(Options{Tuner: ft})
	def := arch.MinEDP()
	for i := 0; i < 5; i++ {
		g := dag.New("bounded")
		a := g.AddInput()
		s := g.AddOp(dag.OpAdd, a, a)
		for j := 0; j <= i; j++ {
			s = g.AddOp(dag.OpMul, s, a)
		}
		e.Resolve(g, def, compiler.Options{})
		e.WaitTunes()
	}
	s := e.TuneStats()
	if s.Decisions > 2 {
		t.Fatalf("decision table grew past its bound: %+v", s)
	}
	if s.Tunes > 2 {
		t.Fatalf("tunes ran for fingerprints beyond the table bound: %+v", s)
	}
}

// TestAutoTuneStoreErrorDefers: a store read failure is not a miss — it
// must not launch a re-tune (whose last-wins persist would clobber the
// offline decision the IO error hid) and must not pin the default; the
// fingerprint stays unknown and retries later.
func TestAutoTuneStoreErrorDefers(t *testing.T) {
	dir := t.TempDir()
	st, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := tuneTestGraph()
	// A directory where the decision file should be makes os.ReadFile
	// fail with a non-NotFound error — the transient-IO stand-in.
	if err := os.Mkdir(filepath.Join(dir, g.Fingerprint().String()+artifact.DecisionExt), 0o755); err != nil {
		t.Fatal(err)
	}
	ft := &fakeTuner{
		decide: func(tg *dag.Graph, d arch.Config, o compiler.Options) (*artifact.Decision, error) {
			return tunedFor(tg.Fingerprint(), arch.MinEnergy(), d, o), nil
		},
	}
	e := newStoreEngine(t, Options{Tuner: ft, Store: st})
	def := arch.MinEDP()
	for i := 0; i < 3; i++ {
		if cfg, _ := e.Resolve(g, def, compiler.Options{}); cfg != def {
			t.Fatalf("request %d served %v during store outage", i, cfg)
		}
		e.WaitTunes()
	}
	if got := ft.calls.Load(); got != 0 {
		t.Fatalf("store outage launched %d re-tunes", got)
	}
	if s := e.TuneStats(); s.Decisions != 0 {
		t.Fatalf("store outage pinned the fingerprint: %+v", s)
	}
	if s := e.Stats(); s.StoreErrors == 0 {
		t.Fatalf("store outage not surfaced: %+v", s)
	}

	// Outage over (the obstruction is gone, a real decision is there):
	// the next request finds it.
	if err := os.Remove(filepath.Join(dir, g.Fingerprint().String()+artifact.DecisionExt)); err != nil {
		t.Fatal(err)
	}
	if err := st.PutDecision(tunedFor(g.Fingerprint(), arch.MinEnergy(), def, compiler.Options{})); err != nil {
		t.Fatal(err)
	}
	if cfg, _ := e.Resolve(g, def, compiler.Options{}); cfg != arch.MinEnergy() {
		t.Fatalf("post-outage request served %v, want the stored decision", cfg)
	}
}

// TestPreloadSkipsMisaddressedDecision: Preload must apply the same
// identity check as GetDecision — a .dputune filed under the wrong
// fingerprint (stale copy, hand-rename) must not shadow the correctly
// addressed decision for the fingerprint it embeds, whatever the walk
// order.
func TestPreloadSkipsMisaddressedDecision(t *testing.T) {
	dir := t.TempDir()
	st, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := tuneTestGraph()
	def := arch.MinEDP()
	current := tunedFor(g.Fingerprint(), arch.MinEnergy(), def, compiler.Options{})
	if err := st.PutDecision(current); err != nil {
		t.Fatal(err)
	}
	// A stale decision for the same fingerprint (different config),
	// filed under an address that sorts before the real one.
	stale := tunedFor(g.Fingerprint(), arch.MinLatency(), def, compiler.Options{})
	b, err := artifact.EncodeDecisionBytes(stale)
	if err != nil {
		t.Fatal(err)
	}
	var first dag.Fingerprint // all-zero hex sorts first
	if err := os.WriteFile(filepath.Join(dir, first.String()+artifact.DecisionExt), b, 0o644); err != nil {
		t.Fatal(err)
	}

	e := newStoreEngine(t, Options{AutoTune: true, Store: st})
	if _, err := e.Preload(); err != nil {
		t.Fatal(err)
	}
	if s := e.TuneStats(); s.Decisions != 1 || s.StoreTuned != 1 {
		t.Fatalf("misaddressed decision installed: %+v", s)
	}
	if s := e.Stats(); s.StoreErrors == 0 {
		t.Fatalf("misaddressed decision not surfaced: %+v", s)
	}
	if cfg, _ := e.Resolve(g, def, compiler.Options{}); cfg != arch.MinEnergy() {
		t.Fatalf("stale misaddressed decision shadowed the current one: %v", cfg)
	}
}

// TestPreloadHonorsDecisionTableBound: Preload must stop installing
// decisions at the table cap instead of bypassing it.
func TestPreloadHonorsDecisionTableBound(t *testing.T) {
	old := maxDecisions
	maxDecisions = 2
	defer func() { maxDecisions = old }()

	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	def := arch.MinEDP()
	for i := 0; i < 4; i++ {
		g := dag.New("preload-bound")
		a := g.AddInput()
		s := g.AddOp(dag.OpAdd, a, a)
		for j := 0; j <= i; j++ {
			s = g.AddOp(dag.OpMul, s, a)
		}
		if err := st.PutDecision(tunedFor(g.Fingerprint(), arch.MinEnergy(), def, compiler.Options{})); err != nil {
			t.Fatal(err)
		}
	}
	e := newStoreEngine(t, Options{AutoTune: true, Store: st})
	if _, err := e.Preload(); err != nil {
		t.Fatal(err)
	}
	if s := e.TuneStats(); s.Decisions > 2 || s.StoreTuned > 2 {
		t.Fatalf("preload bypassed the decision-table bound: %+v", s)
	}
}

// TestTuneStatsSnapshot covers the /stats-facing view.
func TestTuneStatsSnapshot(t *testing.T) {
	g := tuneTestGraph()
	def := arch.MinEDP()
	tuned := arch.MinEnergy()
	ft := &fakeTuner{
		decide: func(tg *dag.Graph, d arch.Config, o compiler.Options) (*artifact.Decision, error) {
			return tunedFor(tg.Fingerprint(), tuned, d, o), nil
		},
	}
	e := New(Options{Tuner: ft})
	e.Resolve(g, def, compiler.Options{})
	e.WaitTunes()
	e.Resolve(g, def, compiler.Options{})

	ts := e.TuneStats()
	if !ts.Enabled || ts.Decisions != 1 || ts.Tunes != 1 || ts.TunedHits != 1 {
		t.Fatalf("tune stats: %+v", ts)
	}
	if len(ts.Workloads) != 1 {
		t.Fatalf("workloads: %+v", ts.Workloads)
	}
	w := ts.Workloads[0]
	if w.Fingerprint != g.Fingerprint().String() || w.Config != tuned.String() ||
		w.Default != def.String() || w.Source != "tuned" || w.Pinned {
		t.Fatalf("workload row: %+v", w)
	}

	// Disabled engine reports Enabled=false.
	if ts := New(Options{}).TuneStats(); ts.Enabled {
		t.Fatal("autotune reported enabled on a plain engine")
	}
}

// TestAutoTuneConcurrentResolveRace exercises the decision table under
// the race detector: concurrent first sights, tuning completion and
// readers must not tear.
func TestAutoTuneConcurrentResolveRace(t *testing.T) {
	g := tuneTestGraph()
	def := arch.MinEDP()
	ft := &fakeTuner{
		decide: func(tg *dag.Graph, d arch.Config, o compiler.Options) (*artifact.Decision, error) {
			time.Sleep(time.Millisecond)
			return tunedFor(tg.Fingerprint(), arch.MinEnergy(), d, o), nil
		},
	}
	e := New(Options{Tuner: ft})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				cfg, _ := e.Resolve(g, def, compiler.Options{})
				if cfg != def && cfg != arch.MinEnergy() {
					t.Errorf("impossible config %v", cfg)
					return
				}
				e.Stats()
				e.TuneStats()
			}
		}()
	}
	wg.Wait()
	e.WaitTunes()
	if got := ft.calls.Load(); got != 1 {
		t.Fatalf("%d tunes under concurrency", got)
	}
}
