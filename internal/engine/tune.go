package engine

// Autotuning integration — the serving half of the tune→serve loop.
//
// With Options.AutoTune set, the engine maintains a per-fingerprint map
// of artifact.Decision records and Resolve consults it on every request:
// a decided fingerprint is served on its tuned configuration (and the
// compile cache and scheduler batch key follow, because they key on the
// config Resolve returns); an undecided one is
// served on the caller's default. With Options.Tuner also set, first
// sight of an undecided fingerprint kicks off exactly one background
// tune; requests keep flowing on the default config until the decision
// lands, then atomically switch. Decisions are persisted to the backing
// store (last-wins) and reloaded by Preload, so a restarted server
// serves tuned configs from its first request without re-tuning.
//
// State machine per fingerprint:
//
//	unknown ──Resolve──▶ probing the store
//	   │ decision found         │ not found, Tuner set
//	   ▼                        ▼
//	decided ◀──tune done── tuning (single-flight, background)
//	   │                        │ tune failed / tuner nil
//	   ▼                        ▼
//	serve tuned config      absent (pinned: serve default, never retry)
//
// Two bounds keep arbitrary fingerprint churn from exhausting the
// process: at most maxTunesInFlight background sweeps run at once
// (first sights beyond it stay unknown and retry later), and the
// decision table is capped at maxDecisions entries (fingerprints beyond
// it serve their defaults without probing or tuning).

import (
	"context"
	"errors"
	"sort"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
)

// Tuner is what AutoTune needs from the autotuning subsystem;
// *tune.Tuner satisfies it. Tune must be safe for concurrent use and
// honor ctx (the engine supplies its own budget only through the tuner's
// configuration, so a tuner without an internal budget tunes until done).
type Tuner interface {
	Tune(ctx context.Context, g *dag.Graph, def arch.Config, opts compiler.Options) (*artifact.Decision, error)
}

// maxTunesInFlight bounds concurrent background tunes. A tune is a full
// compile+simulate sweep of the candidate grid that already parallelizes
// internally; without a cap, a stream of distinct fingerprints (e.g. a
// load generator's random-graph population) would spawn one sweep per
// graph and starve the serving path of CPU. A first sight arriving at
// the cap is simply deferred: the request serves its default and a later
// request re-probes once a slot frees. (A var, not a const, so tests can
// tighten it.)
var maxTunesInFlight = 2

// maxDecisions bounds the decision table. Decisions are small, but the
// table is permanent per fingerprint — unlike the LRU compile cache —
// so arbitrary client graph churn must not grow it without bound.
// Fingerprints beyond the cap are served on their defaults without
// probing or tuning; 64k decisions is far beyond any real workload
// population.
var maxDecisions = 1 << 16

// residentDecision is one row of the engine's decision table. A nil d
// is a pinned negative: the fingerprint was probed (store miss and
// either no tuner or a failed tune) and will be served on the default
// config without further store traffic.
type residentDecision struct {
	d      *artifact.Decision
	source string // "store" or "tuned"
}

// tuneState is the engine's per-fingerprint autotuning table. probing
// single-flights the store lookup: concurrent first sights of one
// fingerprint cost one disk read, not N — the laggards serve their
// defaults and retry on a later request.
type tuneState struct {
	decisions map[dag.Fingerprint]residentDecision
	tuning    map[dag.Fingerprint]struct{}
	probing   map[dag.Fingerprint]struct{}
}

// Resolve maps a request to the configuration it should be served on:
// the tuned decision's config+options when one exists for g's
// fingerprint, the caller's own (normalized) otherwise. When the engine
// has a Tuner and sees an undecided fingerprint, Resolve starts one
// background tune for it and returns the default — callers never block
// on tuning. Without AutoTune, Resolve is the identity (plus
// normalization), so serving layers can call it unconditionally.
//
// A decision is per fingerprint, not per (fingerprint, config): once
// one exists, it overrides whatever config a request submits. The
// no-regression guarantee (MinGain) therefore holds relative to the
// config the tune was run against — the one in use at first sight —
// not against every config a later client might name; per-workload
// override is the point (serve each graph on the config the DSE says
// is best), and clients needing an exact config should serve without
// AutoTune.
func (e *Engine) Resolve(g *dag.Graph, cfg arch.Config, opts compiler.Options) (arch.Config, compiler.Options) {
	cfg = cfg.Normalize()
	opts = opts.Normalized()
	if !e.opts.AutoTune {
		return cfg, opts
	}
	fp := g.Fingerprint()

	e.tuneMu.Lock()
	r, known := e.tune.decisions[fp]
	_, inFlight := e.tune.tuning[fp]
	e.tuneMu.Unlock()

	if !known && !inFlight {
		r, known = e.probeDecision(g, fp, cfg, opts)
	}
	if known && r.d != nil {
		e.tunedHits.Add(1)
		return r.d.Config, r.d.Options
	}
	return cfg, opts
}

// admitDecision vets a decision before it is installed: the configured
// guard must accept its configuration, and when the store holds a
// pre-compiled program at the decision's exact content address, that
// program must pass static verification — a tuned decision may not
// switch traffic onto an illegal artifact. An admitted decision is
// installed with its source, a rejected one becomes a pinned default
// (the caller accounts the rejection by source). Performs store IO:
// callers must not hold tuneMu.
func (e *Engine) admitDecision(d *artifact.Decision, source string) residentDecision {
	if g := e.opts.DecisionGuard; g != nil && g(d.Config) != nil {
		return residentDecision{}
	}
	if st := e.opts.Store; st != nil {
		key := artifact.KeyFor(d.Fingerprint, d.Config, d.Options)
		if a, err := st.Get(key); err == nil && !e.verifyDecoded(key, a.Compiled) {
			// The decision's pre-compiled program is semantically corrupt:
			// purge it and keep serving the default config. (A missing or
			// undecodable artifact is not a rejection — the config switch
			// would just compile on first use, and Get already evicts
			// decode failures.)
			st.Remove(key)
			return residentDecision{}
		}
	}
	return residentDecision{d: d, source: source}
}

// probeDecision is the slow path of Resolve for a fingerprint the engine
// has no verdict on: consult the store once, and failing that start a
// background tune (when a tuner is configured) or pin the default. The
// double-check under tuneMu makes concurrent first sights race-free:
// exactly one caller probes the store / starts the tune.
func (e *Engine) probeDecision(g *dag.Graph, fp dag.Fingerprint, cfg arch.Config, opts compiler.Options) (residentDecision, bool) {
	// A full table stops all new probing and tuning up front (before any
	// store IO): the fingerprints already decided keep their decisions,
	// everything else serves its default. The probing set single-flights
	// the store read for each fingerprint — a concurrent prober means
	// this request serves its default without touching the disk.
	e.tuneMu.Lock()
	_, inProbe := e.tune.probing[fp]
	full := len(e.tune.decisions) >= maxDecisions
	if !inProbe && !full {
		e.tune.probing[fp] = struct{}{}
	}
	e.tuneMu.Unlock()
	if inProbe || full {
		return residentDecision{}, false
	}

	var stored *artifact.Decision
	var storeErr bool
	if st := e.opts.Store; st != nil {
		switch d, err := st.GetDecision(fp); {
		case err == nil:
			stored = d
		case errors.Is(err, artifact.ErrNotFound):
		default:
			storeErr = true
		}
	}

	// Admission does store IO (guard check plus artifact verification),
	// so it runs before tuneMu is re-taken.
	var admitted residentDecision
	if stored != nil {
		admitted = e.admitDecision(stored, "store")
	}

	e.tuneMu.Lock()
	defer e.tuneMu.Unlock()
	delete(e.tune.probing, fp)
	if r, known := e.tune.decisions[fp]; known {
		return r, true // another caller resolved it while we probed
	}
	if _, inFlight := e.tune.tuning[fp]; inFlight {
		return residentDecision{}, false
	}
	if len(e.tune.decisions) >= maxDecisions {
		return residentDecision{}, false // racing probes filled the table
	}
	if storeErr {
		// A store read failure is not a miss: tuning now would clobber
		// the (possibly far better-budgeted) offline decision the IO
		// blip hid — PutDecision is last-wins — and pinning would
		// freeze the default until restart. Defer: serve the default,
		// count the error, retry on a later request.
		e.storeErrors.Add(1)
		return residentDecision{}, false
	}
	if stored != nil {
		e.tune.decisions[fp] = admitted
		if admitted.d != nil {
			e.storeTuned.Add(1)
		} else {
			e.storeErrors.Add(1) // guard- or verifier-rejected store content
		}
		return admitted, true
	}
	if e.opts.Tuner == nil {
		// No way to decide: pin the default so this fingerprint never
		// hits the store again.
		e.tune.decisions[fp] = residentDecision{}
		return residentDecision{}, true
	}
	if len(e.tune.tuning) >= maxTunesInFlight {
		// Tuning capacity is saturated: defer, don't pin — the
		// fingerprint stays unknown, so a later request retries once a
		// slot frees.
		return residentDecision{}, false
	}
	e.tune.tuning[fp] = struct{}{}
	e.tuneInFlight.Add(1)
	e.tuneWG.Add(1)
	// The background goroutine outlives the request; give it a private
	// graph so a caller mutating its graph afterwards cannot corrupt the
	// tune (same aliasing hazard resolveMiss guards the cache against).
	go e.backgroundTune(g.Clone(), fp, cfg, opts)
	return residentDecision{}, false
}

// backgroundTune runs one tuner invocation off the serving path and
// publishes its outcome: a decision (applied to subsequent Resolves,
// persisted to the store, and its program pre-compiled so the config
// switch lands cache-warm), or a pinned default on failure.
func (e *Engine) backgroundTune(g *dag.Graph, fp dag.Fingerprint, cfg arch.Config, opts compiler.Options) {
	defer func() {
		e.tuneInFlight.Add(-1)
		e.tuneWG.Done()
	}()
	d, err := e.opts.Tuner.Tune(context.Background(), g, cfg, opts)
	if err == nil && d.Fingerprint != fp {
		err = errors.New("engine: tuner returned a decision for a different fingerprint")
	}
	var r residentDecision
	if err == nil {
		if r = e.admitDecision(d, "tuned"); r.d == nil {
			err = errors.New("engine: tuned config rejected by the decision guard")
		}
	}

	e.tuneMu.Lock()
	delete(e.tune.tuning, fp)
	// A failed (or guard-rejected) tune pins the default: requests keep
	// their config and the engine does not retry a tuner that just
	// demonstrated it cannot handle this workload. (A restart retries.)
	e.tune.decisions[fp] = r
	e.tuneMu.Unlock()
	if err != nil {
		e.tuneErrors.Add(1)
		return
	}
	e.tunes.Add(1)

	if st := e.opts.Store; st != nil {
		if perr := st.PutDecision(d); perr != nil {
			e.storeErrors.Add(1)
		}
	}
	// Pre-compile the tuned program (and persist its artifact) off the
	// request path, so the first request after the switch is a cache hit
	// on the tuned config, not a compile. The tune itself already
	// succeeded and its decision is published, so a failure here is not
	// a TuneError — it only costs the first post-switch request an
	// on-demand compile (and cannot be deterministic: the tuner just
	// compiled this config successfully to score it).
	e.Compile(g, d.Config, d.Options)
}

// WaitTunes blocks until every background tune started so far has
// published its outcome. Servers call it while draining (alongside
// Flush) so a shutdown does not discard tuning work in flight; tests
// call it to observe the post-tune state deterministically.
func (e *Engine) WaitTunes() { e.tuneWG.Wait() }

// TunedWorkload is one row of TuneStats: a fingerprint the engine has a
// decision for, rendered for the /stats endpoint.
type TunedWorkload struct {
	Fingerprint  string  `json:"fingerprint"`
	Config       string  `json:"config"`
	Default      string  `json:"default"`
	Metric       string  `json:"metric"`
	Score        float64 `json:"score"`
	DefaultScore float64 `json:"default_score"`
	Source       string  `json:"source"` // "store" (preloaded/probed) or "tuned" (this process)
	Pinned       bool    `json:"pinned"` // true when the decision keeps the default config
}

// TuneStats is the autotuning section of the serving stats. The `prom`
// tags declare its /metrics families (see package metrics).
type TuneStats struct {
	// Enabled reports whether the engine resolves requests through the
	// decision table at all.
	Enabled bool `json:"enabled"`
	// Decisions is the number of resident decisions (including pinned
	// defaults from failed or store-less probes).
	Decisions int64 `json:"decisions" prom:"dpu_engine_decisions"`
	// TunedHits counts requests served on a decision's configuration.
	TunedHits int64 `json:"tuned_hits" prom:"dpu_engine_tuned_hits_total"`
	// Tunes counts background tunes completed in this process;
	// TuneErrors counts tuner failures (which pin the default).
	Tunes      int64 `json:"tunes" prom:"dpu_engine_tunes_total"`
	TuneErrors int64 `json:"tune_errors" prom:"dpu_engine_tune_errors_total"`
	// InFlight is the number of background tunes currently running.
	InFlight int64 `json:"tune_in_flight" prom:"dpu_engine_tunes_inflight"`
	// StoreTuned counts decisions loaded from the persistent store
	// (preload and on-demand probes).
	StoreTuned int64 `json:"store_tuned" prom:"dpu_engine_store_tuned_total"`
	// Workloads lists the resident non-pinned decisions.
	Workloads []TunedWorkload `json:"workloads,omitempty"`
}

// TuneStats snapshots the autotuning state.
func (e *Engine) TuneStats() TuneStats {
	s := TuneStats{
		Enabled:    e.opts.AutoTune,
		TunedHits:  e.tunedHits.Load(),
		Tunes:      e.tunes.Load(),
		TuneErrors: e.tuneErrors.Load(),
		InFlight:   e.tuneInFlight.Load(),
		StoreTuned: e.storeTuned.Load(),
	}
	e.tuneMu.Lock()
	s.Decisions = int64(len(e.tune.decisions))
	for fp, r := range e.tune.decisions {
		if r.d == nil {
			continue
		}
		d := r.d
		s.Workloads = append(s.Workloads, TunedWorkload{
			Fingerprint:  fp.String(),
			Config:       d.Config.String(),
			Default:      d.Provenance.Default.String(),
			Metric:       d.Provenance.Metric,
			Score:        d.Score,
			DefaultScore: d.Provenance.DefaultScore,
			Source:       r.source,
			Pinned:       d.Config == d.Provenance.Default,
		})
	}
	e.tuneMu.Unlock()
	sort.Slice(s.Workloads, func(i, j int) bool {
		return s.Workloads[i].Fingerprint < s.Workloads[j].Fingerprint
	})
	return s
}

// Decision returns the resident decision for a fingerprint, if any
// (nil, false for unknown or pinned-default fingerprints). Tests and
// CLIs use it; the serving path goes through Resolve.
func (e *Engine) Decision(fp dag.Fingerprint) (*artifact.Decision, bool) {
	e.tuneMu.Lock()
	r, known := e.tune.decisions[fp]
	e.tuneMu.Unlock()
	if !known || r.d == nil {
		return nil, false
	}
	return r.d, true
}
