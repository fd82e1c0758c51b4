//! Checkpoint library: reuse fast-forward prefix state across technique
//! permutations.
//!
//! Every sampling technique begins by advancing the workload stream past a
//! prefix it does not measure — fast-forwarding `x` instructions, filling a
//! pipeline for `y`, positioning a SMARTS shard segment. The harnesses run
//! the *same* prefixes again and again: FF/WU/Run sweeps vary only `z`
//! across a shared `(x, y)`, random sampling and SMARTS segments revisit
//! the same grid offsets per configuration. This library makes each
//! distinct prefix computation happen once per process and serves
//! restore-instead-of-reexecute afterwards. Functional warming is not
//! cached: it always runs live through [`Simulator::warm_functional`].
//!
//! Two tiers, by what the state depends on:
//!
//! 1. **Architectural tier** — [`workloads::InterpState`] snapshots keyed by
//!    `(program fingerprint, stream position)`. Configuration-independent:
//!    one snapshot serves every [`SimConfig`]. Used wherever the machine is
//!    cold at the target position (plain fast-forward, random-sample gaps).
//!    [`Library::advance_interp`] restores the nearest snapshot at or before
//!    the target and interprets only the remainder.
//! 2. **Warm-machine tier** — a deep [`Simulator`] clone plus the paired
//!    interpreter snapshot, keyed by `(program, config, x, y)`.
//!    Configuration-*dependent*, so it is a delta layered on top of tier 1:
//!    a miss builds the machine via tier 1 and stores the result; FF+WU+Run
//!    permutations that share `(x, y)` across their `z` sweep then restore
//!    it. Bounded by a byte budget (`SIM_CHECKPOINT_WARM_MB`).
//!
//! # Correctness contract
//!
//! A restored-then-run window must produce *byte-identical* results to the
//! cold path: the interpreter restore is exact ([`workloads::Interp::restore`])
//! and a machine clone is exact — so metrics cannot differ. Cost accounting
//! is also identical: hits charge the same skipped/warmed/detailed work
//! units the cold path measures (the library saves wall-clock and
//! functional execution, never modeled work). The global functional-execution
//! counter ([`sim_core::checkpoint::functional_insts`]) observes the saving:
//! restores do not count, so a sweep with the library enabled reports
//! strictly fewer functionally executed instructions.
//!
//! # Knobs
//!
//! - The library is always on. [`set_enabled`]`(false)` turns every tier
//!   off so all paths fall back to cold execution; it exists only as the
//!   cold reference that `tests/checkpoint_equivalence.rs` compares
//!   against.
//! - `SIM_CHECKPOINT_ARCH_CAP` — max architectural snapshots kept per
//!   program (default 128; a snapshot is a few hundred bytes).
//! - `SIM_CHECKPOINT_WARM_MB` — byte budget for the warm-machine tier
//!   (default 256 MB). When exhausted, further inserts are refused: runs
//!   still complete cold, outputs stay byte-identical, only reuse is lost.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound::{Excluded, Included};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use sim_core::{InstStream, SimConfig, Simulator};
use sim_obs::{trace as obs, Counter, Gauge, Phase, Reuse};
use workloads::{Interp, InterpState, Program};

const DEFAULT_ARCH_CAP: usize = 128;
const DEFAULT_WARM_MB: usize = 256;

/// Process-wide off switch for the cold reference (see [`set_enabled`]).
static DISABLED: AtomicBool = AtomicBool::new(false);

/// Turn the process-wide library off (`false`) or back on (`true`). It
/// exists only as the cold reference that `tests/checkpoint_equivalence.rs`
/// compares restored runs against; no harness or binary calls it, so the
/// library is always on outside that test.
pub fn set_enabled(on: bool) {
    DISABLED.store(!on, Ordering::Relaxed);
}

/// Whether the checkpoint library is active: on unless the cold reference
/// turned it off with [`set_enabled`]`(false)`.
pub fn enabled() -> bool {
    !DISABLED.load(Ordering::Relaxed)
}

/// Key of the warm-machine tier: the prefix `(x skipped, y warmed)` of one
/// program under one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WarmKey {
    prog_fp: u64,
    cfg_fp: u64,
    x: u64,
    y: u64,
}

/// A machine warmed through `skip(x)` + `run_detailed(y)`, with the paired
/// interpreter snapshot taken at the same instant (the core holds
/// fetched-but-uncommitted instructions, so the stream cursor is part of
/// the state) and the cost the cold path measured building it.
#[derive(Debug)]
struct WarmCheckpoint {
    sim: Simulator,
    interp: InterpState,
    skipped: u64,
    warm: u64,
}

/// Hit/miss counters of one tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups served (fully or partially) from stored state.
    pub hits: u64,
    /// Lookups that had to execute cold.
    pub misses: u64,
}

/// A snapshot of the library's counters (the `--cache-stats` report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LibraryStats {
    /// Architectural-snapshot tier.
    pub arch: TierStats,
    /// Warm-machine tier.
    pub warm: TierStats,
    /// Bytes currently held by the warm-machine tier.
    pub warm_bytes: usize,
    /// Warm-machine inserts refused because the byte budget was exhausted.
    pub warm_refusals: u64,
}

/// The checkpoint library. One instance is shared process-wide via
/// [`global`]; tests build private instances with [`Library::with_limits`].
#[derive(Debug)]
pub struct Library {
    /// prog_fp → position → snapshot (BTreeMap for floor queries).
    arch: Mutex<HashMap<u64, BTreeMap<u64, Arc<InterpState>>>>,
    warm: Mutex<HashMap<WarmKey, Arc<WarmCheckpoint>>>,
    /// Per-instance enable override; `None` follows the process-wide
    /// [`enabled`] flag (tests force a value to stay isolated from it).
    force: Option<bool>,
    /// Persistent second level behind every tier: misses read through to
    /// it, fresh state spills behind into it, so the next *process* starts
    /// warm. `None` (no `--store`/`SIM_STORE`) keeps all tiers in-memory.
    store: Option<Arc<sim_store::Store>>,
    arch_cap: usize,
    warm_budget: usize,
    warm_bytes: Gauge,
    arch_hits: Counter,
    arch_misses: Counter,
    warm_hits: Counter,
    warm_misses: Counter,
    warm_refusals: Counter,
}

impl Library {
    /// A library with explicit limits: `arch_cap` snapshots per program and
    /// `warm_budget` bytes of warm machines. Counters are private
    /// (unregistered); only [`global`] reports through the metrics registry.
    pub fn with_limits(arch_cap: usize, warm_budget: usize) -> Self {
        Library {
            arch: Mutex::new(HashMap::new()),
            warm: Mutex::new(HashMap::new()),
            force: None,
            store: None,
            arch_cap,
            warm_budget,
            warm_bytes: Gauge::detached(),
            arch_hits: Counter::detached(),
            arch_misses: Counter::detached(),
            warm_hits: Counter::detached(),
            warm_misses: Counter::detached(),
            warm_refusals: Counter::detached(),
        }
    }

    /// Swap the counters for registry-backed handles (the [`global`]
    /// instance, whose tier traffic shows up in `--metrics` reports).
    fn registered(mut self) -> Self {
        self.store = sim_store::global();
        self.warm_bytes = sim_obs::metrics::gauge("ckpt.warm.bytes");
        self.arch_hits = sim_obs::metrics::counter("ckpt.arch.hits");
        self.arch_misses = sim_obs::metrics::counter("ckpt.arch.misses");
        self.warm_hits = sim_obs::metrics::counter("ckpt.warm.hits");
        self.warm_misses = sim_obs::metrics::counter("ckpt.warm.misses");
        self.warm_refusals = sim_obs::metrics::counter("ckpt.warm.refusals");
        self
    }

    /// A library configured from `SIM_CHECKPOINT_ARCH_CAP` and
    /// `SIM_CHECKPOINT_WARM_MB`.
    pub fn from_env() -> Self {
        Self::with_limits(
            sim_obs::env_val("SIM_CHECKPOINT_ARCH_CAP").unwrap_or(DEFAULT_ARCH_CAP),
            sim_obs::env_val("SIM_CHECKPOINT_WARM_MB").unwrap_or(DEFAULT_WARM_MB) * 1024 * 1024,
        )
    }

    /// Pin this instance on or off regardless of the process-wide flag.
    pub fn with_enabled(mut self, on: bool) -> Self {
        self.force = Some(on);
        self
    }

    /// Attach a persistent store this instance reads through to and spills
    /// into (tests; the [`global`] instance attaches [`sim_store::global`]).
    pub fn with_store(mut self, store: Arc<sim_store::Store>) -> Self {
        self.store = Some(store);
        self
    }

    fn active(&self) -> bool {
        self.force.unwrap_or_else(enabled)
    }

    /// Advance `interp` to absolute stream position `target` (instructions
    /// emitted), restoring the nearest stored snapshot in
    /// `(current, target]` and interpreting only the remainder. Stores a
    /// snapshot at `target` for future callers (subject to the per-program
    /// cap). The machine is untouched — use this only where the cold path
    /// leaves the machine cold too ([`Simulator::skip`] semantics).
    ///
    /// Returns the position delta actually covered, which equals what the
    /// cold `skip` would have reported (shorter than requested only when
    /// the stream ends early) — charge it as skipped cost unchanged.
    pub fn advance_interp(&self, interp: &mut Interp<'_>, target: u64) -> u64 {
        let start = interp.emitted();
        debug_assert!(target >= start, "advance_interp cannot rewind");
        let want = target.saturating_sub(start);
        if !self.active() {
            let mut span = obs::span(Phase::FastForward);
            let skipped = interp.skip_n(want);
            span.add_insts(skipped);
            return skipped;
        }
        let fp = interp.program().fingerprint();
        let floor = {
            let arch = self.arch.lock().unwrap_or_else(|e| e.into_inner());
            arch.get(&fp).and_then(|m| {
                m.range((Excluded(start), Included(target)))
                    .next_back()
                    .map(|(_, s)| Arc::clone(s))
            })
        };
        match &floor {
            Some(state) => {
                let mut span = obs::span(Phase::CheckpointRestore);
                span.add_bytes(state.approx_bytes() as u64);
                span.add_insts(state.emitted() - start);
                interp.restore(state);
                drop(span);
                obs::mark_reuse(Reuse::ArchCkpt);
                self.arch_hits.inc();
            }
            None => {
                self.arch_misses.inc();
            }
        }
        // When memory leaves a remainder, a previous process may have
        // snapshotted the exact target: read through to the store.
        if interp.emitted() < target {
            if let Some(state) = self.store_arch_lookup(fp, target) {
                let mut span = obs::span(Phase::CheckpointRestore);
                span.add_bytes(state.approx_bytes() as u64);
                span.add_insts(target - interp.emitted());
                interp.restore(&state);
                drop(span);
                obs::mark_reuse(Reuse::StoreRestore);
                self.insert_arch_memory(fp, target, Arc::new(state));
            }
        }
        let remainder = target - interp.emitted();
        if remainder > 0 {
            let mut span = obs::span(Phase::FastForward);
            span.add_insts(interp.skip_n(remainder));
        }
        // Lazily materialize a snapshot at the requested boundary (unless
        // the stream ended short of it — a truncated position is still a
        // valid snapshot but would never be asked for by this target again).
        if interp.emitted() == target && target > start {
            self.store_arch(fp, target, interp.snapshot());
        }
        interp.emitted() - start
    }

    /// Try to hydrate an architectural snapshot at exactly `pos` from the
    /// persistent store. Foreign, stale, or corrupt payloads decode to
    /// `None`; the caller interprets the remainder cold.
    fn store_arch_lookup(&self, fp: u64, pos: u64) -> Option<InterpState> {
        let store = self.store.as_ref()?;
        let payload = store.get(
            crate::store::NS_ARCH,
            sim_store::Key::of(&crate::store::arch_key_bytes(fp, pos)),
        )?;
        crate::store::decode_arch(fp, pos, &payload).ok()
    }

    /// Insert into the in-memory arch tier only (hydrations, which are
    /// already persistent). Returns whether the snapshot was newly kept.
    fn insert_arch_memory(&self, fp: u64, pos: u64, state: Arc<InterpState>) -> bool {
        let mut arch = self.arch.lock().unwrap_or_else(|e| e.into_inner());
        let per_prog = arch.entry(fp).or_default();
        if per_prog.len() >= self.arch_cap && !per_prog.contains_key(&pos) {
            return false; // cap refusal: reuse degrades, correctness does not
        }
        let mut fresh = false;
        per_prog.entry(pos).or_insert_with(|| {
            fresh = true;
            state
        });
        fresh
    }

    fn store_arch(&self, fp: u64, pos: u64, state: InterpState) {
        debug_assert_eq!(state.program_fingerprint(), fp);
        debug_assert_eq!(state.emitted(), pos);
        let state = Arc::new(state);
        // Spill behind only what memory newly kept: a repeat position is
        // already persisted and a cap refusal should not grow the store.
        if self.insert_arch_memory(fp, pos, Arc::clone(&state)) {
            if let Some(store) = &self.store {
                store.put(
                    crate::store::NS_ARCH,
                    sim_store::Key::of(&crate::store::arch_key_bytes(fp, pos)),
                    crate::store::encode_arch(&state),
                );
            }
        }
    }

    /// A machine carried through `skip(x)` + detailed warm-up of `y`, with
    /// its stream, exactly as the cold FF+WU prefix leaves them (stats not
    /// yet reset). Returns `(sim, stream, skipped, warm)` where `skipped`
    /// and `warm` are the cost the cold path charges for the prefix.
    ///
    /// A hit clones the stored machine and resumes the stored interpreter
    /// state; a miss builds the prefix (through the architectural tier) and
    /// stores it, subject to the byte budget.
    pub fn warmed_machine<'p>(
        &self,
        program: &'p Program,
        cfg: &SimConfig,
        x: u64,
        y: u64,
    ) -> (Simulator, Interp<'p>, u64, u64) {
        if !self.active() {
            let mut stream = Interp::new(program);
            let mut sim = Simulator::new(cfg.clone());
            let skipped = sim.skip(&mut stream, x);
            let mut span = obs::span(Phase::WarmUp);
            let warm = sim.run_detailed(&mut stream, y);
            span.add_insts(warm);
            return (sim, stream, skipped, warm);
        }
        let key = WarmKey {
            prog_fp: program.fingerprint(),
            cfg_fp: cfg.fingerprint(),
            x,
            y,
        };
        let stored = {
            let warm = self.warm.lock().unwrap_or_else(|e| e.into_inner());
            warm.get(&key).map(Arc::clone)
        };
        if let Some(wc) = stored {
            self.warm_hits.inc();
            obs::mark_reuse(Reuse::WarmCkpt);
            let mut span = obs::span(Phase::CheckpointRestore);
            span.add_bytes((wc.sim.footprint_bytes() + wc.interp.approx_bytes()) as u64);
            span.add_insts(wc.skipped + wc.warm);
            let stream = Interp::resume(program, &wc.interp);
            return (wc.sim.clone(), stream, wc.skipped, wc.warm);
        }
        // Memory miss: a previous process may have persisted this exact
        // prefix — hydrate it instead of rebuilding.
        if let Some(wc) = self.store_warm_lookup(key, cfg) {
            self.warm_hits.inc();
            obs::mark_reuse(Reuse::StoreRestore);
            let mut span = obs::span(Phase::CheckpointRestore);
            span.add_bytes((wc.sim.footprint_bytes() + wc.interp.approx_bytes()) as u64);
            span.add_insts(wc.skipped + wc.warm);
            let stream = Interp::resume(program, &wc.interp);
            return (wc.sim.clone(), stream, wc.skipped, wc.warm);
        }
        self.warm_misses.inc();
        let mut stream = Interp::new(program);
        let skipped = self.advance_interp(&mut stream, x);
        let mut sim = Simulator::new(cfg.clone());
        let mut span = obs::span(Phase::WarmUp);
        let warm = sim.run_detailed(&mut stream, y);
        span.add_insts(warm);
        drop(span);
        self.store_warm(key, &sim, &stream, skipped, warm);
        (sim, stream, skipped, warm)
    }

    /// Try to hydrate a warm-machine checkpoint from the persistent store,
    /// installing it into the in-memory tier (subject to the byte budget)
    /// so later lookups are plain memory hits. The machine is rebuilt
    /// under `cfg`, so a foreign or stale payload cannot survive decoding.
    fn store_warm_lookup(&self, key: WarmKey, cfg: &SimConfig) -> Option<Arc<WarmCheckpoint>> {
        let store = self.store.as_ref()?;
        let payload = store.get(
            crate::store::NS_WARM,
            sim_store::Key::of(&crate::store::warm_key_bytes(
                key.prog_fp,
                key.cfg_fp,
                key.x,
                key.y,
            )),
        )?;
        let (sim, interp, skipped, warm) =
            crate::store::decode_warm(key.prog_fp, cfg, key.x, key.y, &payload).ok()?;
        let wc = Arc::new(WarmCheckpoint {
            sim,
            interp,
            skipped,
            warm,
        });
        self.insert_warm_memory(key, Arc::clone(&wc));
        Some(wc)
    }

    /// Insert into the in-memory warm tier under the byte budget. Returns
    /// whether the checkpoint was kept.
    fn insert_warm_memory(&self, key: WarmKey, wc: Arc<WarmCheckpoint>) -> bool {
        let bytes = wc.sim.footprint_bytes() + wc.interp.approx_bytes();
        let held = self.warm_bytes.add(bytes as u64) as usize;
        if held + bytes > self.warm_budget {
            self.warm_bytes.sub(bytes as u64);
            self.warm_refusals.inc();
            return false;
        }
        let mut map = self.warm.lock().unwrap_or_else(|e| e.into_inner());
        if map.insert(key, wc).is_some() {
            // A racing builder stored the identical checkpoint first; give
            // back the double-counted bytes.
            self.warm_bytes.sub(bytes as u64);
        }
        true
    }

    fn store_warm(
        &self,
        key: WarmKey,
        sim: &Simulator,
        stream: &Interp<'_>,
        skipped: u64,
        warm: u64,
    ) {
        let wc = Arc::new(WarmCheckpoint {
            sim: sim.clone(),
            interp: stream.snapshot(),
            skipped,
            warm,
        });
        if !self.insert_warm_memory(key, Arc::clone(&wc)) {
            return;
        }
        // Spill behind so the next process skips the whole prefix build.
        if let Some(store) = &self.store {
            store.put(
                crate::store::NS_WARM,
                sim_store::Key::of(&crate::store::warm_key_bytes(
                    key.prog_fp,
                    key.cfg_fp,
                    key.x,
                    key.y,
                )),
                crate::store::encode_warm(
                    key.prog_fp,
                    key.cfg_fp,
                    key.x,
                    key.y,
                    &wc.sim,
                    &wc.interp,
                    skipped,
                    warm,
                ),
            );
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LibraryStats {
        LibraryStats {
            arch: TierStats {
                hits: self.arch_hits.get(),
                misses: self.arch_misses.get(),
            },
            warm: TierStats {
                hits: self.warm_hits.get(),
                misses: self.warm_misses.get(),
            },
            warm_bytes: self.warm_bytes.get() as usize,
            warm_refusals: self.warm_refusals.get(),
        }
    }

    /// One-line human-readable counter summary (the `--cache-stats`
    /// report).
    pub fn summary(&self) -> String {
        let s = self.stats();
        format!(
            "checkpoints: arch {}/{} warm {}/{} (hits/misses), {} KiB warm state, {} refusals",
            s.arch.hits,
            s.arch.misses,
            s.warm.hits,
            s.warm.misses,
            s.warm_bytes / 1024,
            s.warm_refusals,
        )
    }

    /// Drop all stored state and reset the counters.
    pub fn clear(&self) {
        self.arch.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.warm.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.warm_bytes.set(0);
        for c in [
            &self.arch_hits,
            &self.arch_misses,
            &self.warm_hits,
            &self.warm_misses,
            &self.warm_refusals,
        ] {
            c.reset();
        }
    }
}

impl Default for Library {
    fn default() -> Self {
        Self::from_env()
    }
}

/// The process-wide checkpoint library. Its tier counters are registered
/// in the metrics registry as `ckpt.{arch,warm}.{hits,misses}`,
/// `ckpt.warm.refusals`, and the `ckpt.warm.bytes` gauge.
pub fn global() -> &'static Library {
    static GLOBAL: OnceLock<Library> = OnceLock::new();
    GLOBAL.get_or_init(|| Library::from_env().registered())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::InputSet;

    fn program() -> Program {
        workloads::benchmark("gzip")
            .unwrap()
            .program(InputSet::Small)
            .unwrap()
    }

    fn lib() -> Library {
        Library::with_limits(DEFAULT_ARCH_CAP, DEFAULT_WARM_MB * 1024 * 1024)
    }

    #[test]
    fn advance_interp_matches_cold_skip_everywhere() {
        let p = program();
        let lib = lib();
        for target in [0u64, 5_000, 40_000, 40_000, 65_000] {
            let mut cold = Interp::new(&p);
            let cold_skipped = cold.skip_n(target);
            let mut warm = Interp::new(&p);
            let warm_skipped = lib.advance_interp(&mut warm, target);
            assert_eq!(warm_skipped, cold_skipped, "target {target}");
            assert_eq!(warm.emitted(), cold.emitted());
            for _ in 0..500 {
                assert_eq!(warm.next_inst(), cold.next_inst(), "target {target}");
            }
        }
        let s = lib.stats();
        assert!(s.arch.hits > 0, "repeated targets must restore snapshots");
    }

    #[test]
    fn advance_interp_restores_instead_of_reinterpreting() {
        use sim_core::checkpoint::thread_functional_insts;
        let p = program();
        let lib = lib();
        let mut first = Interp::new(&p);
        lib.advance_interp(&mut first, 30_000);
        drop(first);
        let before = thread_functional_insts();
        let mut second = Interp::new(&p);
        lib.advance_interp(&mut second, 30_000);
        drop(second);
        assert_eq!(
            thread_functional_insts() - before,
            0,
            "an exact snapshot hit performs no functional execution"
        );
    }

    #[test]
    fn advance_interp_uses_floor_snapshot_for_longer_targets() {
        use sim_core::checkpoint::thread_functional_insts;
        let p = program();
        let lib = lib();
        let mut a = Interp::new(&p);
        lib.advance_interp(&mut a, 20_000);
        drop(a);
        let before = thread_functional_insts();
        let mut b = Interp::new(&p);
        lib.advance_interp(&mut b, 26_000);
        drop(b);
        assert_eq!(
            thread_functional_insts() - before,
            6_000,
            "only the remainder past the floor snapshot is re-executed"
        );
    }

    #[test]
    fn arch_cap_refuses_but_stays_correct() {
        let p = program();
        let lib = Library::with_limits(2, usize::MAX);
        for target in [1_000u64, 2_000, 3_000, 4_000] {
            let mut it = Interp::new(&p);
            lib.advance_interp(&mut it, target);
        }
        // Capped at 2 snapshots; later targets still advance correctly.
        let mut capped = Interp::new(&p);
        lib.advance_interp(&mut capped, 4_000);
        let mut cold = Interp::new(&p);
        cold.skip_n(4_000);
        assert_eq!(capped.next_inst(), cold.next_inst());
    }

    #[test]
    fn warmed_machine_hit_is_byte_identical_to_cold_prefix() {
        let p = program();
        let cfg = SimConfig::table3(1);
        let lib = lib();
        // Miss builds and stores; hit must reproduce exactly.
        let (mut sim_a, mut st_a, sk_a, w_a) = lib.warmed_machine(&p, &cfg, 20_000, 5_000);
        let (mut sim_b, mut st_b, sk_b, w_b) = lib.warmed_machine(&p, &cfg, 20_000, 5_000);
        assert_eq!((sk_a, w_a), (sk_b, w_b), "cost identical on hit");
        assert_eq!(lib.stats().warm, TierStats { hits: 1, misses: 1 });
        sim_a.reset_stats();
        sim_b.reset_stats();
        sim_a.run_detailed(&mut st_a, 3_000);
        sim_b.run_detailed(&mut st_b, 3_000);
        assert_eq!(sim_a.stats(), sim_b.stats(), "measured window identical");
    }

    #[test]
    fn warm_budget_refuses_inserts_not_correctness() {
        let p = program();
        let cfg = SimConfig::table3(1);
        let lib = Library::with_limits(DEFAULT_ARCH_CAP, 1); // 1-byte budget
        let (_, _, sk, _) = lib.warmed_machine(&p, &cfg, 10_000, 2_000);
        assert_eq!(sk, 10_000);
        let (_, _, sk2, _) = lib.warmed_machine(&p, &cfg, 10_000, 2_000);
        assert_eq!(sk2, 10_000);
        let s = lib.stats();
        assert_eq!(s.warm.hits, 0, "nothing fit in the budget");
        assert!(s.warm_refusals >= 1);
        assert_eq!(s.warm_bytes, 0);
    }

    #[test]
    fn disabled_library_falls_back_to_cold_paths() {
        // Pin this instance off instead of calling [`set_enabled`]: the
        // process-wide flag is shared with concurrently running tests.
        let p = program();
        let cfg = SimConfig::table3(1);
        let lib = lib().with_enabled(false);
        let mut it = Interp::new(&p);
        let skipped = lib.advance_interp(&mut it, 12_000);
        let (_, _, sk, _) = lib.warmed_machine(&p, &cfg, 8_000, 1_000);
        assert_eq!(skipped, 12_000);
        assert_eq!(sk, 8_000);
        let s = lib.stats();
        assert_eq!(s.arch, TierStats::default(), "disabled: no tier traffic");
        assert_eq!(s.warm, TierStats::default());
    }

    #[test]
    fn clear_drops_state_and_counters() {
        let p = program();
        let lib = lib();
        let mut it = Interp::new(&p);
        lib.advance_interp(&mut it, 5_000);
        lib.clear();
        assert_eq!(lib.stats(), LibraryStats::default());
    }

    /// A fresh scratch store directory per test.
    fn scratch_store(name: &str) -> Arc<sim_store::Store> {
        let dir =
            std::env::temp_dir().join(format!("simtech-ckpt-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(sim_store::Store::open(&dir).expect("scratch store opens"))
    }

    #[test]
    fn warmed_machine_rehydrates_from_store_across_instances() {
        let p = program();
        let cfg = SimConfig::table3(1);
        let store = scratch_store("warm");
        let (x, y) = (20_000, 5_000);

        // First "process": builds the prefix cold and spills it behind.
        let first = lib().with_store(Arc::clone(&store));
        let (mut sim_a, mut st_a, sk_a, w_a) = first.warmed_machine(&p, &cfg, x, y);
        store.flush().unwrap();
        drop(first);

        // Second "process": empty memory, same store — must hydrate, not
        // rebuild, and the measured window must be byte-identical.
        use sim_core::checkpoint::thread_functional_insts;
        let before = thread_functional_insts();
        let second = lib().with_store(Arc::clone(&store));
        let (mut sim_b, mut st_b, sk_b, w_b) = second.warmed_machine(&p, &cfg, x, y);
        assert_eq!(thread_functional_insts() - before, 0, "no re-execution");
        assert_eq!((sk_a, w_a), (sk_b, w_b), "hydrated cost identical");
        assert_eq!(second.stats().warm, TierStats { hits: 1, misses: 0 });
        sim_a.reset_stats();
        sim_b.reset_stats();
        sim_a.run_detailed(&mut st_a, 3_000);
        sim_b.run_detailed(&mut st_b, 3_000);
        assert_eq!(sim_a.stats(), sim_b.stats());

        // Third instance under a *different* config must not accept the
        // stored machine for its own (x, y) key.
        let other_cfg = SimConfig::table3(2);
        let third = lib().with_store(Arc::clone(&store));
        let (_, _, sk_c, _) = third.warmed_machine(&p, &other_cfg, x, y);
        assert_eq!(sk_c, x);
        assert_eq!(third.stats().warm.misses, 1, "foreign config is a miss");
    }

    #[test]
    fn advance_interp_restores_exact_target_from_store() {
        let p = program();
        let store = scratch_store("arch");
        let first = lib().with_store(Arc::clone(&store));
        let mut it = Interp::new(&p);
        first.advance_interp(&mut it, 30_000);
        drop(it);
        store.flush().unwrap();
        drop(first);

        use sim_core::checkpoint::thread_functional_insts;
        let before = thread_functional_insts();
        let second = lib().with_store(Arc::clone(&store));
        let mut warm = Interp::new(&p);
        second.advance_interp(&mut warm, 30_000);
        assert_eq!(
            thread_functional_insts() - before,
            0,
            "exact-target snapshot hydrated from the store"
        );
        let mut cold = Interp::new(&p);
        cold.skip_n(30_000);
        for _ in 0..500 {
            assert_eq!(warm.next_inst(), cold.next_inst());
        }
    }

    #[test]
    fn corrupt_store_entry_falls_back_to_cold_identical_results() {
        let p = program();
        let cfg = SimConfig::table3(1);
        let store = scratch_store("corrupt");
        let (x, y) = (15_000, 3_000);

        let first = lib().with_store(Arc::clone(&store));
        let (mut sim_a, mut st_a, ..) = first.warmed_machine(&p, &cfg, x, y);
        store.flush().unwrap();
        drop(first);

        // Flip one payload byte in every segment on disk.
        let dir = store.dir().to_path_buf();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "seg") {
                let mut bytes = std::fs::read(&path).unwrap();
                let at = bytes.len() - 1;
                bytes[at] ^= 0x40;
                std::fs::write(&path, bytes).unwrap();
            }
        }

        let store2 = Arc::new(sim_store::Store::open(&dir).unwrap());
        let second = lib().with_store(Arc::clone(&store2));
        let (mut sim_b, mut st_b, sk_b, w_b) = second.warmed_machine(&p, &cfg, x, y);
        assert_eq!((sk_b, w_b), (x, y), "cold fallback covers the prefix");
        assert_eq!(
            second.stats().warm,
            TierStats { hits: 0, misses: 1 },
            "a corrupt entry is a miss, never a wrong hit"
        );
        assert!(store2.counters().4 > 0, "corruption was counted");
        sim_a.reset_stats();
        sim_b.reset_stats();
        sim_a.run_detailed(&mut st_a, 2_000);
        sim_b.run_detailed(&mut st_b, 2_000);
        assert_eq!(sim_a.stats(), sim_b.stats(), "numbers unchanged");
    }
}
