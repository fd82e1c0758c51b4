//! The top-level [`Simulator`]: a [`crate::pipeline::Core`] plus the three
//! execution modes every simulation technique is built from.
//!
//! | Mode | State updated | Time modeled | Used by |
//! |------|--------------|--------------|---------|
//! | [`Simulator::skip`] | none (cold) | no | FF X (+ Run Z) |
//! | [`Simulator::warm_functional`] | caches + predictor | no | SMARTS functional warming |
//! | [`Simulator::run_detailed`] | everything | yes | all measurement windows |

use crate::branch::BranchPredictor;
use crate::config::SimConfig;
use crate::isa::{Addr, DynInst, InstStream, OpClass, WarmSink};
use crate::memory::MemoryHierarchy;
use crate::pipeline::Core;
use crate::state::{ByteReader, ByteWriter, StateError};
use crate::stats::SimStats;

/// A complete simulated machine with warm-up/fast-forward support.
///
/// `Clone` produces a deep machine snapshot (caches, predictor, in-flight
/// pipeline state, counters) — the basis of warm-state checkpoints (see
/// [`crate::checkpoint`]).
#[derive(Debug, Clone)]
pub struct Simulator {
    core: Core,
    warm_last_line: u64,
}

/// Control ops the lane path defers per predictor flush. The predictor
/// shares no state with the caches or TLBs, so batching control ops while
/// preserving their relative order is transition-exact (both entry points
/// run the same `process_in` body; see `BranchPredictor::process_batch`).
const CTRL_BATCH: usize = 64;

/// The machine half of the block-warming protocol: applies the lane events
/// a stream's [`InstStream::warm_block`] emits, with the memory/predictor
/// borrows hoisted once per warm call instead of once per instruction.
struct WarmBatchSink<'a> {
    mem: &'a mut MemoryHierarchy,
    bpred: &'a mut BranchPredictor,
    warm_last_line: &'a mut u64,
    line_mask: u64,
    ctrl: Vec<DynInst>,
}

impl WarmBatchSink<'_> {
    #[inline]
    fn flush_ctrl(&mut self) {
        if !self.ctrl.is_empty() {
            self.bpred.process_batch(&self.ctrl);
            self.ctrl.clear();
        }
    }
}

impl WarmSink for WarmBatchSink<'_> {
    #[inline]
    fn warm_line(&mut self, pc: Addr) {
        let line = pc & self.line_mask;
        if line != *self.warm_last_line {
            *self.warm_last_line = line;
            self.mem.warm_inst(pc);
        }
    }

    #[inline]
    fn warm_data(&mut self, addr: Addr, store: bool) {
        self.mem.warm_data(addr, store);
    }

    #[inline]
    fn warm_control(&mut self, inst: DynInst) {
        self.ctrl.push(inst);
        if self.ctrl.len() >= CTRL_BATCH {
            self.flush_ctrl();
        }
    }
}

impl Simulator {
    /// Build a simulator for `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`SimConfig::validate`].
    pub fn new(cfg: SimConfig) -> Self {
        Simulator {
            core: Core::new(cfg),
            warm_last_line: u64::MAX,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        self.core.config()
    }

    /// Fast-forward `n` instructions *without* updating any machine state
    /// (the paper's FF X: "after fast-forwarding, the processor and memory
    /// states are cold"). Returns how many instructions were consumed.
    ///
    /// Generic over the stream so concrete streams (e.g. the `workloads`
    /// interpreter) skip through their [`InstStream::skip_n`] fast path with
    /// no per-instruction virtual dispatch; `&mut dyn InstStream` works too.
    /// Instructions already pulled into the decode buffer logically precede
    /// the stream's next output, so they are skipped (discarded) first —
    /// the machine's logical position stays exactly where an unbuffered
    /// run's would be.
    pub fn skip<S: InstStream + ?Sized>(&mut self, stream: &mut S, n: u64) -> u64 {
        let mut span = sim_obs::trace::span(sim_obs::Phase::FastForward);
        let mut consumed = 0;
        while consumed < n && self.core.pop_unfetched().is_some() {
            consumed += 1;
        }
        consumed += stream.skip_n(n - consumed);
        span.add_insts(consumed);
        consumed
    }

    /// Functionally warm `n` instructions: branch predictor, caches, and
    /// TLBs are updated, but no cycles are simulated (SMARTS's functional
    /// warming). Returns how many instructions were consumed.
    ///
    /// Generic for the same reason as [`Simulator::skip`]: callers holding a
    /// concrete stream get a monomorphized loop with no per-instruction
    /// virtual dispatch. The stream is drained through its
    /// [`InstStream::warm_block`] lanes (whole cached blocks for the
    /// `workloads` interpreter; the default body replays `next_inst`).
    /// Buffered-but-unfetched instructions in the decode buffer drain first,
    /// through the identical warming path — they are exactly the
    /// instructions an unbuffered machine would have pulled from the stream
    /// at this point, so warmed state is batch-independent.
    pub fn warm_functional<S: InstStream + ?Sized>(&mut self, stream: &mut S, n: u64) -> u64 {
        let mut span = sim_obs::trace::span(sim_obs::Phase::FunctionalWarm);
        // Hoist the loop invariants: the line mask is a config read and the
        // memory/bpred handles borrow-check cleanly outside the hot loop.
        let line_mask = !(self.core.config().l1i.line_bytes - 1);
        let mut consumed = 0;
        // Buffered-but-unfetched instructions logically precede the stream's
        // next output; drain them through the scalar path first.
        while consumed < n {
            let Some(inst) = self.core.pop_unfetched() else {
                break;
            };
            consumed += 1;
            self.warm_one(&inst, line_mask);
        }
        let mut refills = 0u64;
        let mut sink = WarmBatchSink {
            mem: &mut self.core.mem,
            bpred: &mut self.core.bpred,
            warm_last_line: &mut self.warm_last_line,
            line_mask,
            ctrl: Vec::with_capacity(CTRL_BATCH),
        };
        // Each call consumes one stream chunk (a cached decoded block, for
        // streams that have them) through the lane protocol.
        while consumed < n {
            let got = stream.warm_block(&mut sink, line_mask, n - consumed);
            if got == 0 {
                break;
            }
            refills += 1;
            consumed += got;
        }
        sink.flush_ctrl();
        self.flush_warm_metrics(refills);
        span.add_insts(consumed);
        consumed
    }

    /// The scalar warming step: one instruction through the I-side filter,
    /// the predictor, and the data hierarchy. The lane path is exactly this
    /// state transition, reordered only where components are disjoint.
    #[inline]
    fn warm_one(&mut self, inst: &DynInst, line_mask: u64) {
        let line = inst.pc & line_mask;
        if line != self.warm_last_line {
            self.warm_last_line = line;
            self.core.mem.warm_inst(inst.pc);
        }
        if inst.op.is_control() {
            let _ = self.core.bpred.process(inst);
        } else if inst.op.is_mem() {
            self.core
                .mem
                .warm_data(inst.mem_addr, inst.op == OpClass::Store);
        }
    }

    /// Drain the host-side warming observability counters into the metrics
    /// registry. Keys are only created when an optimization actually fired.
    fn flush_warm_metrics(&mut self, refills: u64) {
        if refills > 0 {
            sim_obs::metrics::counter("warm.block_refills").add(refills);
        }
        let filter_hits = self.core.mem.take_filter_hits();
        if filter_hits > 0 {
            sim_obs::metrics::counter("warm.filter_hits").add(filter_hits);
        }
        let simd_probes = self.core.mem.take_simd_probes();
        if simd_probes > 0 {
            sim_obs::metrics::counter("warm.simd_probes").add(simd_probes);
        }
    }

    /// Detailed cycle-level simulation of up to `n` further committed
    /// instructions. Returns how many instructions committed.
    ///
    /// Generic so callers holding a concrete stream (the `workloads`
    /// interpreter) get a fully monomorphized hot loop — fetch inlines the
    /// stream's batched [`InstStream::next_block`] with no per-instruction
    /// virtual dispatch.
    pub fn run_detailed<S: InstStream + ?Sized>(&mut self, stream: &mut S, n: u64) -> u64 {
        self.core.run_detailed(stream, n)
    }

    /// Number of instructions sitting in the core's fetch-ahead decode
    /// buffer: pulled from the stream but not yet fetched, logically
    /// *preceding* whatever the stream yields next.
    pub fn unfetched_len(&self) -> usize {
        self.core.unfetched_len()
    }

    /// Remove and return the buffered-but-unfetched instructions (oldest
    /// first). Callers that abandon this machine but keep reading the
    /// stream must carry these to stay position-exact (see
    /// [`Simulator::preload_unfetched`]).
    pub fn take_unfetched(&mut self) -> Vec<DynInst> {
        self.core.take_unfetched()
    }

    /// Seed the decode buffer with instructions that logically precede the
    /// stream's next output (from [`Simulator::take_unfetched`] on another
    /// machine driving the same stream).
    ///
    /// # Panics
    /// Panics if the buffer is not empty.
    pub fn preload_unfetched(&mut self, insts: Vec<DynInst>) {
        self.core.preload_unfetched(insts)
    }

    /// Reset all measurement counters, keeping machine state (the warm-up /
    /// measurement boundary: "tracking the simulation statistics for only
    /// the last Z million").
    pub fn reset_stats(&mut self) {
        self.core.reset_counters();
        self.core.mem.reset_stats();
        self.core.bpred.reset_stats();
    }

    /// Snapshot every statistic for the current measurement window.
    pub fn stats(&self) -> SimStats {
        SimStats {
            core: *self.core.counters(),
            branch: *self.core.bpred.stats(),
            l1i: *self.core.mem.l1i.stats(),
            l1d: *self.core.mem.l1d.stats(),
            l2: *self.core.mem.l2.stats(),
            mem: *self.core.mem.stats(),
            dtlb: self.core.mem.dtlb.counts(),
            itlb: self.core.mem.itlb.counts(),
        }
    }

    /// Approximate in-memory size of a snapshot (clone) of this machine, in
    /// bytes. Checkpoint libraries use it to budget stored warm state.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.core.footprint_bytes()
    }

    /// Direct access to the core (warming experiments, tests).
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Mutable access to the core (advanced scenarios, tests).
    pub fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    /// Serialize every piece of dynamic machine state (caches, predictor,
    /// in-flight pipeline, counters) to a deterministic byte payload.
    ///
    /// Two machines that would behave identically encode to identical bytes,
    /// so payloads are safe to content-address. Decode with
    /// [`Simulator::load_state`] under the *same* configuration.
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.warm_last_line);
        self.core.save_state(&mut w);
        w.into_bytes()
    }

    /// Rebuild a machine from [`Simulator::save_state`] bytes under `cfg`.
    ///
    /// `cfg` must be the configuration the state was saved under: geometry is
    /// reconstructed from `cfg` and payload contents are validated against
    /// it, so a mismatched or corrupted payload returns an error instead of a
    /// subtly wrong machine.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`SimConfig::validate`] (same contract as
    /// [`Simulator::new`]).
    pub fn load_state(cfg: SimConfig, bytes: &[u8]) -> Result<Simulator, StateError> {
        let mut r = ByteReader::new(bytes);
        let warm_last_line = r.get_u64()?;
        let core = Core::load_state(cfg, &mut r)?;
        r.finish()?;
        Ok(Simulator {
            core,
            warm_last_line,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::DynInst;

    /// Loads over a 64-line region with a small code loop.
    fn loads(n: usize) -> Vec<DynInst> {
        (0..n)
            .map(|i| {
                DynInst::int_alu(0x1000 + 4 * (i as u64 % 32))
                    .with_op(OpClass::Load)
                    .with_dest(4)
                    .with_mem_addr(0x100_000 + (i as u64 % 64) * 64)
            })
            .collect()
    }

    #[test]
    fn skip_consumes_but_leaves_state_cold() {
        let mut sim = Simulator::new(SimConfig::default());
        let insts = loads(1_000);
        let mut s = insts.clone().into_iter();
        assert_eq!(sim.skip(&mut s, 500), 500);
        // Nothing was warmed.
        assert_eq!(sim.stats().l1d.accesses, 0);
        assert!(!sim.core().mem.l1d.probe(0x100_000));
    }

    #[test]
    fn warm_functional_fills_caches_without_cycles() {
        let mut sim = Simulator::new(SimConfig::default());
        let insts = loads(1_000);
        let mut s = insts.into_iter();
        assert_eq!(sim.warm_functional(&mut s, 1_000), 1_000);
        assert_eq!(sim.stats().core.cycles, 0, "warming costs no cycles");
        assert!(sim.core().mem.l1d.probe(0x100_000), "cache state is warm");
    }

    #[test]
    fn warmed_measurement_has_higher_hit_rate_than_cold() {
        let run = |warm: bool| {
            let mut sim = Simulator::new(SimConfig::default());
            let insts = loads(4_000);
            let mut s = insts.into_iter();
            if warm {
                sim.warm_functional(&mut s, 2_000);
            } else {
                sim.skip(&mut s, 2_000);
            }
            sim.reset_stats();
            sim.run_detailed(&mut s, 2_000);
            sim.stats().l1d.hit_rate()
        };
        let cold = run(false);
        let warm = run(true);
        assert!(
            warm > cold,
            "functional warming should raise the L1D hit rate ({warm} vs {cold})"
        );
        assert!(warm > 0.97, "64-line working set should be fully warm");
    }

    #[test]
    fn reset_stats_defines_measurement_boundary() {
        let mut sim = Simulator::new(SimConfig::default());
        let insts = loads(2_000);
        let mut s = insts.into_iter();
        sim.run_detailed(&mut s, 1_000);
        let warmup_stats = sim.stats();
        assert!(warmup_stats.core.committed >= 1_000);
        sim.reset_stats();
        sim.run_detailed(&mut s, 500);
        let measured = sim.stats();
        assert!(measured.core.committed >= 500);
        assert!(measured.core.committed < 1_000);
        assert!(
            measured.l1d.hit_rate() > warmup_stats.l1d.hit_rate(),
            "second window runs on a warm cache"
        );
    }

    #[test]
    fn stream_end_terminates_detailed_run() {
        let mut sim = Simulator::new(SimConfig::default());
        let insts = loads(100);
        let mut s = insts.into_iter();
        let committed = sim.run_detailed(&mut s, 10_000);
        assert_eq!(committed, 100);
    }

    #[test]
    fn skip_reports_short_streams() {
        let mut sim = Simulator::new(SimConfig::default());
        let insts = loads(10);
        let mut s = insts.into_iter();
        assert_eq!(sim.skip(&mut s, 100), 10);
    }

    /// A mixed stream (loads, stores, branches, long arithmetic) that keeps
    /// every structure busy, so a mid-stream snapshot has non-trivial
    /// in-flight state.
    fn mixed(n: usize) -> Vec<DynInst> {
        (0..n)
            .map(|i| {
                let pc = 0x1000 + 4 * (i as u64 % 128);
                match i % 7 {
                    0 => DynInst::int_alu(pc)
                        .with_op(OpClass::Load)
                        .with_srcs(2, 0)
                        .with_dest(4)
                        .with_mem_addr(0x200_000 + (i as u64 % 512) * 8),
                    1 => DynInst::int_alu(pc)
                        .with_op(OpClass::Store)
                        .with_srcs(4, 5)
                        .with_mem_addr(0x300_000 + (i as u64 % 256) * 8),
                    2 => DynInst::int_alu(pc)
                        .with_op(OpClass::Branch)
                        .with_srcs(4, 0)
                        .with_branch(i % 3 == 0, pc + if i % 3 == 0 { 64 } else { 4 }),
                    3 => DynInst::int_alu(pc)
                        .with_op(OpClass::IntMult)
                        .with_srcs(4, 6)
                        .with_dest(6),
                    _ => DynInst::int_alu(pc).with_srcs(6, 4).with_dest(5),
                }
                .with_bb((i % 16) as u32)
            })
            .collect()
    }

    #[test]
    fn save_load_roundtrips_to_identical_bytes() {
        let mut sim = Simulator::new(SimConfig::default());
        let insts = mixed(5_000);
        let mut s = insts.into_iter();
        sim.warm_functional(&mut s, 1_000);
        // Stop mid-stream so the ROB/IFQ/LSQ/completion heap are populated.
        sim.run_detailed(&mut s, 1_500);
        let bytes = sim.save_state();
        let restored = Simulator::load_state(SimConfig::default(), &bytes).unwrap();
        assert_eq!(
            restored.save_state(),
            bytes,
            "load followed by save must reproduce the payload byte-for-byte"
        );
    }

    #[test]
    fn restored_machine_simulates_identically() {
        let insts = mixed(6_000);
        let mut sim = Simulator::new(SimConfig::table3(2));
        let mut s = insts.clone().into_iter().take(2_000);
        sim.run_detailed(&mut s, u64::MAX);
        let bytes = sim.save_state();
        let mut restored = Simulator::load_state(SimConfig::table3(2), &bytes).unwrap();
        // Drive the original and the restored machine over the same tail.
        let mut tail_a = insts.clone().into_iter().skip(2_000);
        let mut tail_b = insts.into_iter().skip(2_000);
        sim.run_detailed(&mut tail_a, u64::MAX);
        restored.run_detailed(&mut tail_b, u64::MAX);
        assert_eq!(sim.stats(), restored.stats());
        assert_eq!(sim.save_state(), restored.save_state());
    }

    #[test]
    fn restore_mid_line_preserves_warm_filter_decisions() {
        // Stop warming mid-I-line so both the I-side filter
        // (`warm_last_line`) and the D-side line-skip filter are armed,
        // snapshot, and restore. The restored machine must make the same
        // filter decisions as the uninterrupted one — and *different*
        // decisions from a cold machine, proving the filter state actually
        // traveled through the payload instead of being silently reset.
        let insts = mixed(4_000);
        let mut a = Simulator::new(SimConfig::default());
        let mut sa = insts.clone().into_iter();
        a.warm_functional(&mut sa, 1_003);
        let bytes = a.save_state();
        let mut b = Simulator::load_state(SimConfig::default(), &bytes).unwrap();
        let mut sb = insts.clone().into_iter().skip(1_003);
        let mut cold = Simulator::new(SimConfig::default());
        let mut sc = insts.clone().into_iter().skip(1_003);
        a.warm_functional(&mut sa, 1_000);
        b.warm_functional(&mut sb, 1_000);
        cold.warm_functional(&mut sc, 1_000);
        assert_eq!(a.stats(), b.stats(), "restored warming diverged");
        assert_eq!(a.save_state(), b.save_state(), "state bytes diverged");
        assert_ne!(
            a.stats().l1i,
            cold.stats().l1i,
            "a cold machine must behave differently from a restored one"
        );
    }

    #[test]
    fn load_state_rejects_truncated_and_mismatched_payloads() {
        let mut sim = Simulator::new(SimConfig::default());
        let insts = mixed(1_000);
        let mut s = insts.into_iter();
        sim.run_detailed(&mut s, 500);
        let bytes = sim.save_state();
        assert!(Simulator::load_state(SimConfig::default(), &bytes[..bytes.len() - 3]).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(Simulator::load_state(SimConfig::default(), &longer).is_err());
        // A different geometry must be rejected, not silently misinterpreted.
        let mut other = SimConfig::default();
        other.l1d.size_bytes *= 2;
        assert!(Simulator::load_state(other, &bytes).is_err());
    }
}
