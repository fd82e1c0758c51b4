//! The pre-decoded basic-block trace cache.
//!
//! Interpreting a basic block in [`crate::Interp::next_block`] re-derives,
//! for every dynamic instruction, fields that are pure functions of the
//! *static* program: the PC, opcode, register indices, fall-through
//! `next_pc`, and block id. The trace cache decodes each block once into a
//! dense [`DynInst`] template lane plus a patch list naming the instructions
//! whose dynamic fields (effective address, triviality draw) must still be
//! computed per execution. Re-executions then serve the block as one
//! `memcpy` followed by a short patch walk, and fast-forward
//! ([`crate::Interp::skip_n`]) replays *only* the stateful instructions
//! instead of scanning the whole body.
//!
//! The cache is always on and is a host-side accelerator only: every
//! cursor, PRNG draw, and loop counter advances in exactly the order the
//! uncached interpreter advances them, so the emitted stream is
//! bit-identical whether a block is served from the cache, re-decoded after
//! an eviction, or too large for the budget and decoded uncached. The
//! reference is [`sim_core::InstStream::next_inst`], which never consults
//! the cache; the interpreter's eviction-pressure tests and
//! `tests/warm_oracle.rs` compare the cached paths against it. It is also
//! config-independent: templates depend only on the [`Program`], never on a
//! machine configuration.

use crate::program::{MemPattern, Program, Terminator};
use sim_core::isa::{Addr, DynInst, OpClass};

/// Byte budget for one execution's decoded blocks (64 MiB — far above any
/// suite program's static footprint, so eviction only happens when a test
/// squeezes the budget).
const BUDGET_BYTES: usize = 64 << 20;

/// A dynamic field of one body instruction that must be recomputed per
/// execution, in program order ([`DecodedBlock::patches`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Patch {
    /// Index of the instruction within the block body.
    pub idx: u32,
    /// Which field to patch.
    pub kind: PatchKind,
}

/// The dynamic field a [`Patch`] recomputes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PatchKind {
    /// Effective address: advance the region cursor / PRNG exactly as
    /// [`crate::Interp`]'s unbatched emission would.
    Mem {
        /// Region index ([`Program::regions`]).
        region: u16,
        /// Access pattern.
        pattern: MemPattern,
    },
    /// Triviality draw (`trivial_ppm != 0`): one PRNG chance per instance.
    Trivial {
        /// Probability in parts per million.
        ppm: u32,
    },
}

/// One entry of a block's functional-warming lane ([`DecodedBlock::warm_ops`]):
/// the stateful effect of one body instruction, pre-classified at decode time
/// so the warm path touches only the instructions that matter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WarmOp {
    /// Index of the instruction within the block body.
    pub idx: u32,
    /// What warming has to do for it.
    pub kind: WarmKind,
}

/// The warming effect of one body instruction. [`Program::validate`]
/// guarantees bodies hold no control ops and that every memory-class op
/// carries a `MemRef`, so three kinds cover every instruction that is not a
/// pure no-op for warming.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WarmKind {
    /// Memory-class op: draw the effective address (advancing the region
    /// cursor / PRNG exactly as unbatched emission) and warm the data side.
    Data {
        /// Region index ([`Program::regions`]).
        region: u16,
        /// Access pattern.
        pattern: MemPattern,
        /// Whether the access is a store.
        store: bool,
    },
    /// A `MemRef` on a non-memory op: the cursor / PRNG must advance, but
    /// warming observes no data access (mirrors the scalar warm step, which
    /// only touches the hierarchy for memory-class ops).
    Draw {
        /// Region index ([`Program::regions`]).
        region: u16,
        /// Access pattern.
        pattern: MemPattern,
    },
    /// Triviality draw (`trivial_ppm != 0`): one PRNG chance, no warm event.
    Trivial {
        /// Probability in parts per million.
        ppm: u32,
    },
}

/// A block's terminator with its successor PCs pre-resolved, so emitting it
/// never chases `blocks[next].base_pc` through the program structure.
#[derive(Debug, Clone)]
pub(crate) enum DecodedTerm {
    /// See [`Terminator::Loop`].
    Loop {
        body: u32,
        exit: u32,
        loop_slot: u16,
        trips: u32,
        body_pc: Addr,
        exit_pc: Addr,
    },
    /// See [`Terminator::CondProb`].
    CondProb {
        taken_ppm: u32,
        taken: u32,
        not_taken: u32,
        taken_pc: Addr,
        not_taken_pc: Addr,
    },
    /// See [`Terminator::CondPeriodic`].
    CondPeriodic {
        period: u32,
        loop_slot: u16,
        taken: u32,
        not_taken: u32,
        taken_pc: Addr,
        not_taken_pc: Addr,
    },
    /// See [`Terminator::Jump`].
    Jump { target: u32, target_pc: Addr },
    /// See [`Terminator::Call`].
    Call {
        callee: u32,
        ret: u32,
        callee_pc: Addr,
    },
    /// See [`Terminator::Return`] (the target PC comes from the call stack).
    Return,
    /// See [`Terminator::Switch`]: `(block, base_pc)` per target.
    Switch { targets: Box<[(u32, Addr)]> },
    /// See [`Terminator::Halt`].
    Halt,
}

/// One basic block, decoded: a ready-to-copy [`DynInst`] lane for the body,
/// the patch list for its dynamic fields, and the pre-resolved terminator.
#[derive(Debug, Clone)]
pub(crate) struct DecodedBlock {
    /// Fully-formed body instructions with static fields resolved
    /// (`mem_addr = 0`, `trivial = false` until patched).
    pub template: Box<[DynInst]>,
    /// Dynamic-field patches, sorted by instruction index; for one
    /// instruction the address patch precedes the triviality patch (the
    /// PRNG draw order of unbatched emission).
    pub patches: Box<[Patch]>,
    /// Functional-warming lane: the stateful instructions again, but
    /// pre-classified for [`crate::Interp::warm_block`] (store bit resolved,
    /// warming-irrelevant draws separated). Same ordering contract as
    /// `patches`: sorted by index, address draw before triviality draw.
    pub warm_ops: Box<[WarmOp]>,
    /// Terminator with successor PCs resolved.
    pub term: DecodedTerm,
    /// PC of the terminator instruction.
    pub term_pc: Addr,
    /// The block's static id ([`crate::BasicBlock::id`]).
    pub bb_id: u32,
    /// Approximate heap bytes this decoded block occupies.
    pub bytes: usize,
}

impl DecodedBlock {
    fn decode(prog: &Program, block: u32) -> DecodedBlock {
        let blk = &prog.blocks[block as usize];
        let mut template = Vec::with_capacity(blk.insts.len());
        let mut patches = Vec::new();
        let mut warm_ops = Vec::new();
        for (i, si) in blk.insts.iter().enumerate() {
            let pc = blk.base_pc + 4 * i as u64;
            debug_assert!(!si.op.is_control(), "control op in a block body");
            if let Some(m) = si.mem {
                patches.push(Patch {
                    idx: i as u32,
                    kind: PatchKind::Mem {
                        region: m.region,
                        pattern: m.pattern,
                    },
                });
                warm_ops.push(WarmOp {
                    idx: i as u32,
                    kind: if si.op.is_mem() {
                        WarmKind::Data {
                            region: m.region,
                            pattern: m.pattern,
                            store: si.op == OpClass::Store,
                        }
                    } else {
                        WarmKind::Draw {
                            region: m.region,
                            pattern: m.pattern,
                        }
                    },
                });
            }
            if si.trivial_ppm != 0 {
                patches.push(Patch {
                    idx: i as u32,
                    kind: PatchKind::Trivial {
                        ppm: si.trivial_ppm,
                    },
                });
                warm_ops.push(WarmOp {
                    idx: i as u32,
                    kind: WarmKind::Trivial {
                        ppm: si.trivial_ppm,
                    },
                });
            }
            template.push(DynInst {
                pc,
                op: si.op,
                srcs: si.srcs,
                dest: si.dest,
                mem_addr: 0,
                taken: false,
                next_pc: pc + 4,
                trivial: false,
                bb_id: blk.id,
            });
        }
        let pc_of = |b: u32| prog.blocks[b as usize].base_pc;
        let term = match &blk.term {
            Terminator::Loop {
                body,
                exit,
                loop_slot,
                trips,
            } => DecodedTerm::Loop {
                body: *body,
                exit: *exit,
                loop_slot: *loop_slot,
                trips: *trips,
                body_pc: pc_of(*body),
                exit_pc: pc_of(*exit),
            },
            Terminator::CondProb {
                taken_ppm,
                taken,
                not_taken,
            } => DecodedTerm::CondProb {
                taken_ppm: *taken_ppm,
                taken: *taken,
                not_taken: *not_taken,
                taken_pc: pc_of(*taken),
                not_taken_pc: pc_of(*not_taken),
            },
            Terminator::CondPeriodic {
                period,
                loop_slot,
                taken,
                not_taken,
            } => DecodedTerm::CondPeriodic {
                period: *period,
                loop_slot: *loop_slot,
                taken: *taken,
                not_taken: *not_taken,
                taken_pc: pc_of(*taken),
                not_taken_pc: pc_of(*not_taken),
            },
            Terminator::Jump { target } => DecodedTerm::Jump {
                target: *target,
                target_pc: pc_of(*target),
            },
            Terminator::Call { callee, ret } => DecodedTerm::Call {
                callee: *callee,
                ret: *ret,
                callee_pc: pc_of(*callee),
            },
            Terminator::Return => DecodedTerm::Return,
            Terminator::Switch { targets } => DecodedTerm::Switch {
                targets: targets.iter().map(|&t| (t, pc_of(t))).collect(),
            },
            Terminator::Halt => DecodedTerm::Halt,
        };
        let switch_bytes = match &term {
            DecodedTerm::Switch { targets } => std::mem::size_of_val(targets.as_ref()),
            _ => 0,
        };
        let bytes = std::mem::size_of::<DecodedBlock>()
            + template.len() * std::mem::size_of::<DynInst>()
            + patches.len() * std::mem::size_of::<Patch>()
            + warm_ops.len() * std::mem::size_of::<WarmOp>()
            + switch_bytes;
        DecodedBlock {
            template: template.into_boxed_slice(),
            patches: patches.into_boxed_slice(),
            warm_ops: warm_ops.into_boxed_slice(),
            term,
            term_pc: blk.term_pc(),
            bb_id: blk.id,
            bytes,
        }
    }
}

/// Hit/miss/eviction tallies, accumulated locally and flushed to the
/// sim-obs metrics registry in one batch (see [`TraceCache::flush_metrics`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TraceCacheTallies {
    pub hits: u64,
    pub misses: u64,
    pub evicts: u64,
}

/// One execution's pre-decoded block cache (see the module docs).
///
/// Owned exclusively by an [`crate::Interp`], so the hot serve path takes no
/// locks; a cloned interpreter starts with a cold cache (decoding is a
/// once-per-static-block cost, negligible next to re-execution counts).
#[derive(Debug)]
pub(crate) struct TraceCache {
    /// Decoded blocks, indexed by [`crate::BlockId`]; `None` = not cached.
    blocks: Vec<Option<DecodedBlock>>,
    /// Total bytes of cached decoded state.
    bytes: usize,
    /// Byte budget; inserting past it evicts via the clock hand.
    budget: usize,
    /// Round-robin eviction hand over `blocks`.
    clock: usize,
    /// Local tallies (flushed on drop / on demand).
    pub tallies: TraceCacheTallies,
    /// Distribution of miss-path probe costs (decode nanoseconds per
    /// block), recorded only while tracing is enabled: the hit path stays
    /// untimed (it is the thing being protected) and untraced misses pay
    /// the usual single relaxed load. Flushed with the tallies into
    /// `hist.tcache.probe_ns`.
    probe_ns: sim_obs::LocalHist,
}

impl TraceCache {
    /// An empty cache for `prog` with the 64 MiB budget.
    pub fn new(prog: &Program) -> TraceCache {
        TraceCache {
            blocks: vec![None; prog.blocks.len()],
            bytes: 0,
            budget: BUDGET_BYTES,
            clock: 0,
            tallies: TraceCacheTallies::default(),
            probe_ns: sim_obs::LocalHist::new(),
        }
    }

    /// Bytes of decoded state currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The decoded form of `block`, decoding (and possibly evicting) on
    /// miss. Returns `None` when the block alone exceeds the whole budget
    /// — callers fall back to the uncached path, which produces the
    /// identical stream.
    #[inline]
    pub fn get_or_decode(&mut self, prog: &Program, block: u32) -> Option<&DecodedBlock> {
        let slot = block as usize;
        if self.blocks[slot].is_none() {
            self.tallies.misses += 1;
            let timed = sim_obs::trace::enabled().then(std::time::Instant::now);
            let db = DecodedBlock::decode(prog, block);
            if let Some(t) = timed {
                self.probe_ns.record(t.elapsed().as_nanos() as u64);
            }
            if db.bytes > self.budget {
                // Degrades to re-decode, never to wrong numbers.
                return None;
            }
            while self.bytes + db.bytes > self.budget {
                self.evict_one(slot);
            }
            self.bytes += db.bytes;
            self.blocks[slot] = Some(db);
        } else {
            self.tallies.hits += 1;
        }
        self.blocks[slot].as_ref()
    }

    /// Evict one cached block (round-robin), never `keep`.
    fn evict_one(&mut self, keep: usize) {
        debug_assert!(self.bytes > 0, "evicting from an empty cache");
        loop {
            let i = self.clock;
            self.clock = (self.clock + 1) % self.blocks.len();
            if i != keep {
                if let Some(db) = self.blocks[i].take() {
                    self.bytes -= db.bytes;
                    self.tallies.evicts += 1;
                    return;
                }
            }
        }
    }

    /// Test hook: shrink the byte budget (forces eviction on later inserts).
    #[cfg(test)]
    pub(crate) fn set_budget(&mut self, bytes: usize) {
        self.budget = bytes.max(1);
    }

    /// Flush the local tallies into the sim-obs metrics registry
    /// (`pipeline.trace_cache.{hit,miss,evict,bytes}`); called once per
    /// interpreter lifetime so the serve path never touches the registry.
    pub fn flush_metrics(&mut self) {
        let t = &mut self.tallies;
        if t.hits == 0 && t.misses == 0 && t.evicts == 0 {
            return;
        }
        sim_obs::metrics::counter("pipeline.trace_cache.hit").add(t.hits);
        sim_obs::metrics::counter("pipeline.trace_cache.miss").add(t.misses);
        sim_obs::metrics::counter("pipeline.trace_cache.evict").add(t.evicts);
        sim_obs::metrics::gauge("pipeline.trace_cache.bytes").set(self.bytes as u64);
        *t = TraceCacheTallies::default();
        if !self.probe_ns.is_empty() {
            self.probe_ns
                .merge_into(&sim_obs::metrics::histogram("hist.tcache.probe_ns"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog() -> Program {
        crate::benchmark("gzip")
            .unwrap()
            .program_scaled(crate::InputSet::Reference, 0.01)
            .unwrap()
    }

    #[test]
    fn decode_matches_block_shape() {
        let p = prog();
        for (i, blk) in p.blocks.iter().enumerate() {
            let db = DecodedBlock::decode(&p, i as u32);
            assert_eq!(db.template.len(), blk.insts.len());
            assert_eq!(db.term_pc, blk.term_pc());
            let n_mem = blk.insts.iter().filter(|si| si.mem.is_some()).count();
            let n_triv = blk.insts.iter().filter(|si| si.trivial_ppm != 0).count();
            assert_eq!(db.patches.len(), n_mem + n_triv);
            // Patches are sorted by instruction index (stable: mem first).
            for w in db.patches.windows(2) {
                assert!(w[0].idx <= w[1].idx);
                if w[0].idx == w[1].idx {
                    assert!(
                        matches!(w[0].kind, PatchKind::Mem { .. })
                            && matches!(w[1].kind, PatchKind::Trivial { .. }),
                        "same-instruction patches keep PRNG draw order"
                    );
                }
            }
            for (j, inst) in db.template.iter().enumerate() {
                assert_eq!(inst.pc, blk.base_pc + 4 * j as u64);
                assert_eq!(inst.next_pc, inst.pc + 4);
                assert_eq!(inst.op, blk.insts[j].op);
                assert_eq!(inst.bb_id, blk.id);
            }
            // The warm lane mirrors the patch list one-to-one: same indices
            // in the same order, with mem patches split into Data (memory
            // ops) vs Draw (address draw on a non-memory op) and the store
            // bit resolved at decode time.
            assert_eq!(db.warm_ops.len(), db.patches.len());
            for (w, p) in db.warm_ops.iter().zip(db.patches.iter()) {
                assert_eq!(w.idx, p.idx);
                let si = &blk.insts[w.idx as usize];
                match (w.kind, p.kind) {
                    (WarmKind::Data { region, store, .. }, PatchKind::Mem { region: pr, .. }) => {
                        assert_eq!(region, pr);
                        assert!(si.op.is_mem());
                        assert_eq!(store, si.op == OpClass::Store);
                    }
                    (WarmKind::Draw { region, .. }, PatchKind::Mem { region: pr, .. }) => {
                        assert_eq!(region, pr);
                        assert!(!si.op.is_mem(), "Draw is for refs on non-memory ops");
                    }
                    (WarmKind::Trivial { ppm }, PatchKind::Trivial { ppm: pp }) => {
                        assert_eq!(ppm, pp);
                    }
                    (w, p) => panic!("lane/patch kind mismatch: {w:?} vs {p:?}"),
                }
            }
        }
    }

    #[test]
    fn tiny_budget_forces_eviction_and_still_serves() {
        let p = prog();
        let mut tc = TraceCache::new(&p);
        // Enough for roughly one block, so every second distinct block
        // evicts the previous one.
        tc.set_budget(2_048);
        let mut served = 0;
        for round in 0..3 {
            for b in 0..p.blocks.len() as u32 {
                if tc.get_or_decode(&p, b).is_some() {
                    served += 1;
                }
                assert!(tc.bytes <= tc.budget, "budget respected (round {round})");
            }
        }
        assert!(served > 0, "some blocks fit the tiny budget");
        assert!(tc.tallies.evicts > 0, "tiny budget must evict");
    }

    #[test]
    fn warm_rerun_hit_ratio_is_high() {
        // The CI floor: on re-execution every block is already decoded, so
        // hits dominate misses by the blocks' dynamic repetition counts.
        let p = prog();
        let mut tc = TraceCache::new(&p);
        for _ in 0..2 {
            for b in 0..p.blocks.len() as u32 {
                for _ in 0..10 {
                    tc.get_or_decode(&p, b);
                }
            }
        }
        let t = tc.tallies;
        let ratio = t.hits as f64 / (t.hits + t.misses) as f64;
        assert!(ratio >= 0.9, "hit ratio {ratio} below the 90% floor");
    }
}
