//! The functional interpreter: executes a [`Program`] and produces the
//! deterministic dynamic instruction stream consumed by the timing model.
//!
//! This is the "functional simulator" half of an execution-driven simulator:
//! fast-forwarding, functional warming, BBV profiling, and detailed timing
//! all pull from the same stream, so every simulation technique observes the
//! same execution — exactly as re-running the same binary does in the paper.

use crate::program::{BlockId, MemPattern, Program, Region, Terminator};
use crate::rng::SplitMix64;
use crate::tcache::{DecodedTerm, PatchKind, TraceCache, WarmKind};
use sim_core::isa::{Addr, DynInst, InstStream, OpClass, WarmSink};
use sim_core::state::{ByteReader, ByteWriter, StateError};

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RegionCursor {
    stride: u64,
    chase: u64,
}

/// Control-flow transition produced by [`Interp::term_step`].
enum TermStep {
    /// Emit `inst` and continue at block `next`.
    Goto { next: BlockId, inst: DynInst },
    /// The program halted (nothing emitted).
    Halt,
}

/// Interpreter work is reported to the process-wide functional-execution
/// counter ([`sim_core::checkpoint::record_functional`]) in batches of this
/// many instructions, so the hot path pays one atomic add per few thousand
/// instructions.
const WORK_FLUSH: u64 = 8_192;

/// An owned, program-independent snapshot of an [`Interp`]'s execution
/// state: the architectural half of a checkpoint.
///
/// The state at stream position *p* is a pure function of the program and
/// *p*, so one snapshot is valid for every machine configuration. Restoring
/// it into an interpreter over the same program reproduces the remainder of
/// the dynamic stream bit-for-bit (see [`Interp::restore`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpState {
    prog_fp: u64,
    block: BlockId,
    inst_idx: usize,
    done: bool,
    loop_counters: Vec<u32>,
    call_stack: Vec<BlockId>,
    cursors: Vec<RegionCursor>,
    rng: SplitMix64,
    emitted: u64,
}

impl InterpState {
    /// Stream position (instructions emitted) at snapshot time.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Whether the program had halted at snapshot time.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Fingerprint of the program this state belongs to
    /// ([`Program::fingerprint`]).
    pub fn program_fingerprint(&self) -> u64 {
        self.prog_fp
    }

    /// Approximate in-memory size of this snapshot, in bytes (checkpoint
    /// libraries budget stored state with it).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + std::mem::size_of_val(self.loop_counters.as_slice())
            + std::mem::size_of_val(self.call_stack.as_slice())
            + std::mem::size_of_val(self.cursors.as_slice())
    }

    /// Serialize this snapshot to a deterministic byte payload (for
    /// persistent checkpoint stores). Equal states encode to equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.prog_fp);
        w.put_u32(self.block);
        w.put_usize(self.inst_idx);
        w.put_bool(self.done);
        w.put_usize(self.loop_counters.len());
        for &c in &self.loop_counters {
            w.put_u32(c);
        }
        w.put_usize(self.call_stack.len());
        for &b in &self.call_stack {
            w.put_u32(b);
        }
        w.put_usize(self.cursors.len());
        for c in &self.cursors {
            w.put_u64(c.stride);
            w.put_u64(c.chase);
        }
        w.put_u64(self.rng.state());
        w.put_u64(self.emitted);
        w.into_bytes()
    }

    /// Decode a snapshot written by [`InterpState::to_bytes`].
    ///
    /// Structural errors (truncation, trailing bytes) are reported here;
    /// whether the state belongs to a given program is still checked by
    /// [`Interp::restore`] via the embedded program fingerprint.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StateError> {
        let mut r = ByteReader::new(bytes);
        let prog_fp = r.get_u64()?;
        let block = r.get_u32()?;
        let inst_idx = r.get_usize()?;
        let done = r.get_bool()?;
        let n = r.get_usize()?;
        let mut loop_counters = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            loop_counters.push(r.get_u32()?);
        }
        let n = r.get_usize()?;
        let mut call_stack = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            call_stack.push(r.get_u32()?);
        }
        let n = r.get_usize()?;
        let mut cursors = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            cursors.push(RegionCursor {
                stride: r.get_u64()?,
                chase: r.get_u64()?,
            });
        }
        let rng = SplitMix64::new(r.get_u64()?);
        let emitted = r.get_u64()?;
        r.finish()?;
        Ok(InterpState {
            prog_fp,
            block,
            inst_idx,
            done,
            loop_counters,
            call_stack,
            cursors,
            rng,
            emitted,
        })
    }
}

/// An execution of a [`Program`].
///
/// Cloning an `Interp` snapshots the execution state (used by techniques
/// that need checkpoints); [`Interp::snapshot`] captures it as an owned,
/// lifetime-free [`InterpState`]. A fresh interpreter always reproduces the
/// same stream for the same program.
#[derive(Debug)]
pub struct Interp<'p> {
    prog: &'p Program,
    block: BlockId,
    inst_idx: usize,
    done: bool,
    loop_counters: Vec<u32>,
    call_stack: Vec<BlockId>,
    cursors: Vec<RegionCursor>,
    rng: SplitMix64,
    emitted: u64,
    /// Freshly interpreted instructions not yet flushed to the global
    /// functional-execution counter. Never cloned (the clone did not do the
    /// work) and flushed on drop.
    fresh_work: u64,
    /// Pre-decoded basic-block cache serving `next_block`/`skip_n`. Pure
    /// host-side state: never part of [`InterpState`], never cloned (a clone
    /// re-decodes lazily), and bit-transparent to the emitted stream.
    tcache: TraceCache,
}

impl Clone for Interp<'_> {
    fn clone(&self) -> Self {
        Interp {
            prog: self.prog,
            block: self.block,
            inst_idx: self.inst_idx,
            done: self.done,
            loop_counters: self.loop_counters.clone(),
            call_stack: self.call_stack.clone(),
            cursors: self.cursors.clone(),
            rng: self.rng,
            emitted: self.emitted,
            fresh_work: 0,
            tcache: TraceCache::new(self.prog),
        }
    }
}

impl Drop for Interp<'_> {
    fn drop(&mut self) {
        self.tcache.flush_metrics();
        sim_core::checkpoint::record_functional(self.fresh_work);
    }
}

impl<'p> Interp<'p> {
    /// Start a fresh execution of `prog`.
    ///
    /// # Panics
    /// Panics if the program fails [`Program::validate`] (in debug builds).
    pub fn new(prog: &'p Program) -> Self {
        debug_assert!(prog.validate().is_ok(), "invalid program");
        Interp {
            prog,
            block: prog.entry,
            inst_idx: 0,
            done: prog.blocks.is_empty(),
            loop_counters: vec![0; prog.loop_slots as usize],
            call_stack: Vec::with_capacity(16),
            cursors: vec![RegionCursor::default(); prog.regions.len()],
            rng: SplitMix64::new(prog.seed),
            emitted: 0,
            fresh_work: 0,
            tcache: TraceCache::new(prog),
        }
    }

    /// Resume an execution of `prog` from a snapshot — the restore half of
    /// an architectural checkpoint. No instructions are re-interpreted.
    ///
    /// # Panics
    /// Panics if `state` was not captured from an execution of `prog`
    /// (fingerprint mismatch).
    pub fn resume(prog: &'p Program, state: &InterpState) -> Self {
        let mut it = Interp::new(prog);
        it.restore(state);
        it
    }

    /// Capture the execution state as an owned [`InterpState`].
    pub fn snapshot(&self) -> InterpState {
        InterpState {
            prog_fp: self.prog.fingerprint(),
            block: self.block,
            inst_idx: self.inst_idx,
            done: self.done,
            loop_counters: self.loop_counters.clone(),
            call_stack: self.call_stack.clone(),
            cursors: self.cursors.clone(),
            rng: self.rng,
            emitted: self.emitted,
        }
    }

    /// Return to a previously captured state. The remainder of the stream
    /// is bit-identical to an interpreter that executed to that position —
    /// nothing is re-interpreted (this is what makes fast-forward reuse
    /// free).
    ///
    /// # Panics
    /// Panics if `state` belongs to a different program.
    pub fn restore(&mut self, state: &InterpState) {
        assert_eq!(
            state.prog_fp,
            self.prog.fingerprint(),
            "checkpoint belongs to a different program"
        );
        self.block = state.block;
        self.inst_idx = state.inst_idx;
        self.done = state.done;
        self.loop_counters.clone_from(&state.loop_counters);
        self.call_stack.clone_from(&state.call_stack);
        self.cursors.clone_from(&state.cursors);
        self.rng = state.rng;
        self.emitted = state.emitted;
        // fresh_work is untouched: restoring does not undo work already
        // performed (and reported) by this interpreter.
    }

    /// Count `n` freshly interpreted instructions toward the global
    /// functional-execution counter, batched.
    #[inline]
    fn note_work(&mut self, n: u64) {
        self.fresh_work += n;
        if self.fresh_work >= WORK_FLUSH {
            sim_core::checkpoint::record_functional(self.fresh_work);
            self.fresh_work = 0;
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.prog
    }

    /// Dynamic instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Whether the program has halted.
    pub fn is_done(&self) -> bool {
        self.done
    }

    #[inline]
    fn block_pc(&self, b: BlockId) -> Addr {
        self.prog.blocks[b as usize].base_pc
    }

    /// Live bytes held by this interpreter's trace cache (counted into
    /// checkpoint footprint budgets alongside [`InterpState::approx_bytes`]).
    pub fn cache_bytes(&self) -> usize {
        self.tcache.bytes()
    }

    /// Test hook: shrink the trace-cache budget to force eviction pressure.
    #[cfg(test)]
    pub(crate) fn tcache_set_budget(&mut self, bytes: usize) {
        self.tcache.set_budget(bytes);
    }

    #[inline]
    fn mem_addr(&mut self, region: u16, pattern: MemPattern) -> Addr {
        Self::mem_addr_in(
            &self.prog.regions,
            &mut self.cursors,
            &mut self.rng,
            region,
            pattern,
        )
    }

    /// `a % m` without the hardware divide when `m` is a power of two —
    /// which every suite region size is, so the address generators below
    /// stay division-free on the warm/detailed hot paths. The mask is exact
    /// (same value as `%`), and a non-pow2 `m` falls back to the real thing.
    #[inline]
    fn fast_mod(a: u64, m: u64) -> u64 {
        if m.is_power_of_two() {
            a & (m - 1)
        } else {
            a % m
        }
    }

    /// [`Interp::mem_addr`] with the borrows spelled out, so the trace-cache
    /// serve path can advance cursors/PRNG while a decoded block is borrowed
    /// from `self.tcache`.
    #[inline]
    fn mem_addr_in(
        regions: &[Region],
        cursors: &mut [RegionCursor],
        rng: &mut SplitMix64,
        region: u16,
        pattern: MemPattern,
    ) -> Addr {
        let r = &regions[region as usize];
        let cur = &mut cursors[region as usize];
        match pattern {
            MemPattern::Stride { step } => {
                let a = r.base + cur.stride;
                cur.stride = Self::fast_mod(cur.stride + step, r.size);
                a
            }
            MemPattern::Random => {
                // 8-byte aligned uniform address.
                r.base + (rng.below(r.size) & !7)
            }
            MemPattern::Chase => {
                // Deterministic line-granular random walk: the next node is a
                // function of the current one (an LCG over line indices).
                let lines = (r.size / 64).max(1);
                let idx = cur.chase;
                cur.chase = Self::fast_mod(
                    idx.wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407),
                    lines,
                );
                r.base + idx * 64
            }
            MemPattern::Fixed { offset } => r.base + Self::fast_mod(offset, r.size),
        }
    }

    /// Advance control flow past a pre-decoded terminator: the trace-cache
    /// counterpart of [`Interp::emit_terminator`], mutating exactly the same
    /// state in the same order (loop counters, call stack, PRNG draws) so the
    /// two paths are bit-interchangeable. The caller applies the returned
    /// transition to `self.block`/`self.inst_idx`/`self.done`.
    #[inline]
    fn term_step(
        prog: &Program,
        term: &DecodedTerm,
        pc: Addr,
        bb_id: u32,
        loop_counters: &mut [u32],
        call_stack: &mut Vec<BlockId>,
        rng: &mut SplitMix64,
    ) -> TermStep {
        let (op, taken, next, next_pc) = match term {
            DecodedTerm::Loop {
                body,
                exit,
                loop_slot,
                trips,
                body_pc,
                exit_pc,
            } => {
                let c = &mut loop_counters[*loop_slot as usize];
                *c += 1;
                if *c < *trips {
                    (OpClass::Branch, true, *body, *body_pc)
                } else {
                    *c = 0;
                    (OpClass::Branch, false, *exit, *exit_pc)
                }
            }
            DecodedTerm::CondProb {
                taken_ppm,
                taken,
                not_taken,
                taken_pc,
                not_taken_pc,
            } => {
                if rng.chance_ppm(*taken_ppm) {
                    (OpClass::Branch, true, *taken, *taken_pc)
                } else {
                    (OpClass::Branch, false, *not_taken, *not_taken_pc)
                }
            }
            DecodedTerm::CondPeriodic {
                period,
                loop_slot,
                taken,
                not_taken,
                taken_pc,
                not_taken_pc,
            } => {
                let c = &mut loop_counters[*loop_slot as usize];
                *c += 1;
                if (*c).is_multiple_of(*period) {
                    (OpClass::Branch, true, *taken, *taken_pc)
                } else {
                    (OpClass::Branch, false, *not_taken, *not_taken_pc)
                }
            }
            DecodedTerm::Jump { target, target_pc } => (OpClass::Jump, true, *target, *target_pc),
            DecodedTerm::Call {
                callee,
                ret,
                callee_pc,
            } => {
                call_stack.push(*ret);
                (OpClass::Call, true, *callee, *callee_pc)
            }
            DecodedTerm::Return => match call_stack.pop() {
                Some(next) => (
                    OpClass::Return,
                    true,
                    next,
                    prog.blocks[next as usize].base_pc,
                ),
                // Return with an empty stack ends the program.
                None => return TermStep::Halt,
            },
            DecodedTerm::Switch { targets } => {
                let (next, tpc) = targets[rng.below(targets.len() as u64) as usize];
                (OpClass::IndirectJump, true, next, tpc)
            }
            DecodedTerm::Halt => return TermStep::Halt,
        };
        TermStep::Goto {
            next,
            inst: DynInst {
                pc,
                op,
                srcs: [0, 0],
                dest: 0,
                mem_addr: 0,
                taken,
                next_pc,
                trivial: false,
                bb_id,
            },
        }
    }

    /// Emit the terminator of the current block and advance control flow.
    fn emit_terminator(&mut self) -> Option<DynInst> {
        let blk = &self.prog.blocks[self.block as usize];
        let pc = blk.term_pc();
        let bb_id = blk.id;
        let (inst, next_block) = match &blk.term {
            Terminator::Loop {
                body,
                exit,
                loop_slot,
                trips,
            } => {
                let c = &mut self.loop_counters[*loop_slot as usize];
                *c += 1;
                let (taken, next) = if *c < *trips {
                    (true, *body)
                } else {
                    *c = 0;
                    (false, *exit)
                };
                let target = self.block_pc(next);
                (
                    DynInst {
                        pc,
                        op: OpClass::Branch,
                        srcs: [0, 0],
                        dest: 0,
                        mem_addr: 0,
                        taken,
                        next_pc: target,
                        trivial: false,
                        bb_id,
                    },
                    next,
                )
            }
            Terminator::CondProb {
                taken_ppm,
                taken,
                not_taken,
            } => {
                let t = self.rng.chance_ppm(*taken_ppm);
                let next = if t { *taken } else { *not_taken };
                let target = self.block_pc(next);
                (
                    DynInst {
                        pc,
                        op: OpClass::Branch,
                        srcs: [0, 0],
                        dest: 0,
                        mem_addr: 0,
                        taken: t,
                        next_pc: target,
                        trivial: false,
                        bb_id,
                    },
                    next,
                )
            }
            Terminator::CondPeriodic {
                period,
                loop_slot,
                taken,
                not_taken,
            } => {
                let c = &mut self.loop_counters[*loop_slot as usize];
                *c += 1;
                let t = (*c).is_multiple_of(*period);
                let next = if t { *taken } else { *not_taken };
                let target = self.block_pc(next);
                (
                    DynInst {
                        pc,
                        op: OpClass::Branch,
                        srcs: [0, 0],
                        dest: 0,
                        mem_addr: 0,
                        taken: t,
                        next_pc: target,
                        trivial: false,
                        bb_id,
                    },
                    next,
                )
            }
            Terminator::Jump { target } => {
                let next = *target;
                let tpc = self.block_pc(next);
                (
                    DynInst {
                        pc,
                        op: OpClass::Jump,
                        srcs: [0, 0],
                        dest: 0,
                        mem_addr: 0,
                        taken: true,
                        next_pc: tpc,
                        trivial: false,
                        bb_id,
                    },
                    next,
                )
            }
            Terminator::Call { callee, ret } => {
                self.call_stack.push(*ret);
                let next = *callee;
                let tpc = self.block_pc(next);
                (
                    DynInst {
                        pc,
                        op: OpClass::Call,
                        srcs: [0, 0],
                        dest: 0,
                        mem_addr: 0,
                        taken: true,
                        next_pc: tpc,
                        trivial: false,
                        bb_id,
                    },
                    next,
                )
            }
            Terminator::Return => match self.call_stack.pop() {
                Some(next) => {
                    let tpc = self.block_pc(next);
                    (
                        DynInst {
                            pc,
                            op: OpClass::Return,
                            srcs: [0, 0],
                            dest: 0,
                            mem_addr: 0,
                            taken: true,
                            next_pc: tpc,
                            trivial: false,
                            bb_id,
                        },
                        next,
                    )
                }
                None => {
                    // Return with an empty stack ends the program.
                    self.done = true;
                    return None;
                }
            },
            Terminator::Switch { targets } => {
                let pick = self.rng.below(targets.len() as u64) as usize;
                let next = targets[pick];
                let tpc = self.block_pc(next);
                (
                    DynInst {
                        pc,
                        op: OpClass::IndirectJump,
                        srcs: [0, 0],
                        dest: 0,
                        mem_addr: 0,
                        taken: true,
                        next_pc: tpc,
                        trivial: false,
                        bb_id,
                    },
                    next,
                )
            }
            Terminator::Halt => {
                self.done = true;
                return None;
            }
        };
        self.block = next_block;
        self.inst_idx = 0;
        Some(inst)
    }
}

impl InstStream for Interp<'_> {
    fn next_inst(&mut self) -> Option<DynInst> {
        if self.done {
            return None;
        }
        let blk = &self.prog.blocks[self.block as usize];
        let inst = if self.inst_idx < blk.insts.len() {
            let si = blk.insts[self.inst_idx];
            let pc = blk.base_pc + 4 * self.inst_idx as u64;
            self.inst_idx += 1;
            let mem_addr = match si.mem {
                Some(m) => self.mem_addr(m.region, m.pattern),
                None => 0,
            };
            let trivial = si.trivial_ppm != 0 && self.rng.chance_ppm(si.trivial_ppm);
            Some(DynInst {
                pc,
                op: si.op,
                srcs: si.srcs,
                dest: si.dest,
                mem_addr,
                taken: false,
                next_pc: pc + 4,
                trivial,
                bb_id: blk.id,
            })
        } else {
            self.emit_terminator()
        };
        if inst.is_some() {
            self.emitted += 1;
            self.note_work(1);
        }
        inst
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.prog.dynamic_len_estimate)
    }

    /// Fast-forward whole basic blocks at a time.
    ///
    /// Must advance *all* interpreter state (region cursors, the PRNG, loop
    /// counters, the call stack, `emitted`) exactly as `n` calls to
    /// [`InstStream::next_inst`] would, so that the remainder of the stream
    /// is bit-identical — only the [`DynInst`] construction and per-call
    /// dispatch are skipped.
    fn skip_n(&mut self, n: u64) -> u64 {
        let prog = self.prog;
        let mut consumed = 0u64;
        while consumed < n && !self.done {
            // Trace-cache fast path: replay only the patch list (the
            // stateful instructions) instead of scanning the whole body.
            if let Some(db) = self.tcache.get_or_decode(prog, self.block) {
                let start = self.inst_idx;
                let take = ((db.template.len() - start) as u64).min(n - consumed) as usize;
                let end = start + take;
                if take > 0 {
                    let lo = if start == 0 {
                        0
                    } else {
                        db.patches.partition_point(|p| (p.idx as usize) < start)
                    };
                    for p in &db.patches[lo..] {
                        if p.idx as usize >= end {
                            break;
                        }
                        // Replay only the stateful parts of emission.
                        match p.kind {
                            PatchKind::Mem { region, pattern } => {
                                let _ = Self::mem_addr_in(
                                    &prog.regions,
                                    &mut self.cursors,
                                    &mut self.rng,
                                    region,
                                    pattern,
                                );
                            }
                            PatchKind::Trivial { ppm } => {
                                let _ = self.rng.chance_ppm(ppm);
                            }
                        }
                    }
                    self.inst_idx = end;
                    consumed += take as u64;
                }
                if consumed < n && end == db.template.len() {
                    match Self::term_step(
                        prog,
                        &db.term,
                        db.term_pc,
                        db.bb_id,
                        &mut self.loop_counters,
                        &mut self.call_stack,
                        &mut self.rng,
                    ) {
                        TermStep::Goto { next, .. } => {
                            self.block = next;
                            self.inst_idx = 0;
                            consumed += 1;
                        }
                        TermStep::Halt => self.done = true,
                    }
                }
                continue;
            }
            let blk = &prog.blocks[self.block as usize];
            let body_left = (blk.insts.len() - self.inst_idx) as u64;
            let take = body_left.min(n - consumed);
            if take > 0 {
                let start = self.inst_idx;
                for si in &blk.insts[start..start + take as usize] {
                    // Replay only the stateful parts of instruction emission.
                    if let Some(m) = si.mem {
                        let _ = self.mem_addr(m.region, m.pattern);
                    }
                    if si.trivial_ppm != 0 {
                        let _ = self.rng.chance_ppm(si.trivial_ppm);
                    }
                }
                self.inst_idx += take as usize;
                consumed += take;
            }
            if consumed == n {
                break;
            }
            // Block body exhausted: consume the terminator (Halt or a bare
            // Return emit nothing and end the program).
            if self.emit_terminator().is_some() {
                consumed += 1;
            }
        }
        self.emitted += consumed;
        self.note_work(consumed);
        consumed
    }

    /// Batched emission for the pipeline's fetch-ahead decode buffer: fill
    /// whole basic-block bodies at a time, paying block/terminator dispatch
    /// once per block instead of once per instruction.
    ///
    /// Produces exactly the instructions `max` calls to
    /// [`InstStream::next_inst`] would, in the same order, leaving all
    /// interpreter state (cursors, PRNG, loop counters, call stack,
    /// `emitted`) identical.
    fn next_block(&mut self, out: &mut Vec<DynInst>, max: usize) -> usize {
        let prog = self.prog;
        let mut got = 0usize;
        while got < max && !self.done {
            // Trace-cache fast path: the body is one array copy plus a short
            // patch walk; the terminator comes pre-resolved. Patches are
            // applied in instruction order (address before triviality), so
            // the PRNG/cursor state advances exactly as unbatched emission.
            if let Some(db) = self.tcache.get_or_decode(prog, self.block) {
                let start = self.inst_idx;
                let take = (db.template.len() - start).min(max - got);
                let end = start + take;
                if take > 0 {
                    let base = out.len();
                    out.extend_from_slice(&db.template[start..end]);
                    let lo = if start == 0 {
                        0
                    } else {
                        db.patches.partition_point(|p| (p.idx as usize) < start)
                    };
                    for p in &db.patches[lo..] {
                        let idx = p.idx as usize;
                        if idx >= end {
                            break;
                        }
                        let slot = &mut out[base + idx - start];
                        match p.kind {
                            PatchKind::Mem { region, pattern } => {
                                slot.mem_addr = Self::mem_addr_in(
                                    &prog.regions,
                                    &mut self.cursors,
                                    &mut self.rng,
                                    region,
                                    pattern,
                                );
                            }
                            PatchKind::Trivial { ppm } => {
                                slot.trivial = self.rng.chance_ppm(ppm);
                            }
                        }
                    }
                    self.inst_idx = end;
                    got += take;
                }
                if got < max && end == db.template.len() {
                    match Self::term_step(
                        prog,
                        &db.term,
                        db.term_pc,
                        db.bb_id,
                        &mut self.loop_counters,
                        &mut self.call_stack,
                        &mut self.rng,
                    ) {
                        TermStep::Goto { next, inst } => {
                            self.block = next;
                            self.inst_idx = 0;
                            out.push(inst);
                            got += 1;
                        }
                        TermStep::Halt => self.done = true,
                    }
                }
                continue;
            }
            let blk = &prog.blocks[self.block as usize];
            let take = (blk.insts.len() - self.inst_idx).min(max - got);
            for k in 0..take {
                let idx = self.inst_idx + k;
                let si = blk.insts[idx];
                let pc = blk.base_pc + 4 * idx as u64;
                let mem_addr = match si.mem {
                    Some(m) => self.mem_addr(m.region, m.pattern),
                    None => 0,
                };
                let trivial = si.trivial_ppm != 0 && self.rng.chance_ppm(si.trivial_ppm);
                out.push(DynInst {
                    pc,
                    op: si.op,
                    srcs: si.srcs,
                    dest: si.dest,
                    mem_addr,
                    taken: false,
                    next_pc: pc + 4,
                    trivial,
                    bb_id: blk.id,
                });
            }
            self.inst_idx += take;
            got += take;
            if got == max {
                break;
            }
            // Block body exhausted: consume the terminator (Halt or a bare
            // Return emit nothing and end the program).
            if let Some(t) = self.emit_terminator() {
                out.push(t);
                got += 1;
            }
        }
        self.emitted += got as u64;
        self.note_work(got as u64);
        got
    }

    /// Batched functional warming: serve one cached decoded block per call,
    /// walking only its pre-classified warm lane ([`WarmKind`]) instead of
    /// materializing a [`DynInst`] per instruction.
    ///
    /// Body PCs are sequential (`base_pc + 4*i`), so instruction-line
    /// touches are emitted *arithmetically*: one [`WarmSink::warm_line`]
    /// call at the chunk's first pc, then one per line crossing, interleaved
    /// with the data accesses in program order (L1I and L1D share the L2, so
    /// the relative order of instruction-line and data events is part of the
    /// determinism contract). The sink dedups against its own last-line
    /// state, so warming resumed mid-line stays exact.
    ///
    /// All interpreter state (cursors, PRNG, loop counters, call stack,
    /// `emitted`) advances exactly as `consumed` calls to
    /// [`InstStream::next_inst`] would advance it.
    fn warm_block(&mut self, sink: &mut dyn WarmSink, line_mask: u64, max: u64) -> u64 {
        if self.done || max == 0 {
            return 0;
        }
        let prog = self.prog;
        if let Some(db) = self.tcache.get_or_decode(prog, self.block) {
            let mut consumed = 0u64;
            let start = self.inst_idx;
            let take = ((db.template.len() - start) as u64).min(max) as usize;
            let end = start + take;
            // line_mask = !(line_bytes - 1), so this recovers line_bytes.
            let line_bytes = !line_mask + 1;
            if take > 0 {
                // First pc whose line has not yet been offered to the
                // sink; advanced to the next line *start* after each
                // offer (starts are 4-aligned, so they are valid inst
                // pcs whenever the sequential pc walk reaches them).
                let mut pend_pc = db.template[start].pc;
                let lo = if start == 0 {
                    0
                } else {
                    db.warm_ops.partition_point(|w| (w.idx as usize) < start)
                };
                for w in &db.warm_ops[lo..] {
                    let idx = w.idx as usize;
                    if idx >= end {
                        break;
                    }
                    match w.kind {
                        WarmKind::Data {
                            region,
                            pattern,
                            store,
                        } => {
                            let pc = db.template[idx].pc;
                            while pend_pc <= pc {
                                sink.warm_line(pend_pc);
                                pend_pc = (pend_pc & line_mask) + line_bytes;
                            }
                            let a = Self::mem_addr_in(
                                &prog.regions,
                                &mut self.cursors,
                                &mut self.rng,
                                region,
                                pattern,
                            );
                            sink.warm_data(a, store);
                        }
                        // Stateful but warming-silent: advance exactly
                        // the cursor/PRNG state unbatched emission would.
                        WarmKind::Draw { region, pattern } => {
                            let _ = Self::mem_addr_in(
                                &prog.regions,
                                &mut self.cursors,
                                &mut self.rng,
                                region,
                                pattern,
                            );
                        }
                        WarmKind::Trivial { ppm } => {
                            let _ = self.rng.chance_ppm(ppm);
                        }
                    }
                }
                // Lines of the trailing warming-silent instructions.
                let last_pc = db.template[end - 1].pc;
                while pend_pc <= last_pc {
                    sink.warm_line(pend_pc);
                    pend_pc = (pend_pc & line_mask) + line_bytes;
                }
                self.inst_idx = end;
                consumed += take as u64;
            }
            if consumed < max && end == db.template.len() {
                match Self::term_step(
                    prog,
                    &db.term,
                    db.term_pc,
                    db.bb_id,
                    &mut self.loop_counters,
                    &mut self.call_stack,
                    &mut self.rng,
                ) {
                    TermStep::Goto { next, inst } => {
                        sink.warm_line(db.term_pc);
                        sink.warm_control(inst);
                        self.block = next;
                        self.inst_idx = 0;
                        consumed += 1;
                    }
                    TermStep::Halt => self.done = true,
                }
            }
            self.emitted += consumed;
            self.note_work(consumed);
            return consumed;
        }
        // Uncached fallback: identical events, one instruction at a time
        // (next_inst maintains emitted / the work counter itself).
        let mut consumed = 0u64;
        while consumed < max {
            let Some(inst) = self.next_inst() else {
                break;
            };
            consumed += 1;
            sink.warm_line(inst.pc);
            if inst.op.is_control() {
                sink.warm_control(inst);
            } else if inst.op.is_mem() {
                sink.warm_data(inst.mem_addr, inst.op == OpClass::Store);
            }
        }
        consumed
    }
}

impl sim_core::checkpoint::Checkpointable for Interp<'_> {
    type State = InterpState;

    fn checkpoint(&self) -> InterpState {
        self.snapshot()
    }

    fn restore(&mut self, state: &InterpState) {
        Interp::restore(self, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BasicBlock, Region, StaticInst, CODE_BASE, DATA_BASE};
    use crate::program::{MemRef, Terminator};

    fn looped(trips: u32) -> Program {
        Program {
            name: "loop".into(),
            blocks: vec![
                BasicBlock {
                    id: 0,
                    base_pc: CODE_BASE,
                    insts: vec![
                        StaticInst::alu(OpClass::IntAlu, 1, 1, 2),
                        StaticInst::alu(OpClass::IntAlu, 2, 1, 2),
                    ],
                    term: Terminator::Loop {
                        body: 0,
                        exit: 1,
                        loop_slot: 0,
                        trips,
                    },
                },
                BasicBlock {
                    id: 1,
                    base_pc: CODE_BASE + 0x100,
                    insts: vec![],
                    term: Terminator::Halt,
                },
            ],
            entry: 0,
            regions: vec![],
            loop_slots: 1,
            seed: 1,
            dynamic_len_estimate: 3 * trips as u64,
        }
    }

    fn drain(p: &Program) -> Vec<DynInst> {
        let mut it = Interp::new(p);
        let mut v = Vec::new();
        while let Some(i) = it.next_inst() {
            v.push(i);
        }
        v
    }

    #[test]
    fn loop_executes_exactly_trips_times() {
        let p = looped(5);
        let insts = drain(&p);
        // 5 iterations x (2 alu + 1 branch) = 15 dynamic instructions.
        assert_eq!(insts.len(), 15);
        let branches: Vec<&DynInst> = insts.iter().filter(|i| i.op == OpClass::Branch).collect();
        assert_eq!(branches.len(), 5);
        assert!(branches[..4].iter().all(|b| b.taken), "back edges taken");
        assert!(!branches[4].taken, "final iteration exits");
    }

    #[test]
    fn stream_is_deterministic() {
        let p = looped(100);
        assert_eq!(drain(&p), drain(&p));
    }

    #[test]
    fn pcs_are_sequential_within_block() {
        let p = looped(1);
        let insts = drain(&p);
        assert_eq!(insts[0].pc, CODE_BASE);
        assert_eq!(insts[1].pc, CODE_BASE + 4);
        assert_eq!(insts[2].pc, CODE_BASE + 8);
    }

    #[test]
    fn bb_ids_match_blocks() {
        let p = looped(2);
        for i in drain(&p) {
            assert_eq!(i.bb_id, 0, "all body instructions are in block 0");
        }
    }

    fn mem_program(pattern: MemPattern, region_size: u64, accesses: u32) -> Program {
        Program {
            name: "mem".into(),
            blocks: vec![
                BasicBlock {
                    id: 0,
                    base_pc: CODE_BASE,
                    insts: vec![StaticInst::load(5, 5, MemRef { region: 0, pattern })],
                    term: Terminator::Loop {
                        body: 0,
                        exit: 1,
                        loop_slot: 0,
                        trips: accesses,
                    },
                },
                BasicBlock {
                    id: 1,
                    base_pc: CODE_BASE + 0x100,
                    insts: vec![],
                    term: Terminator::Halt,
                },
            ],
            entry: 0,
            regions: vec![Region {
                name: "data".into(),
                base: DATA_BASE,
                size: region_size,
            }],
            loop_slots: 1,
            seed: 7,
            dynamic_len_estimate: 2 * accesses as u64,
        }
    }

    #[test]
    fn stride_pattern_walks_sequentially_and_wraps() {
        let p = mem_program(MemPattern::Stride { step: 64 }, 256, 8);
        let addrs: Vec<u64> = drain(&p)
            .into_iter()
            .filter(|i| i.op == OpClass::Load)
            .map(|i| i.mem_addr)
            .collect();
        let expect: Vec<u64> = (0..8).map(|i| DATA_BASE + (i * 64) % 256).collect();
        assert_eq!(addrs, expect);
    }

    #[test]
    fn random_pattern_stays_in_region() {
        let p = mem_program(MemPattern::Random, 4096, 1000);
        for i in drain(&p) {
            if i.op == OpClass::Load {
                assert!(i.mem_addr >= DATA_BASE && i.mem_addr < DATA_BASE + 4096);
                assert_eq!(i.mem_addr % 8, 0, "8-byte aligned");
            }
        }
    }

    #[test]
    fn chase_pattern_is_line_granular_and_deterministic() {
        let p = mem_program(MemPattern::Chase, 1 << 20, 500);
        let a1: Vec<u64> = drain(&p)
            .into_iter()
            .filter(|i| i.op == OpClass::Load)
            .map(|i| i.mem_addr)
            .collect();
        let a2: Vec<u64> = drain(&p)
            .into_iter()
            .filter(|i| i.op == OpClass::Load)
            .map(|i| i.mem_addr)
            .collect();
        assert_eq!(a1, a2);
        for &a in &a1 {
            assert_eq!((a - DATA_BASE) % 64, 0, "line aligned");
        }
        // The walk should visit many distinct lines.
        let distinct: std::collections::HashSet<u64> = a1.iter().copied().collect();
        assert!(
            distinct.len() > 300,
            "only {} distinct nodes",
            distinct.len()
        );
    }

    #[test]
    fn call_and_return_traverse_the_stack() {
        let p = Program {
            name: "call".into(),
            blocks: vec![
                BasicBlock {
                    id: 0,
                    base_pc: CODE_BASE,
                    insts: vec![],
                    term: Terminator::Call { callee: 2, ret: 1 },
                },
                BasicBlock {
                    id: 1,
                    base_pc: CODE_BASE + 0x100,
                    insts: vec![],
                    term: Terminator::Halt,
                },
                BasicBlock {
                    id: 2,
                    base_pc: CODE_BASE + 0x200,
                    insts: vec![StaticInst::alu(OpClass::IntAlu, 1, 1, 1)],
                    term: Terminator::Return,
                },
            ],
            entry: 0,
            regions: vec![],
            loop_slots: 0,
            seed: 3,
            dynamic_len_estimate: 4,
        };
        let insts = drain(&p);
        let ops: Vec<OpClass> = insts.iter().map(|i| i.op).collect();
        assert_eq!(
            ops,
            vec![OpClass::Call, OpClass::IntAlu, OpClass::Return],
            "call, callee body, return"
        );
        assert_eq!(insts[0].next_pc, CODE_BASE + 0x200);
        assert_eq!(insts[2].next_pc, CODE_BASE + 0x100);
    }

    #[test]
    fn cond_prob_respects_probability() {
        let p = Program {
            name: "prob".into(),
            blocks: vec![
                BasicBlock {
                    id: 0,
                    base_pc: CODE_BASE,
                    insts: vec![],
                    term: Terminator::CondProb {
                        taken_ppm: 250_000,
                        taken: 1,
                        not_taken: 1,
                    },
                },
                BasicBlock {
                    id: 1,
                    base_pc: CODE_BASE + 0x100,
                    insts: vec![],
                    term: Terminator::Loop {
                        body: 0,
                        exit: 2,
                        loop_slot: 0,
                        trips: 20_000,
                    },
                },
                BasicBlock {
                    id: 2,
                    base_pc: CODE_BASE + 0x200,
                    insts: vec![],
                    term: Terminator::Halt,
                },
            ],
            entry: 0,
            regions: vec![],
            loop_slots: 1,
            seed: 11,
            dynamic_len_estimate: 40_000,
        };
        let insts = drain(&p);
        let cond: Vec<&DynInst> = insts
            .iter()
            .filter(|i| i.op == OpClass::Branch && i.pc == CODE_BASE)
            .collect();
        let taken = cond.iter().filter(|i| i.taken).count();
        let frac = taken as f64 / cond.len() as f64;
        assert!(
            (0.22..0.28).contains(&frac),
            "taken fraction {frac} should be ~0.25"
        );
    }

    #[test]
    fn switch_terminator_visits_all_targets() {
        let p = Program {
            name: "switch".into(),
            blocks: vec![
                BasicBlock {
                    id: 0,
                    base_pc: CODE_BASE,
                    insts: vec![],
                    term: Terminator::Switch {
                        targets: vec![1, 2, 3],
                    },
                },
                BasicBlock {
                    id: 1,
                    base_pc: CODE_BASE + 0x100,
                    insts: vec![],
                    term: Terminator::Loop {
                        body: 0,
                        exit: 4,
                        loop_slot: 0,
                        trips: 3000,
                    },
                },
                BasicBlock {
                    id: 2,
                    base_pc: CODE_BASE + 0x200,
                    insts: vec![],
                    term: Terminator::Loop {
                        body: 0,
                        exit: 4,
                        loop_slot: 1,
                        trips: 3000,
                    },
                },
                BasicBlock {
                    id: 3,
                    base_pc: CODE_BASE + 0x300,
                    insts: vec![],
                    term: Terminator::Loop {
                        body: 0,
                        exit: 4,
                        loop_slot: 2,
                        trips: 3000,
                    },
                },
                BasicBlock {
                    id: 4,
                    base_pc: CODE_BASE + 0x400,
                    insts: vec![],
                    term: Terminator::Halt,
                },
            ],
            entry: 0,
            regions: vec![],
            loop_slots: 3,
            seed: 77,
            dynamic_len_estimate: 10_000,
        };
        let insts = drain(&p);
        let switches: Vec<&DynInst> = insts
            .iter()
            .filter(|i| i.op == OpClass::IndirectJump)
            .collect();
        assert!(switches.len() > 100, "switch executed many times");
        let mut seen = std::collections::HashSet::new();
        for s in &switches {
            seen.insert(s.next_pc);
        }
        assert_eq!(seen.len(), 3, "all three switch targets are visited");
    }

    #[test]
    fn cond_periodic_is_taken_exactly_every_period() {
        let p = Program {
            name: "periodic".into(),
            blocks: vec![
                BasicBlock {
                    id: 0,
                    base_pc: CODE_BASE,
                    insts: vec![],
                    term: Terminator::CondPeriodic {
                        period: 4,
                        loop_slot: 0,
                        taken: 1,
                        not_taken: 1,
                    },
                },
                BasicBlock {
                    id: 1,
                    base_pc: CODE_BASE + 0x100,
                    insts: vec![],
                    term: Terminator::Loop {
                        body: 0,
                        exit: 2,
                        loop_slot: 1,
                        trips: 40,
                    },
                },
                BasicBlock {
                    id: 2,
                    base_pc: CODE_BASE + 0x200,
                    insts: vec![],
                    term: Terminator::Halt,
                },
            ],
            entry: 0,
            regions: vec![],
            loop_slots: 2,
            seed: 5,
            dynamic_len_estimate: 100,
        };
        let insts = drain(&p);
        let outcomes: Vec<bool> = insts
            .iter()
            .filter(|i| i.op == OpClass::Branch && i.pc == CODE_BASE)
            .map(|i| i.taken)
            .collect();
        assert_eq!(outcomes.len(), 40);
        for (i, &t) in outcomes.iter().enumerate() {
            assert_eq!(t, (i + 1) % 4 == 0, "outcome {i}");
        }
    }

    #[test]
    fn fixed_pattern_hits_one_address() {
        let p = mem_program(MemPattern::Fixed { offset: 128 }, 4096, 20);
        let addrs: std::collections::HashSet<u64> = drain(&p)
            .into_iter()
            .filter(|i| i.op == OpClass::Load)
            .map(|i| i.mem_addr)
            .collect();
        assert_eq!(addrs.len(), 1);
        assert!(addrs.contains(&(DATA_BASE + 128)));
    }

    #[test]
    fn emitted_counter_tracks_stream() {
        let p = looped(10);
        let mut it = Interp::new(&p);
        for _ in 0..7 {
            it.next_inst();
        }
        assert_eq!(it.emitted(), 7);
        assert_eq!(InstStream::len_hint(&it), Some(30));
    }

    #[test]
    fn skip_n_matches_next_inst_exactly() {
        // Every suite benchmark exercises all terminator and memory-pattern
        // kinds; after skipping K instructions both interpreters must yield
        // identical remainders (same rng, cursors, counters, call stack).
        for b in crate::suite() {
            let p = b.program_scaled(crate::InputSet::Reference, 0.01).unwrap();
            for k in [0u64, 1, 7, 1_000, 4_099] {
                let mut by_next = Interp::new(&p);
                let mut by_skip = Interp::new(&p);
                let mut stepped = 0;
                for _ in 0..k {
                    if by_next.next_inst().is_none() {
                        break;
                    }
                    stepped += 1;
                }
                assert_eq!(by_skip.skip_n(k), stepped, "{}: skip count", b.name);
                assert_eq!(by_skip.emitted(), by_next.emitted(), "{}", b.name);
                for i in 0..2_000 {
                    assert_eq!(
                        by_skip.next_inst(),
                        by_next.next_inst(),
                        "{}: divergence {} insts after skipping {}",
                        b.name,
                        i,
                        k
                    );
                }
            }
        }
    }

    #[test]
    fn next_block_matches_next_inst_exactly() {
        // The decode-buffer contract: block fills must yield the identical
        // instruction sequence (and leave identical interpreter state) as
        // one-at-a-time emission, for any batch size.
        for b in crate::suite() {
            let p = b.program_scaled(crate::InputSet::Reference, 0.01).unwrap();
            for chunk in [1usize, 7, 64, 1024] {
                let mut by_next = Interp::new(&p);
                let mut by_block = Interp::new(&p);
                let mut pulled = 0u64;
                loop {
                    let mut got = Vec::new();
                    let n = by_block.next_block(&mut got, chunk);
                    assert_eq!(got.len(), n, "{}: reported count", b.name);
                    for (i, inst) in got.iter().enumerate() {
                        assert_eq!(
                            Some(*inst),
                            by_next.next_inst(),
                            "{}: divergence at inst {} (chunk {})",
                            b.name,
                            pulled + i as u64,
                            chunk
                        );
                    }
                    pulled += n as u64;
                    if n == 0 || pulled > 20_000 {
                        break;
                    }
                }
                if pulled <= 20_000 {
                    assert!(by_next.next_inst().is_none(), "{}: same end", b.name);
                }
                assert_eq!(by_block.emitted(), by_next.emitted(), "{}", b.name);
            }
        }
    }

    #[test]
    fn next_block_under_eviction_pressure_matches_next_inst() {
        // A trace cache too small to hold the working set must evict and
        // re-decode, never diverge: the batched stream stays bit-identical
        // to one-at-a-time emission (which never consults the cache).
        for b in crate::suite() {
            let p = b.program_scaled(crate::InputSet::Reference, 0.01).unwrap();
            let mut by_next = Interp::new(&p);
            let mut by_block = Interp::new(&p);
            by_block.tcache_set_budget(2_048); // roughly one decoded block
            let mut pulled = 0u64;
            loop {
                let mut got = Vec::new();
                let n = by_block.next_block(&mut got, 64);
                for inst in &got {
                    assert_eq!(
                        Some(*inst),
                        by_next.next_inst(),
                        "{}: divergence at inst {} under eviction",
                        b.name,
                        pulled
                    );
                    pulled += 1;
                }
                if n == 0 || pulled > 20_000 {
                    break;
                }
            }
            assert!(
                by_block.cache_bytes() <= 2_048,
                "{}: eviction must keep occupancy under the budget ({} B)",
                b.name,
                by_block.cache_bytes()
            );
        }
    }

    #[test]
    fn skip_n_under_eviction_pressure_matches_next_inst() {
        for b in crate::suite() {
            let p = b.program_scaled(crate::InputSet::Reference, 0.01).unwrap();
            let mut by_next = Interp::new(&p);
            let mut by_skip = Interp::new(&p);
            by_skip.tcache_set_budget(2_048);
            let mut stepped = 0;
            for _ in 0..4_099 {
                if by_next.next_inst().is_none() {
                    break;
                }
                stepped += 1;
            }
            assert_eq!(by_skip.skip_n(4_099), stepped, "{}", b.name);
            for i in 0..2_000 {
                assert_eq!(
                    by_skip.next_inst(),
                    by_next.next_inst(),
                    "{}: divergence {} insts after eviction-pressure skip",
                    b.name,
                    i
                );
            }
        }
    }

    #[test]
    fn skip_n_past_end_reports_actual_count() {
        let p = looped(10); // 30 dynamic instructions
        let mut it = Interp::new(&p);
        assert_eq!(it.skip_n(1_000), 30);
        assert!(it.is_done());
        assert_eq!(it.emitted(), 30);
        assert_eq!(it.skip_n(5), 0);
    }

    #[test]
    fn halted_stream_stays_halted() {
        let p = looped(1);
        let mut it = Interp::new(&p);
        while it.next_inst().is_some() {}
        assert!(it.is_done());
        assert!(it.next_inst().is_none());
        assert!(it.next_inst().is_none());
    }

    #[test]
    fn snapshot_resume_is_stream_exact_across_suite() {
        // The architectural-checkpoint contract: an interpreter resumed from
        // a snapshot at position K produces the same remainder as the one
        // that executed to K — for every suite benchmark, at several
        // positions, including mid-basic-block ones.
        for b in crate::suite() {
            let p = b.program_scaled(crate::InputSet::Reference, 0.01).unwrap();
            for k in [0u64, 3, 513, 2_041] {
                let mut live = Interp::new(&p);
                live.skip_n(k);
                let state = live.snapshot();
                assert_eq!(state.emitted(), live.emitted(), "{}", b.name);

                let mut resumed = Interp::resume(&p, &state);
                assert_eq!(resumed.emitted(), live.emitted(), "{}", b.name);
                for i in 0..1_500 {
                    assert_eq!(
                        resumed.next_inst(),
                        live.next_inst(),
                        "{}: divergence {} insts after resuming at {}",
                        b.name,
                        i,
                        k
                    );
                }
            }
        }
    }

    #[test]
    fn restore_rewinds_an_advanced_interpreter() {
        let p = looped(200); // 600 dynamic instructions
        let mut it = Interp::new(&p);
        it.skip_n(100);
        let state = it.snapshot();
        let expected: Vec<_> = (0..50).map(|_| it.next_inst()).collect();
        it.skip_n(300);
        it.restore(&state);
        assert_eq!(it.emitted(), 100);
        let replayed: Vec<_> = (0..50).map(|_| it.next_inst()).collect();
        assert_eq!(replayed, expected);
    }

    #[test]
    fn interp_state_bytes_roundtrip_across_suite() {
        for b in crate::suite() {
            let p = b.program_scaled(crate::InputSet::Reference, 0.01).unwrap();
            let mut it = Interp::new(&p);
            it.skip_n(2_500);
            let state = it.snapshot();
            let bytes = state.to_bytes();
            let decoded = InterpState::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, state, "{}", b.name);
            assert_eq!(decoded.to_bytes(), bytes, "{}: re-encode", b.name);
            // The decoded state drives an identical remainder.
            let mut resumed = Interp::resume(&p, &decoded);
            for _ in 0..500 {
                assert_eq!(resumed.next_inst(), it.next_inst(), "{}", b.name);
            }
        }
    }

    #[test]
    fn interp_state_from_bytes_rejects_malformed_payloads() {
        let p = looped(50);
        let mut it = Interp::new(&p);
        it.skip_n(30);
        let bytes = it.snapshot().to_bytes();
        assert!(InterpState::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut longer = bytes.clone();
        longer.push(7);
        assert!(InterpState::from_bytes(&longer).is_err());
    }

    #[test]
    #[should_panic(expected = "different program")]
    fn restore_rejects_foreign_program_state() {
        let p = looped(10);
        let q = looped(11);
        let state = Interp::new(&p).snapshot();
        Interp::new(&q).restore(&state);
    }

    /// Recording [`WarmSink`] that mimics the engine sink's last-line dedup,
    /// so the elided-`warm_line` lane path and the call-per-instruction
    /// reference path reduce to comparable event sequences.
    #[derive(Debug, PartialEq, Clone, Copy)]
    enum WarmEv {
        Line(u64),
        Data(u64, bool),
        Ctrl(DynInst),
    }

    struct WarmRec {
        line_mask: u64,
        last_line: u64,
        events: Vec<WarmEv>,
    }

    impl WarmRec {
        fn new(line_mask: u64) -> Self {
            WarmRec {
                line_mask,
                last_line: u64::MAX,
                events: Vec::new(),
            }
        }
    }

    impl WarmSink for WarmRec {
        fn warm_line(&mut self, pc: Addr) {
            let line = pc & self.line_mask;
            if line != self.last_line {
                self.last_line = line;
                self.events.push(WarmEv::Line(line));
            }
        }
        fn warm_data(&mut self, addr: Addr, store: bool) {
            self.events.push(WarmEv::Data(addr, store));
        }
        fn warm_control(&mut self, inst: DynInst) {
            self.events.push(WarmEv::Ctrl(inst));
        }
    }

    /// The scalar warming reference: exactly the engine's lanes-off loop
    /// (materialize each instruction, classify, feed the sink).
    fn warm_by_inst(it: &mut Interp, rec: &mut WarmRec, n: u64) -> u64 {
        let mut consumed = 0;
        while consumed < n {
            let Some(i) = it.next_inst() else {
                break;
            };
            consumed += 1;
            rec.warm_line(i.pc);
            if i.op.is_control() {
                rec.warm_control(i);
            } else if i.op.is_mem() {
                rec.warm_data(i.mem_addr, i.op == OpClass::Store);
            }
        }
        consumed
    }

    fn assert_warm_block_matches(budget: Option<usize>) {
        let line_mask = !(64u64 - 1);
        for b in crate::suite() {
            let p = b.program_scaled(crate::InputSet::Reference, 0.01).unwrap();
            for (skip, chunk) in [
                (0u64, 1u64),
                (0, 7),
                (0, 1024),
                (513, 64),
                (2_041, u64::MAX),
            ] {
                let mut by_lane = Interp::new(&p);
                let mut by_inst = Interp::new(&p);
                if let Some(bytes) = budget {
                    by_lane.tcache_set_budget(bytes);
                }
                by_lane.skip_n(skip);
                by_inst.skip_n(skip);
                let mut lane_rec = WarmRec::new(line_mask);
                let mut inst_rec = WarmRec::new(line_mask);
                let target = 10_000u64;
                let mut consumed = 0;
                while consumed < target {
                    let got =
                        by_lane.warm_block(&mut lane_rec, line_mask, chunk.min(target - consumed));
                    if got == 0 {
                        break;
                    }
                    consumed += got;
                }
                let by_ref = warm_by_inst(&mut by_inst, &mut inst_rec, consumed);
                assert_eq!(by_ref, consumed, "{}: consumed counts", b.name);
                assert_eq!(
                    lane_rec.events, inst_rec.events,
                    "{}: warm events diverge (skip {skip}, chunk {chunk})",
                    b.name
                );
                assert_eq!(by_lane.emitted(), by_inst.emitted(), "{}", b.name);
                // The interpreters are left in identical states: remainders
                // must match instruction for instruction.
                for i in 0..2_000 {
                    assert_eq!(
                        by_lane.next_inst(),
                        by_inst.next_inst(),
                        "{}: stream divergence {} insts after warming (skip {skip}, chunk {chunk})",
                        b.name,
                        i
                    );
                }
            }
        }
    }

    #[test]
    fn warm_block_matches_per_inst_warming_exactly() {
        assert_warm_block_matches(None);
    }

    #[test]
    fn warm_block_under_eviction_pressure_matches_per_inst_warming() {
        // A budget of ~one block forces constant decode/evict churn on the
        // lane path; events and stream position must not shift.
        assert_warm_block_matches(Some(2_048));
    }

    #[test]
    fn warm_block_without_cacheable_blocks_matches_per_inst_warming() {
        // A 1-byte budget makes every block exceed the whole budget, so the
        // lane path degrades to the per-instruction fallback.
        assert_warm_block_matches(Some(1));
    }

    #[test]
    fn warm_block_reports_functional_work_once() {
        use sim_core::checkpoint::thread_functional_insts;
        let p = looped(5_000); // 15_000 dynamic instructions
        let before = thread_functional_insts();
        {
            let mut it = Interp::new(&p);
            let line_mask = !(64u64 - 1);
            let mut rec = WarmRec::new(line_mask);
            let mut consumed = 0;
            while consumed < 9_100 {
                let got = it.warm_block(&mut rec, line_mask, 9_100 - consumed);
                if got == 0 {
                    break;
                }
                consumed += got;
            }
            assert_eq!(consumed, 9_100);
        } // drop flushes the sub-batch remainder
        assert_eq!(thread_functional_insts() - before, 9_100);
    }

    #[test]
    fn interpreting_reports_functional_work_but_replay_paths_do_not() {
        // The process-wide counter is polluted by parallel test threads, so
        // assert through the race-free thread-local view: all interpreters
        // here live and die on this thread.
        use sim_core::checkpoint::thread_functional_insts;
        let p = looped(5_000); // 15_000 dynamic instructions
        let before = thread_functional_insts();
        {
            let mut it = Interp::new(&p);
            it.skip_n(9_000); // crosses the batch-flush threshold
            for _ in 0..100 {
                it.next_inst();
            }
            // Cloning must not double-count the clone source's work.
            let copy = it.clone();
            drop(copy);
        } // drop flushes the sub-batch remainder
        assert_eq!(thread_functional_insts() - before, 9_100);

        // Snapshot/restore themselves perform no functional execution.
        let mid = thread_functional_insts();
        let mut it = Interp::new(&p);
        it.skip_n(1_000);
        let state = it.snapshot();
        it.restore(&state);
        let resumed = Interp::resume(&p, &state);
        drop(resumed);
        drop(it);
        assert_eq!(thread_functional_insts() - mid, 1_000);
    }
}
