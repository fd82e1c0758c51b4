//! Functional-warming oracle: the interpreter's block-lane override of
//! `InstStream::warm_block`, with the exact line-skip filter on, must leave
//! every machine statistic where the plain per-instruction reference leaves
//! it — for every suite benchmark under Table 3 configurations 1–4.
//!
//! The reference drives the same program through a wrapper that hides the
//! interpreter's fast paths: warming takes the default `warm_block` body
//! and detailed simulation a `next_block` built from `next_inst`, on a
//! machine whose line filter is off. `stats()` is compared after warming
//! and again after a following detailed window, which is where a
//! divergence in warmed cache or predictor state would surface. Serialized machine bytes are not
//! compared: a filtered hit skips the MRU line's LRU-stamp bump on purpose,
//! which changes stamp values but never their order within a set.
//!
//! A second oracle checks the detailed core's decode-buffer refills: the
//! default interpreter, refilled `FETCH_BATCH` instructions at a time
//! through its trace-cached `next_block`, must end a detailed window with
//! the same statistics as the reference handing the core at most 1 or 7
//! instructions per refill.

use sim_core::isa::{DynInst, InstStream};
use sim_core::{SimConfig, Simulator};
use workloads::{suite, InputSet, Interp};

/// Hides every fast path of the wrapped interpreter: `next_block` returns
/// at most `chunk` instructions, each produced by `next_inst`, and the
/// other methods take the trait's default bodies.
struct Reference<'a, 'p> {
    inner: &'a mut Interp<'p>,
    chunk: usize,
}

impl InstStream for Reference<'_, '_> {
    fn next_inst(&mut self) -> Option<DynInst> {
        self.inner.next_inst()
    }

    fn next_block(&mut self, out: &mut Vec<DynInst>, max: usize) -> usize {
        let before = out.len();
        out.extend(std::iter::from_fn(|| self.inner.next_inst()).take(max.min(self.chunk)));
        out.len() - before
    }
}

/// Detailed instructions simulated after the warmed gap.
const WINDOW: u64 = 20_000;

/// Detailed instructions simulated from the program start by the
/// chunked-refill oracle: long enough for over 1000 default refills on
/// most benchmarks.
const REFILL_WINDOW: u64 = 100_000;

#[test]
fn lane_warming_with_line_filter_matches_per_instruction_reference() {
    for bench in suite() {
        let program = bench
            .program_scaled(InputSet::Reference, 0.02)
            .expect("every benchmark has a reference input");
        let gap = program.dynamic_len_estimate.saturating_sub(WINDOW) * 3 / 4;
        assert!(gap > 10_000, "{}: stream too short to warm", bench.name);
        for c in 1..=4 {
            let cfg = SimConfig::table3(c);
            let ctx = format!("{} table3:{c}", bench.name);

            let mut fast = Simulator::new(cfg.clone());
            let mut fast_stream = Interp::new(&program);

            let mut slow = Simulator::new(cfg);
            slow.core_mut().mem.set_line_filter(false);
            let mut slow_interp = Interp::new(&program);
            let mut slow_stream = Reference {
                inner: &mut slow_interp,
                chunk: usize::MAX,
            };

            assert_eq!(
                fast.warm_functional(&mut fast_stream, gap),
                slow.warm_functional(&mut slow_stream, gap),
                "{ctx}: warmed instruction count"
            );
            assert_eq!(fast.stats(), slow.stats(), "{ctx}: stats after warming");

            fast.reset_stats();
            slow.reset_stats();
            assert_eq!(
                fast.run_detailed(&mut fast_stream, WINDOW),
                slow.run_detailed(&mut slow_stream, WINDOW),
                "{ctx}: committed instruction count"
            );
            assert_eq!(
                fast.stats(),
                slow.stats(),
                "{ctx}: stats after the detailed window"
            );
        }
    }
}

#[test]
fn default_refills_match_chunked_next_inst_reference() {
    for bench in suite() {
        let program = bench
            .program_scaled(InputSet::Reference, 0.02)
            .expect("every benchmark has a reference input");
        for c in 1..=4 {
            let cfg = SimConfig::table3(c);
            let mut fast = Simulator::new(cfg.clone());
            let committed = fast.run_detailed(&mut Interp::new(&program), REFILL_WINDOW);
            for chunk in [1, 7] {
                let ctx = format!("{} table3:{c} chunk {chunk}", bench.name);
                let mut slow = Simulator::new(cfg.clone());
                let mut slow_interp = Interp::new(&program);
                let mut slow_stream = Reference {
                    inner: &mut slow_interp,
                    chunk,
                };
                assert_eq!(
                    committed,
                    slow.run_detailed(&mut slow_stream, REFILL_WINDOW),
                    "{ctx}: committed instruction count"
                );
                assert_eq!(fast.stats(), slow.stats(), "{ctx}: stats after the window");
            }
        }
    }
}
