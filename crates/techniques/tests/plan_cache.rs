//! The SimPoint plan cache builds each plan once, however many callers race
//! for it. This lives in its own integration binary (one test, one process)
//! because it reads the process-global `simpoint.plans` counter, which
//! parallel unit tests that build plans would race on.

use std::sync::{Arc, Barrier};

use techniques::runner::PreparedBench;

#[test]
fn concurrent_same_key_callers_share_one_plan_built_once() {
    const CALLERS: usize = 4;
    let prep = PreparedBench::by_name_scaled("gzip", 0.02).expect("gzip is in the suite");
    let built = sim_obs::metrics::counter("simpoint.plans");
    let before = built.get();
    let barrier = Barrier::new(CALLERS);
    let plans: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    prep.simpoint_plan(2_000, 10)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(built.get() - before, 1, "one build for one key");
    for p in &plans[1..] {
        assert!(
            Arc::ptr_eq(&plans[0], p),
            "every caller gets the cached plan"
        );
    }

    // Another key is another cell: one more build, a different plan.
    let other = prep.simpoint_plan(2_000, 1);
    assert_eq!(built.get() - before, 2);
    assert!(!Arc::ptr_eq(&plans[0], &other));
    assert!(Arc::ptr_eq(&other, &prep.simpoint_plan(2_000, 1)));
    assert_eq!(built.get() - before, 2, "a repeat lookup builds nothing");
}
