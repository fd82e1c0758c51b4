//! The warm-kernel golden check: the shard fan-out around the warming lanes
//! must be bit-transparent. `fig2` and `fig5` reports are compared
//! byte-for-byte with and without `SIM_SHARDS=3`. The trace cache, the
//! lanes, the line-skip filter and the SIMD tag probes are always on; their
//! exactness is checked against reference bodies by unit-level oracles
//! (`workloads` `warm_oracle.rs` and the interpreter's eviction-pressure
//! tests, `sim_core::cache` probe tests).
//!
//! Subprocess-driven (like `store_persistence.rs`) because `SIM_SHARDS` is
//! read once per process.

use std::process::Command;

/// Run a harness binary with the given env knobs, returning (stdout, stderr).
fn run(bin: &str, envs: &[(&str, &str)]) -> (String, String) {
    let mut cmd = Command::new(bin);
    cmd.args([
        "--bench",
        "gzip",
        "--scale",
        "0.05",
        "--jobs",
        "2",
        "--metrics",
    ]);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.env_remove("SIM_STORE");
    let out = cmd.output().expect("harness spawns");
    assert!(
        out.status.success(),
        "{bin} failed under {envs:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("report is UTF-8"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Pull `name = value` out of the `--metrics` registry dump on stderr.
fn metric(stderr: &str, name: &str) -> u64 {
    let needle = format!(" {name} = ");
    stderr
        .lines()
        .find_map(|l| l.find(&needle).map(|at| l[at + needle.len()..].trim()))
        .unwrap_or("0")
        .parse()
        .unwrap_or(0)
}

/// The knob matrix every harness must be invariant under.
const MATRIX: &[(&str, &[(&str, &str)])] = &[("sharded", &[("SIM_SHARDS", "3")])];

#[test]
fn fig2_is_byte_identical_across_the_warm_kernel_matrix() {
    let bin = env!("CARGO_BIN_EXE_fig2");
    let (baseline, base_err) = run(bin, &[]);
    assert!(
        metric(&base_err, "warm.block_refills") > 0,
        "the baseline actually took the block-warm path:\n{base_err}"
    );
    for (name, envs) in MATRIX {
        let (out, _) = run(bin, envs);
        assert_eq!(baseline, out, "fig2 report diverged under {name}");
    }
}

#[test]
fn fig5_is_byte_identical_across_the_warm_kernel_matrix() {
    // fig5 fans out over all ten technique specs (SMARTS, SimPoint,
    // checkpointed warming, ...), so this leg covers the checkpoint
    // save/restore paths across the sharded merge.
    let bin = env!("CARGO_BIN_EXE_fig5");
    let (baseline, _) = run(bin, &[]);
    let (name, envs) = MATRIX[0];
    let (out, _) = run(bin, envs);
    assert_eq!(baseline, out, "fig5 report diverged under {name}");
}
