//! Integration tests of the substrate extensions (power model) against
//! real workloads.

use simtech_repro::sim_core::power::{estimate, PowerConfig};
use simtech_repro::sim_core::{SimConfig, Simulator};
use simtech_repro::workloads::{benchmark, InputSet, Interp};

fn small_program(name: &str) -> simtech_repro::workloads::Program {
    benchmark(name)
        .unwrap()
        .program_scaled(InputSet::Reference, 0.03)
        .unwrap()
}

#[test]
fn memory_bound_benchmark_spends_its_energy_in_the_hierarchy() {
    let cfg = SimConfig::table3(2);
    let pc = PowerConfig::default();
    let share = |name: &str| {
        let p = small_program(name);
        let mut sim = Simulator::new(cfg.clone());
        let mut s = Interp::new(&p);
        sim.run_detailed(&mut s, u64::MAX);
        let stats = sim.stats();
        let b = estimate(&pc, &cfg, &stats);
        (b.dram + b.l2 + b.dcache) / b.total()
    };
    let mcf = share("mcf");
    let gzip = share("gzip");
    assert!(
        mcf > gzip,
        "mcf's memory-energy share ({mcf:.2}) must exceed gzip's ({gzip:.2})"
    );
}

#[test]
fn nlp_trades_core_time_for_memory_traffic_energy() {
    // Prefetching reduces cycles (clock energy) but adds DRAM traffic;
    // both effects must be visible in the power breakdown.
    let base_cfg = SimConfig::table3(2);
    let nlp_cfg = base_cfg.clone().with_next_line_prefetch(true);
    let p = small_program("art");
    let pc = PowerConfig::default();

    let run = |cfg: &SimConfig| {
        let mut sim = Simulator::new(cfg.clone());
        let mut s = Interp::new(&p);
        sim.run_detailed(&mut s, u64::MAX);
        let stats = sim.stats();
        (stats.core.cycles, estimate(&pc, cfg, &stats))
    };
    let (base_cycles, base_power) = run(&base_cfg);
    let (nlp_cycles, nlp_power) = run(&nlp_cfg);
    assert!(nlp_cycles < base_cycles, "NLP speeds up art");
    assert!(
        nlp_power.dram > base_power.dram,
        "NLP adds DRAM traffic energy ({} vs {})",
        nlp_power.dram,
        base_power.dram
    );
}

#[test]
fn energy_per_instruction_is_stable_across_windows() {
    // EPI of the first half and second half of a (single-phase-dominant)
    // benchmark should be within 2x — a sanity bound on the activity model.
    let p = small_program("equake");
    let cfg = SimConfig::table3(2);
    let pc = PowerConfig::default();
    let mut sim = Simulator::new(cfg.clone());
    let mut s = Interp::new(&p);
    let half = p.dynamic_len_estimate / 2;
    sim.run_detailed(&mut s, half);
    let first = sim.stats();
    let epi1 = estimate(&pc, &cfg, &first).energy_per_inst(&first);
    sim.reset_stats();
    sim.run_detailed(&mut s, u64::MAX);
    let second = sim.stats();
    let epi2 = estimate(&pc, &cfg, &second).energy_per_inst(&second);
    let ratio = epi1 / epi2;
    assert!(
        (0.5..2.0).contains(&ratio),
        "EPI unstable across halves: {epi1} vs {epi2}"
    );
}
