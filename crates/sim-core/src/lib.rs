//! # sim-core
//!
//! A configurable, cycle-level, out-of-order superscalar processor simulator
//! — the substrate for reproducing Yi et al., *Characterizing and Comparing
//! Prevailing Simulation Techniques* (HPCA 2005).
//!
//! The paper's study ran on a modified wattch/SimpleScalar. This crate plays
//! that role: a trace-driven timing model with
//!
//! - a front end with a combined branch predictor (bimodal + gshare + meta
//!   chooser), BTB, and return address stack ([`branch`]);
//! - an out-of-order window (ROB/IQ/LSQ) with configurable widths, functional
//!   units, and latencies ([`pipeline`]);
//! - a two-level cache hierarchy with TLBs, MSHRs, and a burst DRAM model
//!   ([`memory`], [`cache`]);
//! - the two §7 enhancements: next-line prefetching [Jouppi90] and
//!   trivial-computation simplification [Yi02] ([`config::SimConfig`]);
//! - *functional warming* and *cold fast-forward* modes, the building blocks
//!   of every simulation technique the paper studies ([`engine::Simulator`]);
//! - the 43 Plackett–Burman factors of the bottleneck characterization
//!   ([`config::pb`]).
//!
//! ## Quick start
//!
//! ```
//! use sim_core::{config::SimConfig, engine::Simulator, isa::DynInst};
//!
//! // Any iterator of DynInst is an instruction stream.
//! let program: Vec<DynInst> = (0..10_000)
//!     .map(|i| DynInst::int_alu(0x1000 + 4 * (i % 64)))
//!     .collect();
//!
//! let mut sim = Simulator::new(SimConfig::table3(2));
//! let mut stream = program.into_iter();
//! sim.run_detailed(&mut stream, u64::MAX);
//! let stats = sim.stats();
//! assert!(stats.ipc() > 1.0);
//! ```

#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod isa;
pub mod memory;
pub mod pipeline;
pub mod state;
pub mod stats;

pub use config::SimConfig;
pub use engine::Simulator;
pub use isa::{Addr, DynInst, InstStream, OpClass, Reg};
pub use stats::{ArchMetrics, SimStats};
