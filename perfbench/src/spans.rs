//! The benchmark's own tracing: spans recorded around the calls it makes
//! into each layer, kept in memory and written out when the run ends, plus
//! deltas of the counters the crates already export.

use std::cell::Cell;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sim_obs::trace::{Phase, PhaseAcc, PHASE_COUNT};

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    /// The enclosing span (0 for a root).
    pub parent: u64,
    /// The op this span belongs to (0 for spans outside any op).
    pub op: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Small per-process index of the recording thread.
    pub thread: u64,
}

/// An in-memory span store. When off, [`Recorder::record`] does nothing,
/// but [`Recorder::now`] still works so callers can time unconditionally.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    /// Time spent inside `record` itself (the recorder's own overhead).
    cost_ns: AtomicU64,
}

thread_local! {
    static THREAD_INDEX: Cell<u64> = const { Cell::new(0) };
}

/// A small stable index for the calling thread (1, 2, ... in first-use
/// order).
pub fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    THREAD_INDEX.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            cost_ns: AtomicU64::new(0),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A span id for a span about to open (so children can name it as
    /// their parent before it closes); 0 when off.
    pub fn open(&self) -> u64 {
        if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Close span `id` (from [`Recorder::open`], or 0 to allocate one).
    pub fn record(&self, id: u64, name: &'static str, parent: u64, op: u64, start: u64, end: u64) {
        if !self.on {
            return;
        }
        let t = Instant::now();
        let id = if id == 0 { self.open() } else { id };
        let rec = SpanRec {
            id,
            parent,
            op,
            name,
            start,
            end,
            thread: thread_index(),
        };
        self.spans.lock().expect("span store poisoned").push(rec);
        self.cost_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn cost_ns(&self) -> u64 {
        self.cost_ns.load(Ordering::Relaxed)
    }

    /// Every span recorded so far, in close order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
                s.id, s.parent, s.op, s.name, s.start, s.end, s.thread
            )?;
        }
        out.flush()
    }
}

/// A point-in-time copy of the crates' exported counters and phase totals.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    metrics: Vec<(String, u64)>,
    phases: [PhaseAcc; PHASE_COUNT],
}

impl Counters {
    pub fn now() -> Counters {
        Counters {
            metrics: sim_obs::metrics::snapshot(),
            phases: sim_obs::trace::global_phase_totals(),
        }
    }

    /// The current value of one metric (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    pub fn phase(&self, p: Phase) -> PhaseAcc {
        self.phases[p as usize]
    }

    /// `self - before`, metric by metric and phase by phase (saturating:
    /// a counter reset in between reads as the value since the reset).
    pub fn since(&self, before: &Counters) -> Counters {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v)| (n.clone(), v.saturating_sub(before.get(n))))
            .collect();
        let mut phases = self.phases;
        for (p, b) in phases.iter_mut().zip(&before.phases) {
            p.ns = p.ns.saturating_sub(b.ns);
            p.insts = p.insts.saturating_sub(b.insts);
            p.bytes = p.bytes.saturating_sub(b.bytes);
            p.count = p.count.saturating_sub(b.count);
        }
        Counters { metrics, phases }
    }

    /// `self + other` (accumulates deltas across a counter reset).
    pub fn plus(&self, other: &Counters) -> Counters {
        let mut metrics = self.metrics.clone();
        for (n, v) in &other.metrics {
            match metrics.iter_mut().find(|(m, _)| m == n) {
                Some((_, mv)) => *mv += v,
                None => metrics.push((n.clone(), *v)),
            }
        }
        let mut phases = self.phases;
        for (p, o) in phases.iter_mut().zip(&other.phases) {
            p.ns += o.ns;
            p.insts += o.insts;
            p.bytes += o.bytes;
            p.count += o.count;
        }
        Counters { metrics, phases }
    }

    /// Hits over attempts for a `hits`/`misses` counter pair.
    pub fn hit_ratio(&self, hits: &str, misses: &str) -> f64 {
        let h = self.get(hits) as f64;
        crate::stats::ratio(h, h + self.get(misses) as f64)
    }

    /// Nanoseconds per instruction of a phase (0 if it never ran).
    pub fn ns_per_inst(&self, phases: &[Phase]) -> f64 {
        let (ns, insts) = phases.iter().fold((0u64, 0u64), |(n, i), &p| {
            (n + self.phase(p).ns, i + self.phase(p).insts)
        });
        crate::stats::ratio(ns as f64, insts as f64)
    }
}
