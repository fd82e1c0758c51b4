//! `serve-reuse`: the service's documented use — sweep jobs submitted to a
//! `sim_serve` daemon on a persistent store, then resubmitted after daemon
//! restarts — driven in-process by two clients, each waiting for a job's
//! reply before sending the next (a closed loop).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use sim_obs::json::Json;
use sim_obs::trace::Phase;
use sim_serve::{Client, JobDesc, Server, ServerConfig};
use techniques::{run_technique, PreparedBench, TechniqueSpec};

use crate::report::{family, Layers, Outcome};
use crate::spans::{Counters, Recorder};
use crate::stats::{self, median, quantile, ratio, Digest, Rng};
use crate::{Args, RUN_DIR};

/// Stream scale of every job.
const SCALE: f64 = 0.02;

/// Client connections (each carries one job at a time).
const CONNS: usize = 2;

/// Daemon lifetimes per round, all on the round's store: the first
/// computes every sweep job, each later one starts after a restart and
/// resubmits them all, so its first submission of a job is served from the
/// store.
const EPOCHS: usize = 8;

/// Repeats per epoch of a job already answered in that epoch (run-cache
/// hits), on top of one submission of every distinct job. With 40 distinct
/// jobs this makes each round 1/12 first computations, 7/12 store
/// restores and 1/3 run-cache hits: the median falls well inside the
/// store restores and the 95th percentile well inside the computations,
/// not on the edge between two kinds of job.
const REPEATS: usize = 20;

/// A repeat names a job first sent at least this many jobs earlier in its
/// epoch, and its client waits for that job's `done` line before sending
/// it, so a repeat is never computed a second time.
const MIN_REPEAT_LAG: usize = 4;

/// Measured seconds of one round on the reference host; `--seconds` is
/// rounded to whole rounds.
const ROUND_SECONDS: f64 = 1.5;

/// In a traced run, every Nth job on a connection is followed by a
/// one-job `status` request (control-line ack latency) and a full `status`
/// listing (queue depth). A daemon lives one epoch, so a listing stays
/// short.
const STATUS_EVERY: usize = 16;

const BENCHES: [&str; 10] = [
    "gzip",
    "vpr-place",
    "vpr-route",
    "gcc",
    "art",
    "mcf",
    "equake",
    "perlbmk",
    "vortex",
    "bzip2",
];
/// Every job runs all four specs (a sweep, as `simctl submit --spec a,b`
/// sends), so a store-restored job reads four records.
const SPECS: [&str; 4] = [
    "runz:z=20k",
    "ffrun:x=20k,z=10k",
    "smarts:u=1000,w=2000",
    // Not Table 1's u=100,w=20000: on vpr-route at this scale it measures
    // no instruction and reports CPI = inf (a runner defect, see README.md).
    "smarts:u=10000,w=20000",
];
/// The Table 3 machines. `default` is left out: two jobs whose runs share
/// store keys would race to compute them.
const CONFIGS: [&str; 4] = ["table3:1", "table3:2", "table3:3", "table3:4"];

/// One distinct sweep job: a benchmark under one config, every spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Key {
    bench: usize,
    cfg: usize,
}

impl Key {
    fn desc(self) -> JobDesc {
        JobDesc {
            benches: vec![BENCHES[self.bench].to_string()],
            scale: SCALE,
            specs: SPECS.iter().map(|s| s.to_string()).collect(),
            configs: vec![CONFIGS[self.cfg].to_string()],
            priority: 0,
        }
    }
}

/// How a job's records must be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Served {
    Computed,
    Store,
    Cache,
}

impl Served {
    fn name(self) -> &'static str {
        match self {
            Served::Computed => "computed",
            Served::Store => "store-restore",
            Served::Cache => "cache",
        }
    }

    fn of(provenance: &str) -> Served {
        match provenance {
            "store-restore" => Served::Store,
            "cache" => Served::Cache,
            _ => Served::Computed,
        }
    }
}

struct Job {
    key: Key,
    round: usize,
    expect: Served,
    /// For a repeat: the epoch-local index of the key's first job, whose
    /// answer the repeat waits for.
    after: Option<usize>,
}

/// One daemon lifetime's seeded jobs: every distinct job once in a fresh
/// shuffle, with `REPEATS` repeats at seeded positions (none among the
/// first `MIN_REPEAT_LAG`), each naming a uniformly drawn job first sent
/// at least `MIN_REPEAT_LAG` earlier. The per-epoch counts are fixed, so
/// the seed moves order and pairing, never the mix.
fn plan_epoch(rng: &mut Rng, catalog: &[Key], round: usize, epoch: usize) -> Vec<Job> {
    let mut keys = catalog.to_vec();
    rng.shuffle(&mut keys);
    let total = keys.len() + REPEATS;
    let mut repeat = vec![false; total];
    let mut slots: Vec<usize> = (MIN_REPEAT_LAG..total).collect();
    rng.shuffle(&mut slots);
    for &s in &slots[..REPEATS] {
        repeat[s] = true;
    }
    let first = if epoch == 0 {
        Served::Computed
    } else {
        Served::Store
    };
    let mut fresh = keys.into_iter();
    // Distinct keys in first-submission order, with that job's index.
    let mut sent: Vec<(Key, usize)> = Vec::new();
    let mut jobs = Vec::with_capacity(total);
    for (t, &is_repeat) in repeat.iter().enumerate() {
        let job = if is_repeat {
            let eligible = sent.partition_point(|&(_, at)| at + MIN_REPEAT_LAG <= t);
            let (key, at) = sent[rng.below(eligible)];
            Job {
                key,
                round,
                expect: Served::Cache,
                after: Some(at),
            }
        } else {
            let key = fresh.next().expect("a fresh slot per distinct job");
            sent.push((key, t));
            Job {
                key,
                round,
                expect: first,
                after: None,
            }
        };
        jobs.push(job);
    }
    jobs
}

/// The seeded job list, grouped by round and epoch.
fn plan(seed: u64, rounds: usize) -> Vec<Vec<Vec<Job>>> {
    let mut rng = Rng::new(seed, 3);
    let mut catalog = Vec::new();
    for bench in 0..BENCHES.len() {
        for cfg in 0..CONFIGS.len() {
            catalog.push(Key { bench, cfg });
        }
    }
    (0..rounds)
        .map(|r| {
            (0..EPOCHS)
                .map(|e| plan_epoch(&mut rng, &catalog, r, e))
                .collect()
        })
        .collect()
}

/// A job as the client saw it. Times are ns since the recorder epoch.
struct JobOut<R> {
    /// When the connection's previous job finished (or the epoch began).
    ready: u64,
    send: u64,
    first_record: Option<u64>,
    done: u64,
    res: Result<R, String>,
}

/// A job's answer as it arrived: terminal state and record lines.
type Answer = (String, Vec<String>);

/// A running daemon plus its two client connections.
struct Daemon {
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
}

fn start(store: &Path) -> Result<Daemon, String> {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: sim_exec::jobs(),
        active: CONNS,
        queue_cap: 256,
        drain_timeout: Duration::from_secs(60),
        store: Some(store.to_path_buf()),
    })
    .map_err(|e| format!("daemon bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("daemon address: {e}"))?
        .to_string();
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    let mut clients = Vec::new();
    for _ in 0..CONNS {
        let mut c = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        c.ping()?;
        clients.push(c);
    }
    Ok(Daemon {
        shutdown,
        thread,
        clients,
    })
}

/// A daemon start as a freshly started `simserve --store` process pays it:
/// the store's index rebuilt from disk, the bind, both connections.
fn timed_start(store: &Path, setup_ns: &mut Vec<f64>) -> Result<Daemon, String> {
    let t = Instant::now();
    sim_store::Store::open(store).map_err(|e| format!("store open: {e}"))?;
    let d = start(store)?;
    setup_ns.push(t.elapsed().as_nanos() as f64);
    Ok(d)
}

impl Daemon {
    /// Close the connections, then drain and stop the daemon (which
    /// flushes the store).
    fn stop(self) -> Result<(), String> {
        drop(self.clients);
        self.shutdown.store(true, Ordering::SeqCst);
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// Which of an epoch's jobs have been answered; a repeat's client waits
/// here for its key's first job.
struct Answered {
    done: Mutex<Vec<bool>>,
    cv: Condvar,
}

impl Answered {
    fn new(n: usize) -> Answered {
        Answered {
            done: Mutex::new(vec![false; n]),
            cv: Condvar::new(),
        }
    }

    fn wait(&self, i: usize) {
        let mut done = self.done.lock().expect("answered poisoned");
        while !done[i] {
            done = self.cv.wait(done).expect("answered poisoned");
        }
    }

    fn mark(&self, i: usize) {
        self.done.lock().expect("answered poisoned")[i] = true;
        self.cv.notify_all();
    }
}

/// Status probes of a traced run: round-trip ns and jobs queued or
/// running.
#[derive(Default)]
struct Probes {
    ack_ns: Vec<f64>,
    depth_max: u64,
}

/// Run one epoch's jobs over the daemon's connections, closed loop: each
/// connection claims the next job as soon as its previous one is done.
/// Answers are checked once the epoch is over, so the run keeps parsed
/// records rather than every streamed line.
fn run_epoch(
    jobs: &[Job],
    daemon: &mut Daemon,
    rec: &Recorder,
    probes: &Mutex<Probes>,
) -> Vec<JobOut<[Record; SPECS.len()]>> {
    let next = AtomicUsize::new(0);
    let answered = Answered::new(jobs.len());
    let outs = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|s| {
        for client in daemon.clients.iter_mut() {
            let (next, outs, answered) = (&next, &outs, &answered);
            s.spawn(move || {
                let mut sent = 0usize;
                let mut ready = rec.now();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    if let Some(first) = job.after {
                        answered.wait(first);
                    }
                    let op = rec.open();
                    let send = rec.now();
                    let mut first_record = None;
                    let mut lines = Vec::new();
                    let res = client.submit_streaming(&job.key.desc(), |line| {
                        first_record.get_or_insert_with(|| rec.now());
                        lines.push(line.to_string());
                    });
                    let done = rec.now();
                    answered.mark(i);
                    rec.record(0, "bench.client", 0, op, ready, send);
                    rec.record(op, "op", 0, op, send, done);
                    let id = res.as_ref().ok().map(|o| o.id);
                    outs.lock().expect("outcomes poisoned").push((
                        i,
                        JobOut {
                            ready,
                            send,
                            first_record,
                            done,
                            res: res
                                .map(|o| (o.state, lines))
                                .map_err(|e| format!("submit failed: {e}")),
                        },
                    ));
                    sent += 1;
                    if rec.on() && sent.is_multiple_of(STATUS_EVERY) {
                        probe(client, id, rec, probes);
                    }
                    ready = rec.now();
                }
            });
        }
    });
    let mut outs: Vec<(usize, JobOut<Answer>)> = outs.into_inner().expect("outcomes poisoned");
    outs.sort_by_key(|(i, _)| *i);
    outs.into_iter()
        .map(|(i, o)| JobOut {
            res: o.res.and_then(|a| check_job(&jobs[i], a)),
            ready: o.ready,
            send: o.send,
            first_record: o.first_record,
            done: o.done,
        })
        .collect()
}

/// The traced run's status probes after a job.
fn probe(client: &mut Client, id: Option<u64>, rec: &Recorder, probes: &Mutex<Probes>) {
    if let Some(id) = id {
        let t = rec.now();
        if client.status(Some(id)).is_ok() {
            let t1 = rec.now();
            rec.record(0, "sim-serve.status", 0, 0, t, t1);
            probes
                .lock()
                .expect("probes poisoned")
                .ack_ns
                .push((t1 - t) as f64);
        }
    }
    let t = rec.now();
    if let Ok(line) = client.status(None) {
        rec.record(0, "sim-serve.status", 0, 0, t, rec.now());
        let mut p = probes.lock().expect("probes poisoned");
        p.depth_max = p.depth_max.max(active_jobs(&line));
    }
}

/// Jobs queued or running in a `status` control line.
fn active_jobs(line: &str) -> u64 {
    ["\"state\":\"queued\"", "\"state\":\"running\""]
        .iter()
        .map(|s| line.matches(s).count() as u64)
        .sum()
}

/// The parsed `SPECS`, in order.
fn specs() -> &'static [TechniqueSpec] {
    static SPECS_PARSED: OnceLock<Vec<TechniqueSpec>> = OnceLock::new();
    SPECS_PARSED.get_or_init(|| {
        SPECS
            .iter()
            .map(|s| {
                let mut v = techniques::jobs::parse_specs(s, SCALE).expect("known spec");
                assert_eq!(v.len(), 1, "{s} names one permutation");
                v.remove(0)
            })
            .collect()
    })
}

/// One streamed run record, reduced to what the benchmark checks. It
/// holds no heap data: a run keeps one per record it was sent.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// Index into `SPECS`.
    spec: usize,
    words: [u64; 7],
    served: Served,
    wall_ns: u64,
    core_ns: u64,
}

fn parse_record(line: &str) -> Result<Record, String> {
    let j = Json::parse(line).map_err(|e| format!("bad record: {e}"))?;
    let num = |v: Option<&Json>, what: &str| {
        v.and_then(Json::as_u64)
            .ok_or_else(|| format!("record without {what}"))
    };
    let cost = j.get("cost").ok_or("record without cost")?;
    let cpi = j
        .get("cpi")
        .and_then(Json::as_f64)
        .filter(|c| c.is_finite() && *c > 0.0)
        .ok_or("record with a non-finite CPI")?;
    let mut core_ns = 0;
    if let Some(phases) = j.get("phases") {
        for p in [
            Phase::FastForward,
            Phase::WarmUp,
            Phase::Measure,
            Phase::FunctionalWarm,
        ] {
            core_ns += phases
                .get(p.name())
                .and_then(|a| a.get("ns"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
        }
    }
    let text = |k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    Ok(Record {
        spec: specs()
            .iter()
            .position(|s| s.label() == text("spec"))
            .ok_or_else(|| format!("record for unknown spec {:?}", text("spec")))?,
        words: [
            cpi.to_bits(),
            num(j.get("measured_insts"), "measured_insts")?,
            num(cost.get("detailed"), "cost.detailed")?,
            num(cost.get("warmed"), "cost.warmed")?,
            num(cost.get("skipped"), "cost.skipped")?,
            num(cost.get("profiled"), "cost.profiled")?,
            num(cost.get("extra_runs"), "cost.extra_runs")?,
        ],
        served: Served::of(&text("provenance")),
        wall_ns: num(j.get("wall_ns"), "wall_ns")?,
        core_ns,
    })
}

/// A job's records, checked: one per spec, none non-finite, each served
/// the way the job's place in its epoch requires.
fn check_job(job: &Job, (state, lines): Answer) -> Result<[Record; SPECS.len()], String> {
    if state != "done" {
        return Err(format!("job ended {state:?}"));
    }
    if lines.len() != SPECS.len() {
        return Err(format!("{} records, not {}", lines.len(), SPECS.len()));
    }
    let mut recs = lines
        .iter()
        .map(|l| parse_record(l))
        .collect::<Result<Vec<_>, _>>()?;
    recs.sort_by_key(|r| r.spec);
    for (k, r) in recs.iter().enumerate() {
        if r.spec != k {
            return Err(format!("no record for {}", SPECS[k]));
        }
        if r.served != job.expect {
            return Err(format!(
                "{} served by {}, expected {}",
                SPECS[r.spec],
                r.served.name(),
                job.expect.name()
            ));
        }
    }
    Ok(recs.try_into().expect("one record per spec"))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = PathBuf::from(RUN_DIR).join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_dir = dir.join("store");
    let result = run_in(args, &store_dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// What the rounds left behind for checking and metrics.
struct Rounds {
    /// Every job's outcome, in plan order (round, epoch, job).
    outs: Vec<JobOut<[Record; SPECS.len()]>>,
    /// Wall per round: each epoch's first send to its last `done`, summed
    /// (the restarts between epochs are set-up, in `setup_ns`).
    walls: Vec<f64>,
    setup_ns: Vec<f64>,
    /// Counter deltas summed over every daemon lifetime.
    delta: Counters,
}

fn run_rounds(
    plan: &[Vec<Vec<Job>>],
    store_dir: &Path,
    rec: &Recorder,
    probes: &Mutex<Probes>,
) -> Result<Rounds, String> {
    let mut s = Rounds {
        outs: Vec::new(),
        walls: Vec::new(),
        setup_ns: Vec::new(),
        delta: Counters::default(),
    };
    for (r, epochs) in plan.iter().enumerate() {
        if r > 0 {
            // A fresh round starts from an empty store, as on a new store
            // directory, and empty in-memory tiers. (Not before the first
            // bind: the first `sim_store::global()` call fixes the
            // process-wide store, and only the bind installs it.)
            let store = sim_store::global().ok_or("no process-wide store after bind")?;
            store.gc(0).map_err(|e| format!("store reset: {e}"))?;
            techniques::cache::clear_all();
        }
        let mut daemon = timed_start(store_dir, &mut s.setup_ns)?;
        let mut wall = 0.0;
        for (e, jobs) in epochs.iter().enumerate() {
            if e > 0 {
                // Restart on the same store. `clear_all` empties the
                // in-memory reuse tiers, as a fresh daemon process starts.
                let r0 = rec.now();
                daemon.stop()?;
                techniques::cache::clear_all();
                daemon = timed_start(store_dir, &mut s.setup_ns)?;
                rec.record(0, "sim-serve.restart", 0, 0, r0, rec.now());
            }
            let before = Counters::now();
            let outs = run_epoch(jobs, &mut daemon, rec, probes);
            s.delta = s.delta.plus(&Counters::now().since(&before));
            let first_send = outs.iter().map(|o| o.send).min().unwrap_or(0);
            let last_done = outs.iter().map(|o| o.done).max().unwrap_or(0);
            wall += (last_done - first_send) as f64;
            s.outs.extend(outs);
        }
        daemon.stop()?;
        s.walls.push(wall);
    }
    Ok(s)
}

fn run_in(args: &Args, store_dir: &Path) -> Result<Outcome, String> {
    let rounds = ((args.seconds as f64 / ROUND_SECONDS).round() as usize).max(1);
    let plan = plan(args.seed, rounds);
    let jobs: Vec<&Job> = plan.iter().flatten().flatten().collect();
    let rec = Recorder::new(args.trace);
    let probes = Mutex::new(Probes::default());
    let mut out = Outcome::default();

    let s = run_rounds(&plan, store_dir, &rec, &probes)?;

    // Checks, reuse verification and the digest, in plan order.
    let mut digest = Digest::default();
    let mut first_seen: HashMap<(Key, usize), [u64; 7]> = HashMap::new();
    for (i, (job, o)) in jobs.iter().zip(&s.outs).enumerate() {
        match &o.res {
            Ok(recs) => {
                for r in recs {
                    for w in r.words {
                        digest.word(w);
                    }
                    let first = *first_seen.entry((job.key, r.spec)).or_insert(r.words);
                    if first != r.words {
                        out.fail(format!(
                            "job {i}: {} {} result differs from its first computation",
                            SPECS[r.spec],
                            r.served.name()
                        ));
                    }
                }
            }
            Err(e) => {
                digest.word(u64::MAX);
                out.fail(format!(
                    "job {i} ({} {}): {e}",
                    BENCHES[job.key.bench], CONFIGS[job.key.cfg]
                ));
            }
        }
    }
    let store = sim_store::global().ok_or("no process-wide store after bind")?;
    let report = store.verify().map_err(|e| format!("store verify: {e}"))?;
    for p in &report.problems {
        out.fail(format!("store verify: {p}"));
    }
    let stat = store.stat().map_err(|e| format!("store stat: {e}"))?;
    out.attempted = jobs.len() as u64;
    out.digest = digest.value();

    // Computed work, each (round, key, spec) once; a second computation of
    // the same run in a round would be reuse the daemon missed.
    let mut computed: HashSet<(usize, Key, usize)> = HashSet::new();
    let mut work = 0u64;
    let mut twice = 0usize;
    for (job, o) in jobs.iter().zip(&s.outs) {
        for r in o.res.iter().flatten() {
            if r.served != Served::Computed {
                continue;
            }
            if computed.insert((job.round, job.key, r.spec)) {
                work += r.words[2] + r.words[3];
            } else {
                twice += 1;
            }
        }
    }
    let wall_ns = median(&s.walls);
    let lat_ms: Vec<f64> = s
        .outs
        .iter()
        .map(|o| (o.done - o.send) as f64 / 1e6)
        .collect();
    out.line(format!(
        "rounds: {rounds} x {EPOCHS} daemon lifetimes; {} jobs of {} runs, {} distinct; \
         runs computed twice: {twice}",
        jobs.len(),
        SPECS.len(),
        BENCHES.len() * CONFIGS.len()
    ));
    out.line(format!(
        "store after the last round: {} records, {} bytes",
        report.records_ok, stat.disk_bytes
    ));
    out.line(format!(
        "op latency samples: {} ({} beyond p95)",
        lat_ms.len(),
        stats::beyond(&lat_ms, 0.95)
    ));
    let mut by_served: BTreeMap<Served, Vec<f64>> = BTreeMap::new();
    for (job, lat) in jobs.iter().zip(&lat_ms) {
        by_served.entry(job.expect).or_default().push(*lat);
    }
    for (served, lat) in &by_served {
        out.line(format!(
            "  {:<14} {:>6} jobs ({:5.1}%): latency p50 {:.3} ms p95 {:.3} ms",
            served.name(),
            lat.len(),
            100.0 * lat.len() as f64 / lat_ms.len() as f64,
            median(lat),
            quantile(lat, 0.95)
        ));
    }

    if args.trace {
        let turnaround_ms: Vec<f64> = s
            .outs
            .iter()
            .map(|o| (o.send - o.ready) as f64 / 1e6)
            .collect();
        let budget = s.walls.iter().sum::<f64>() * CONNS as f64;
        out.layers = layers(
            &s,
            &rec,
            &probes,
            budget,
            &turnaround_ms,
            stat.disk_bytes,
            &mut out.lines,
        );
        out.trace = Some(rec);
        return Ok(out);
    }

    // CPI error against the reference of each (bench, config), computed
    // after the last daemon is gone and checked like a batch run.
    let pairs: Vec<Key> = {
        let mut p: Vec<Key> = first_seen.keys().map(|(k, _)| *k).collect();
        p.sort_unstable();
        p.dedup();
        p
    };
    let preps: Vec<PreparedBench> = BENCHES
        .iter()
        .map(|b| PreparedBench::by_name_scaled(b, SCALE).expect("suite benchmark"))
        .collect();
    let refs: Vec<Result<f64, String>> = sim_exec::par_map(&pairs, |k| {
        let cfg = techniques::jobs::parse_config(CONFIGS[k.cfg]).expect("known config");
        let res = Ok(run_technique(
            &TechniqueSpec::Reference,
            &preps[k.bench],
            &cfg,
        ));
        crate::batch::check(&TechniqueSpec::Reference, &res).map(|r| r.metrics.cpi)
    });
    let refs: BTreeMap<Key, f64> = pairs
        .iter()
        .zip(refs)
        .filter_map(|(k, r)| match r {
            Ok(cpi) => Some((*k, cpi)),
            Err(e) => {
                out.fail(format!(
                    "reference {} {}: {e}",
                    BENCHES[k.bench], CONFIGS[k.cfg]
                ));
                None
            }
        })
        .collect();
    // Error per distinct run (repeats would weight runs by the draw),
    // summed in sorted order so the seed cannot move the last digits.
    let mut errs: Vec<f64> = Vec::new();
    let mut runs: Vec<(&(Key, usize), &[u64; 7])> = first_seen.iter().collect();
    runs.sort();
    for ((key, _), words) in runs {
        if let Some(cref) = refs.get(key) {
            errs.push((f64::from_bits(words[0]) - cref).abs() / cref);
        }
    }
    errs.sort_by(f64::total_cmp);

    out.e2e("setup_s", median(&s.setup_ns) / 1e9, "s");
    out.e2e("wall_s", wall_ns / 1e9, "s");
    out.e2e("op_p50_ms", median(&lat_ms), "ms");
    out.e2e("op_p95_ms", quantile(&lat_ms, 0.95), "ms");
    out.e2e(
        "sim_mips",
        ratio(work as f64 / rounds as f64, wall_ns / 1e9) / 1e6,
        "Minst/s",
    );
    out.e2e(
        "max_rate_ops_per_s",
        ratio(jobs.len() as f64 / rounds as f64, wall_ns / 1e9),
        "ops/s",
    );
    out.e2e("peak_rss_mb", stats::peak_rss_mb(), "MB");
    out.e2e(
        "cpi_err_pct",
        100.0 * errs.iter().sum::<f64>() / errs.len().max(1) as f64,
        "%",
    );
    Ok(out)
}

/// Per-layer metrics of a traced run, and the reconciliation of layer
/// self times against `Σ round wall × connections`.
#[allow(clippy::too_many_arguments)]
fn layers(
    s: &Rounds,
    rec: &Recorder,
    probes: &Mutex<Probes>,
    budget: f64,
    turnaround_ms: &[f64],
    store_bytes: u64,
    lines: &mut Vec<String>,
) -> Layers {
    let mut l = Layers::default();
    let delta = &s.delta;
    let spans = rec.spans();
    let probes = probes.lock().expect("probes poisoned");

    let (mut run_ns, mut core_ns, mut tech_ns, mut service_ns) = (0.0, 0.0, 0.0, 0.0);
    let mut by_family: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for o in &s.outs {
        service_ns += (o.done - o.send) as f64;
        for r in o.res.iter().flatten() {
            run_ns += r.wall_ns as f64;
            core_ns += r.core_ns as f64;
            tech_ns += r.wall_ns.saturating_sub(r.core_ns) as f64;
            if r.served == Served::Computed {
                by_family
                    .entry(family(specs()[r.spec].kind()))
                    .or_default()
                    .push(r.wall_ns as f64 / 1e6);
            }
        }
    }
    let span_ns = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .sum()
    };
    let status_ns = span_ns("sim-serve.status");
    let client_ns = span_ns("bench.client");
    let queue_wait_ns = delta.get("par_map.queue_wait_ns") as f64;
    // Phases are thread time and a job's runs overlap on the spare
    // worker, so per-record sums can exceed the job's service time; what
    // is left of the service time is the daemon's own.
    let serve_ns = (service_ns - run_ns - queue_wait_ns).max(0.0) + status_ns;
    let bench_ns = client_ns + rec.cost_ns() as f64;
    let unattributed = budget - (core_ns + tech_ns + queue_wait_ns + serve_ns + bench_ns);

    lines.push(format!(
        "reconcile: round walls {:.3} s x {CONNS} connections = {:.3} s",
        budget / CONNS as f64 / 1e9,
        budget / 1e9
    ));
    for (name, ns, what) in [
        (
            "sim-core",
            core_ns,
            "sim-core phases of streamed records (thread time)",
        ),
        ("techniques", tech_ns, "record wall minus sim-core phases"),
        (
            "sim-exec",
            queue_wait_ns,
            "par_map first-claim wait in the daemon",
        ),
        (
            "sim-serve",
            serve_ns,
            "job service minus record wall, + status probes",
        ),
        (
            "bench",
            bench_ns,
            "client turnaround between jobs + span recording",
        ),
        ("unattributed", unattributed, "remainder"),
    ] {
        lines.push(format!(
            "  {name:<13} {:>9.3} s {:>6.2}%  {what}",
            ns / 1e9,
            100.0 * ratio(ns, budget)
        ));
    }
    lines.push("simpoint share: 0% (no SimPoint jobs in this workload)".to_string());

    l.set("sim-core.self_frac", ratio(core_ns, budget));
    l.set("techniques.self_frac", ratio(tech_ns, budget));
    l.set("sim-exec.self_frac", ratio(queue_wait_ns, budget));
    l.set("sim-serve.self_frac", ratio(serve_ns, budget));
    l.set("bench.self_frac", ratio(bench_ns, budget));
    l.set("bench.unattributed_frac", ratio(unattributed, budget));
    // Tracing is on in both modes here (the daemon forces it); the extra
    // cost of a traced run is the span recording and the status probes.
    l.set(
        "bench.trace_overhead_pct",
        100.0 * ratio(rec.cost_ns() as f64 + status_ns, budget),
    );
    // A closed loop has no send schedule to fall behind; the generator's
    // own delay is its turnaround from one job's reply to the next send
    // (including a repeat's wait for its first job).
    l.set("bench.gen_late_ms.p95", quantile(turnaround_ms, 0.95));

    let t = Instant::now();
    let preps: Vec<PreparedBench> = BENCHES
        .iter()
        .map(|b| PreparedBench::by_name_scaled(b, SCALE).expect("suite benchmark"))
        .collect();
    l.set("workloads.build_ms", t.elapsed().as_nanos() as f64 / 1e6);
    l.set(
        "workloads.interp_ns_per_inst",
        crate::batch::interp_ns_per_inst(&preps),
    );
    l.set(
        "workloads.tcache_hit_ratio",
        delta.hit_ratio("pipeline.trace_cache.hit", "pipeline.trace_cache.miss"),
    );
    l.sim_core(delta);
    for (fam, v) in &by_family {
        l.set_family(fam, v);
    }
    l.techniques(delta);
    l.set(
        "sim-exec.busy_frac",
        ratio(delta.get("par_map.busy_ns") as f64, budget),
    );
    l.set("sim-exec.queue_wait_ms", queue_wait_ns / 1e6);
    l.set(
        "sim-exec.shard_merge_wait_ms",
        delta.get("shard.merge_wait_ns") as f64 / 1e6,
    );
    l.set(
        "sim-store.hit_ratio",
        delta.hit_ratio("store.hit", "store.miss"),
    );
    l.set("sim-store.writes", delta.get("store.write") as f64);
    l.set("sim-store.bytes", store_bytes as f64);
    l.set("sim-serve.ack_ms", median(&probes.ack_ns) / 1e6);
    let first_ms: Vec<f64> = s
        .outs
        .iter()
        .filter_map(|o| o.first_record.map(|f| (f - o.send) as f64 / 1e6))
        .collect();
    l.set("sim-serve.first_record_ms.p50", median(&first_ms));
    l.set("sim-serve.first_record_ms.p95", quantile(&first_ms, 0.95));
    l.set("sim-serve.queue_depth_max", probes.depth_max as f64);
    l
}
