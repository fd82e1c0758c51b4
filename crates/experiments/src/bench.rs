//! Continuous-benchmarking support: the unified `simbench` baseline schema,
//! the MAD-based noise model, and regression comparison.
//!
//! The schema is one JSON object per baseline file:
//!
//! ```json
//! {"v":1,"schema":"simbench","date":"...","host":{"os":"...","cpus":1},
//!  "probes":{"pipeline.gzip.ns_per_inst":
//!    {"value":107.3,"mad":1.9,"runs":5,"unit":"ns/inst",
//!     "direction":"lower","note":"..."}}}
//! ```
//!
//! `value` is the best-of-N measurement (minimum for `lower` probes,
//! maximum for `higher`), `mad` the median absolute deviation of the N
//! samples — a robust noise scale that one scheduler hiccup cannot
//! inflate. A probe *regresses* when it moves past the baseline in the bad
//! direction by more than [`noise_band`]:
//! `max(4·(mad_base+mad_cur)/runs, 8% of baseline)`. The compared values
//! are best-of-N extremes, not medians: timing noise is one-sided
//! (additive delays on top of a noise-free floor), so the dispersion of
//! the minimum shrinks roughly with N relative to the raw sample MAD — an
//! unscaled four-MAD band on a noisy shared host is wide enough to
//! swallow a genuine 20% regression. The relative floor keeps
//! near-zero-MAD probes from tripping on sub-percent drift; a probe may
//! widen it with an explicit `"floor"` field (see [`Probe::floor`]).

use std::collections::BTreeMap;

use sim_obs::json::{self, Json};

/// Baseline schema version (`"v"` in the file).
pub const SCHEMA_VERSION: u64 = 1;

/// The `"schema"` discriminator in the file.
pub const SCHEMA_NAME: &str = "simbench";

/// Which way a probe's metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (latencies, ns/inst).
    Lower,
    /// Larger is better (speedups, throughput).
    Higher,
}

impl Direction {
    /// The schema string (`"lower"` / `"higher"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Lower => "lower",
            Direction::Higher => "higher",
        }
    }

    /// Parse the schema string.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "lower" => Ok(Direction::Lower),
            "higher" => Ok(Direction::Higher),
            other => Err(format!("direction must be lower or higher, got {other:?}")),
        }
    }
}

/// One measured probe.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    /// Best-of-N measurement.
    pub value: f64,
    /// Median absolute deviation of the N samples.
    pub mad: f64,
    /// Sample count the value came from.
    pub runs: u64,
    /// Unit label (informational).
    pub unit: String,
    /// Which way this metric improves.
    pub direction: Direction,
    /// Per-probe relative noise floor overriding the default 8%, for
    /// probes whose honest uncertainty is structural rather than
    /// statistical — e.g. a ~6 ns/inst interpreter loop swings tens of
    /// percent on code-layout changes alone, with a tiny MAD within any
    /// one binary.
    pub floor: Option<f64>,
    /// Free-form provenance note (informational).
    pub note: Option<String>,
}

/// A full baseline / measurement set.
#[derive(Debug, Clone, Default)]
pub struct Bench {
    /// `host.cpus` — available parallelism when measured.
    pub host_cpus: u64,
    /// `host.os` (informational).
    pub host_os: String,
    /// Measurement date (informational, `YYYY-MM-DD`).
    pub date: String,
    /// Probe name -> measurement.
    pub probes: BTreeMap<String, Probe>,
}

impl Bench {
    /// Serialize to the unified schema (pretty-ish, one probe per line).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"v\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA_NAME}\",");
        let _ = writeln!(out, "  \"date\": \"{}\",", json::escape(&self.date));
        let _ = writeln!(
            out,
            "  \"host\": {{\"os\": \"{}\", \"cpus\": {}}},",
            json::escape(&self.host_os),
            self.host_cpus
        );
        let _ = writeln!(out, "  \"probes\": {{");
        for (i, (name, p)) in self.probes.iter().enumerate() {
            let comma = if i + 1 < self.probes.len() { "," } else { "" };
            let floor = p
                .floor
                .map_or(String::new(), |f| format!(", \"floor\": {}", json::num(f)));
            let note = p.note.as_ref().map_or(String::new(), |n| {
                format!(", \"note\": \"{}\"", json::escape(n))
            });
            let _ = writeln!(
                out,
                "    \"{}\": {{\"value\": {}, \"mad\": {}, \"runs\": {}, \
                 \"unit\": \"{}\", \"direction\": \"{}\"{floor}{note}}}{comma}",
                json::escape(name),
                json::num(p.value),
                json::num(p.mad),
                p.runs,
                json::escape(&p.unit),
                p.direction.as_str(),
            );
        }
        let _ = writeln!(out, "  }}");
        out.push('}');
        out
    }

    /// Parse the unified schema, validating shape and version.
    pub fn parse(text: &str) -> Result<Self, String> {
        let j = Json::parse(text)?;
        let v = j
            .get("v")
            .and_then(Json::as_u64)
            .ok_or("baseline is missing the integer schema version \"v\"")?;
        if v != SCHEMA_VERSION {
            return Err(format!("schema version {v} (expected {SCHEMA_VERSION})"));
        }
        match j.get("schema").and_then(Json::as_str) {
            Some(SCHEMA_NAME) => {}
            other => {
                return Err(format!(
                    "schema discriminator {other:?} (expected {SCHEMA_NAME:?})"
                ))
            }
        }
        let mut bench = Bench {
            host_cpus: j
                .get("host")
                .and_then(|h| h.get("cpus"))
                .and_then(Json::as_u64)
                .unwrap_or(0),
            host_os: j
                .get("host")
                .and_then(|h| h.get("os"))
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            date: j
                .get("date")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            probes: BTreeMap::new(),
        };
        let Some(Json::Obj(probes)) = j.get("probes") else {
            return Err("baseline is missing the probes object".to_string());
        };
        for (name, p) in probes {
            let f = |key: &str| -> Result<f64, String> {
                p.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("probe {name:?}: {key} is not a number"))
            };
            bench.probes.insert(
                name.clone(),
                Probe {
                    value: f("value")?,
                    mad: f("mad")?,
                    runs: p.get("runs").and_then(Json::as_u64).unwrap_or(1),
                    unit: p
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    direction: Direction::parse(
                        p.get("direction")
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("probe {name:?}: missing direction"))?,
                    )?,
                    floor: p.get("floor").and_then(Json::as_f64),
                    note: p.get("note").and_then(Json::as_str).map(str::to_string),
                },
            );
        }
        Ok(bench)
    }
}

/// Best-of-N summary of raw samples: (`best` in `direction`, MAD).
///
/// MAD — the median of `|x - median|` — is the noise scale: robust to a
/// single scheduler hiccup where stddev is not.
pub fn best_and_mad(samples: &[f64], direction: Direction) -> (f64, f64) {
    assert!(!samples.is_empty(), "need at least one sample");
    let best = samples.iter().copied().fold(
        match direction {
            Direction::Lower => f64::INFINITY,
            Direction::Higher => f64::NEG_INFINITY,
        },
        |a, b| match direction {
            Direction::Lower => a.min(b),
            Direction::Higher => a.max(b),
        },
    );
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = sorted[sorted.len() / 2];
    let mut dev: Vec<f64> = sorted.iter().map(|x| (x - median).abs()).collect();
    dev.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (best, dev[dev.len() / 2])
}

/// The tolerated movement past the baseline before a probe counts as
/// regressed: `max(4·(mad_base + mad_cur)/runs, floor · |baseline|)`,
/// where `runs` is the smaller sample count of the two sides and `floor`
/// is the baseline probe's [`Probe::floor`] (default 8%). The values
/// under comparison are best-of-N extremes, not medians: timing noise is
/// one-sided — delays add to a noise-free floor, so the minimum of N
/// samples scatters roughly N× less than the samples themselves — and
/// the raw MAD sum must be deflated accordingly or a noisy host's band
/// swallows real regressions.
pub fn noise_band(base: &Probe, cur: &Probe) -> f64 {
    let runs = base.runs.min(cur.runs).max(1) as f64;
    let floor = base.floor.unwrap_or(0.08);
    (4.0 * (base.mad + cur.mad) / runs).max(floor * base.value.abs())
}

/// Verdict for one probe in a baseline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the noise band of the baseline.
    Ok,
    /// Moved past the noise band in the *good* direction.
    Improved,
    /// Moved past the noise band in the *bad* direction.
    Regressed,
    /// Probe measured now but absent from the baseline.
    New,
    /// Probe in the baseline but not measured now.
    Missing,
}

/// One row of a baseline comparison.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Probe name.
    pub name: String,
    /// Outcome.
    pub verdict: Verdict,
    /// Human-readable detail (values, band).
    pub detail: String,
}

/// Compare `current` measurements against `baseline`, probe by probe.
/// Rows come back in name order; [`Verdict::Regressed`] rows are what
/// `simbench --check` gates on.
pub fn compare(baseline: &Bench, current: &Bench) -> Vec<CompareRow> {
    let mut rows = Vec::new();
    let names: std::collections::BTreeSet<&String> = baseline
        .probes
        .keys()
        .chain(current.probes.keys())
        .collect();
    for name in names {
        let row = match (baseline.probes.get(name), current.probes.get(name)) {
            (Some(base), Some(cur)) => {
                let band = noise_band(base, cur);
                // Positive delta = moved in the bad direction.
                let bad_delta = match base.direction {
                    Direction::Lower => cur.value - base.value,
                    Direction::Higher => base.value - cur.value,
                };
                let verdict = if bad_delta > band {
                    Verdict::Regressed
                } else if -bad_delta > band {
                    Verdict::Improved
                } else {
                    Verdict::Ok
                };
                CompareRow {
                    name: name.clone(),
                    verdict,
                    detail: format!(
                        "{} -> {} {} (band ±{}, {})",
                        trim(base.value),
                        trim(cur.value),
                        cur.unit,
                        trim(band),
                        base.direction.as_str(),
                    ),
                }
            }
            (None, Some(cur)) => CompareRow {
                name: name.clone(),
                verdict: Verdict::New,
                detail: format!(
                    "{} {} (not in baseline; record with --update-baselines)",
                    trim(cur.value),
                    cur.unit
                ),
            },
            (Some(base), None) => CompareRow {
                name: name.clone(),
                verdict: Verdict::Missing,
                detail: format!(
                    "baseline {} {} not measured this run",
                    trim(base.value),
                    base.unit
                ),
            },
            (None, None) => unreachable!("name came from one of the maps"),
        };
        rows.push(row);
    }
    rows
}

/// Three significant-ish decimals without trailing zeros.
fn trim(v: f64) -> String {
    let s = format!("{v:.3}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(value: f64, mad: f64, direction: Direction) -> Probe {
        Probe {
            value,
            mad,
            runs: 5,
            unit: "ns".to_string(),
            direction,
            floor: None,
            note: None,
        }
    }

    #[test]
    fn schema_round_trips() {
        let mut b = Bench {
            host_cpus: 4,
            host_os: "Linux".to_string(),
            date: "2026-08-09".to_string(),
            probes: BTreeMap::new(),
        };
        b.probes.insert(
            "pipeline.gzip.ns_per_inst".to_string(),
            probe(107.3, 1.9, Direction::Lower),
        );
        let mut with_note = probe(3.2, 0.1, Direction::Higher);
        with_note.note = Some("speed\"up".to_string());
        b.probes.insert("shard.speedup".to_string(), with_note);
        let mut with_floor = probe(6.0, 0.05, Direction::Lower);
        with_floor.floor = Some(0.5);
        b.probes.insert("nano.loop".to_string(), with_floor);
        let parsed = Bench::parse(&b.to_json()).expect("round trip parses");
        assert_eq!(parsed.host_cpus, 4);
        assert_eq!(parsed.probes, b.probes);
    }

    #[test]
    fn per_probe_floor_widens_the_band() {
        // A 33% move on a nanobenchmark: regressed under the default 8%
        // floor, tolerated once the baseline declares a 50% structural
        // floor (code-layout sensitivity).
        let mut base = probe(6.0, 0.0, Direction::Lower);
        let cur = probe(8.0, 0.0, Direction::Lower);
        assert!(noise_band(&base, &cur) < 2.0);
        base.floor = Some(0.5);
        assert_eq!(noise_band(&base, &cur), 3.0);
    }

    #[test]
    fn version_and_schema_are_enforced() {
        assert!(
            Bench::parse("{\"v\":2,\"schema\":\"simbench\",\"probes\":{}}")
                .unwrap_err()
                .contains("schema version")
        );
        let err = Bench::parse("{\"v\":1,\"probes\":{}}").unwrap_err();
        assert!(err.contains("schema discriminator"), "{err}");
    }

    #[test]
    fn best_and_mad_are_robust_to_one_outlier() {
        let (best, mad) = best_and_mad(&[10.0, 11.0, 10.5, 50.0, 10.2], Direction::Lower);
        assert_eq!(best, 10.0);
        assert!(mad < 1.0, "one hiccup must not inflate the MAD: {mad}");
        let (best, _) = best_and_mad(&[1.0, 3.0, 2.0], Direction::Higher);
        assert_eq!(best, 3.0);
    }

    #[test]
    fn compare_flags_regressions_beyond_the_band_only() {
        let mut base = Bench::default();
        let mut cur = Bench::default();
        base.probes
            .insert("a".into(), probe(100.0, 1.0, Direction::Lower));
        cur.probes
            .insert("a".into(), probe(104.0, 1.0, Direction::Lower)); // within 8%
        base.probes
            .insert("b".into(), probe(100.0, 1.0, Direction::Lower));
        cur.probes
            .insert("b".into(), probe(120.0, 1.0, Direction::Lower)); // 20% up
        base.probes
            .insert("c".into(), probe(2.0, 0.01, Direction::Higher));
        cur.probes
            .insert("c".into(), probe(1.5, 0.01, Direction::Higher)); // speedup lost
        base.probes
            .insert("d".into(), probe(100.0, 1.0, Direction::Lower));
        cur.probes
            .insert("d".into(), probe(80.0, 1.0, Direction::Lower)); // improved
        cur.probes
            .insert("e".into(), probe(1.0, 0.0, Direction::Lower)); // new
        base.probes
            .insert("f".into(), probe(1.0, 0.0, Direction::Lower)); // missing
        let verdicts: BTreeMap<String, Verdict> = compare(&base, &cur)
            .into_iter()
            .map(|r| (r.name, r.verdict))
            .collect();
        assert_eq!(verdicts["a"], Verdict::Ok);
        assert_eq!(verdicts["b"], Verdict::Regressed);
        assert_eq!(verdicts["c"], Verdict::Regressed);
        assert_eq!(verdicts["d"], Verdict::Improved);
        assert_eq!(verdicts["e"], Verdict::New);
        assert_eq!(verdicts["f"], Verdict::Missing);
    }

    #[test]
    fn hand_inflated_baseline_makes_check_fail() {
        // The acceptance demo: measuring the same value against a baseline
        // whose value was hand-inflated 20% must regress for a `higher`
        // probe (and symmetrically a deflated `lower` baseline).
        let measured = probe(100.0, 1.0, Direction::Lower);
        let mut inflated = measured.clone();
        inflated.value *= 0.8; // pretend the past was 20% faster
        let mut base = Bench::default();
        let mut cur = Bench::default();
        base.probes.insert("p".into(), inflated);
        cur.probes.insert("p".into(), measured);
        let rows = compare(&base, &cur);
        assert_eq!(rows[0].verdict, Verdict::Regressed, "{}", rows[0].detail);
    }
}
