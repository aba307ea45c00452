//! End-to-end and per-layer benchmark of the swapcons model checker and
//! valency oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload check_full --seed 1 --seconds 15 --trace 0
//! ```
//!
//! With `--trace 0` the run repeats the workload's operation in a closed
//! loop for `--seconds` and reports the end-to-end metrics. With
//! `--trace 1` it runs the traced pass instead (see [`layers`]) and
//! reports the per-layer metrics. Either way every operation is checked
//! against its pinned outcome, a result record with provenance is printed,
//! and the last line of standard output is the summary object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` in this
//! directory for the workloads, the metrics and the baseline.

mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::hint::black_box;
use std::time::Instant;

use report::{proc_status_bytes, provenance, Json};
use stats::{tail_percentile, Summary};
use workloads::{
    checker_setup, gate, oracle, oracle_protocol, pinned, pinned_digest, query_configs,
    reference_verdict, run_check, verdict_digest, Workload, QUERY_GROUP,
};

const USAGE: &str =
    "usage: perfbench --workload <check_full|check_reduced|check_sharded|oracle_queries> \
     --seed <n> --seconds <n> --trace <0|1>";

/// Parsed command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Operations attempted and failed, with the first few failure messages.
/// A failure is recorded, never raised: one bad operation must not cost
/// the run its other results.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(msg);
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A measured metric as the summary line prints it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a run produces: the summary line's metrics, the operation tally,
/// and record-only details (timing quartiles, derived rates, digests).
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub details: Vec<(String, Json)>,
}

/// Time `reps` calls of `f` per sample, `samples` times; the per-call
/// seconds of each sample.
fn time_setup<T>(samples: usize, reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect()
}

pub fn summary_json(s: &Summary, unit: &str) -> Json {
    Json::obj([
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::Int(s.n as u64)),
        ("unit", Json::str(unit)),
    ])
}

pub fn peak_rss_bytes() -> f64 {
    proc_status_bytes("VmHWM").unwrap_or(0) as f64
}

/// Closed loop of check calls for `args.seconds` (at least one call).
fn measure_checker(args: &Args) -> Outcome {
    let w = args.workload;
    let pinned = pinned(w).expect("checker workloads are pinned");
    let (protocol, _) = checker_setup(w);
    let mut tally = Tally::default();
    let mut times = Vec::new();
    let mut setup_samples = Vec::new();
    let start = Instant::now();
    while times.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        // Set-up is sampled before every operation rather than once, so its
        // median spans the whole run like the operations' does.
        setup_samples.extend(time_setup(5, 200, || checker_setup(w)));
        let t = Instant::now();
        let report = black_box(run_check(w, &protocol));
        times.push(t.elapsed().as_secs_f64());
        tally.record(gate(&report, &pinned));
    }
    let loop_s = start.elapsed().as_secs_f64();
    let setup = Summary::of(&setup_samples);
    let verdict = Summary::of(&times);
    let peak = peak_rss_bytes();
    Outcome {
        metrics: vec![
            metric("setup_s", "s", setup.median),
            metric("op_ms_p50", "ms", verdict.median * 1e3),
            metric("ops_per_s", "1/s", times.len() as f64 / loop_s),
            metric("peak_rss_mb", "MB", peak / 1e6),
        ],
        details: vec![
            ("setup_s".into(), summary_json(&setup, "s")),
            ("verdict_s".into(), summary_json(&verdict, "s")),
            (
                "verdict_samples_s".into(),
                Json::Arr(times.iter().map(|&t| Json::Num(t)).collect()),
            ),
            (
                "states_per_s".into(),
                Json::Num(pinned.states as f64 / verdict.median),
            ),
            (
                "bytes_per_state".into(),
                Json::Num(peak / pinned.states as f64),
            ),
            ("pinned".into(), Json::str(format!("{pinned:?}"))),
            ("failed_frac".into(), Json::Num(tally.failed_frac())),
        ],
        tally,
    }
}

/// The oracle workload's inputs plus the verdict each query must return.
pub struct QuerySet {
    pub configs: Vec<swapcons_sim::Configuration<swapcons_baselines::BinaryRacing>>,
    pub expected: Vec<swapcons_lower::Valency>,
    pub digest: u64,
    /// `Err` when the seed has a pinned digest and the expected verdicts
    /// do not reproduce it.
    pub pin: Result<(), String>,
}

impl QuerySet {
    /// Generate the seed's query set and find its expected verdicts.
    pub fn new(seed: u64) -> QuerySet {
        QuerySet::verify(seed, query_configs(&oracle_protocol(), seed))
    }

    /// Find the expected verdicts of `configs`, the query set of `seed`.
    pub fn verify(
        seed: u64,
        configs: Vec<swapcons_sim::Configuration<swapcons_baselines::BinaryRacing>>,
    ) -> QuerySet {
        let protocol = oracle_protocol();
        let expected: Vec<_> = configs
            .iter()
            .map(|c| reference_verdict(&protocol, c, &QUERY_GROUP))
            .collect();
        let digest = verdict_digest(&expected);
        let pin = match pinned_digest(seed) {
            Some(d) if d != digest => Err(format!(
                "seed {seed}: verdict digest {digest:#018x}, pinned {d:#018x}"
            )),
            _ => Ok(()),
        };
        QuerySet {
            configs,
            expected,
            digest,
            pin,
        }
    }

    /// Gate query `i`'s verdict.
    pub fn check(&self, i: usize, got: &swapcons_lower::Valency) -> Result<(), String> {
        self.pin.clone()?;
        let want = &self.expected[i];
        if got == want {
            Ok(())
        } else {
            Err(format!("query {i}: expected {want}, got {got}"))
        }
    }
}

/// Closed loop of valency queries over the seed's query set, cycling
/// through it for `args.seconds` (at least one full pass). The peak resident
/// set is read after the first pass, and the verdicts are gated after the
/// loop, so the reference search's memory never reaches it.
fn measure_oracle(args: &Args) -> Outcome {
    let protocol = oracle_protocol();
    let configs = query_configs(&protocol, args.seed);
    let oracle = oracle();
    let n = configs.len();
    // Room for far more queries than a run makes: the buffers never move,
    // so no reallocation lands in the first pass and shifts the heap.
    let mut times = Vec::with_capacity(1 << 20);
    let mut verdicts = Vec::with_capacity(1 << 20);
    let mut setup_samples = Vec::new();
    let mut peak = 0.0;
    let start = Instant::now();
    while times.len() < n || start.elapsed().as_secs_f64() < args.seconds {
        let i = times.len() % n;
        if i == 0 {
            // One set-up sample per pass, so its median spans the run.
            setup_samples.extend(time_setup(1, 1, || query_configs(&protocol, args.seed)));
        }
        let t = Instant::now();
        let result = black_box(oracle.query(&protocol, &configs[i], &QUERY_GROUP));
        times.push(t.elapsed().as_secs_f64());
        verdicts.push(result.verdict());
        if times.len() == n {
            peak = peak_rss_bytes();
        }
    }
    let loop_s = start.elapsed().as_secs_f64();
    let setup = Summary::of(&setup_samples);
    let set = QuerySet::verify(args.seed, configs);
    let mut tally = Tally::default();
    for (k, verdict) in verdicts.iter().enumerate() {
        tally.record(set.check(k % n, verdict));
    }
    let latency = Summary::of(&times);
    let bivalent = set
        .expected
        .iter()
        .filter(|v| **v == swapcons_lower::Valency::Bivalent)
        .count();
    let p99 = tail_percentile(&times, 0.99).map_or(Json::Num(f64::NAN), |p| Json::Num(p * 1e6));
    Outcome {
        metrics: vec![
            metric("setup_s", "s", setup.median),
            metric("op_ms_p50", "ms", latency.median * 1e3),
            metric("ops_per_s", "1/s", times.len() as f64 / loop_s),
            metric("peak_rss_mb", "MB", peak / 1e6),
        ],
        details: vec![
            ("setup_s".into(), summary_json(&setup, "s")),
            ("query_s".into(), summary_json(&latency, "s")),
            ("query_us_p50".into(), Json::Num(latency.median * 1e6)),
            ("query_us_p99".into(), p99),
            (
                "queries_per_s".into(),
                Json::Num(times.len() as f64 / loop_s),
            ),
            ("queries_in_set".into(), Json::Int(n as u64)),
            ("expected_bivalent".into(), Json::Int(bivalent as u64)),
            (
                "verdict_digest".into(),
                Json::str(format!("{:#018x}", verdict_digest(&verdicts[..n]))),
            ),
            (
                "expected_digest".into(),
                Json::str(format!("{:#018x}", set.digest)),
            ),
            ("failed_frac".into(), Json::Num(tally.failed_frac())),
        ],
        tally,
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        layers::traced_run(&args)
    } else if args.workload == Workload::OracleQueries {
        measure_oracle(&args)
    } else {
        measure_checker(&args)
    };
    let tally = &outcome.tally;
    let correct = tally.failed == 0;
    let metrics = Json::obj(outcome.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }));
    for m in &outcome.metrics {
        eprintln!(
            "{:>14} {:<28} {:>18.6} {}",
            args.workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    eprintln!(
        "{:>14} {:<28} {:>18.6} ({} of {} operations)",
        args.workload.name(),
        "failed_frac",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    for f in &tally.failures {
        eprintln!("FAILED: {f}");
    }
    let record = Json::obj([
        ("record", Json::str("perfbench")),
        (
            "provenance",
            provenance(args.workload.name(), args.seed, tally.attempted, args.trace),
        ),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(tally.attempted)),
        ("failed", Json::Int(tally.failed)),
        (
            "failures",
            Json::Arr(tally.failures.iter().map(Json::str).collect()),
        ),
        ("metrics", metrics.clone()),
        ("details", Json::Obj(outcome.details)),
    ]);
    println!("{record}");
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(tally.attempted)),
            ("failed", Json::Int(tally.failed)),
            ("metrics", metrics),
        ])
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse("--workload oracle_queries --seed 9 --seconds 2 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::OracleQueries);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 2.0, true));
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload check_full --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload check_full --seconds 1").is_err());
    }

    #[test]
    fn query_set_off_its_pinned_digest_fails_every_query() {
        // Seed 0 has a pinned digest over its full query set; a truncated
        // set reproduces other verdicts, so every query is a failure.
        let configs = query_configs(&oracle_protocol(), 0);
        let set = QuerySet::verify(0, configs[..20].to_vec());
        assert!(set.pin.is_err());
        let mut tally = Tally::default();
        for (i, want) in set.expected.iter().enumerate() {
            tally.record(set.check(i, want));
        }
        assert_eq!((tally.attempted, tally.failed), (20, 20));
        // An unpinned seed is gated on the reference verdicts alone.
        let set = QuerySet::verify(u64::MAX, configs[..20].to_vec());
        let wrong = swapcons_lower::Valency::Univalent(7);
        assert!(set.check(0, &set.expected[0]).is_ok());
        assert!(set.check(0, &wrong).is_err());
    }

    #[test]
    fn tally_counts_without_panicking() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("bad".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.failed_frac(), 0.5);
    }
}
