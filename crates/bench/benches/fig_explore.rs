//! E8 — **exploration throughput**: states/second for the exhaustive
//! searches, the metric every perf PR to the exploration hot path must move.
//!
//! Workloads span the repo's verification surfaces:
//!
//! * `ModelChecker` on Algorithm 1 at n=2 (all 4 input vectors) and n=3
//!   (the "model-checker scale" regime where state explosion made per-node
//!   deep clones the bottleneck), each in **full** and **symmetry-reduced**
//!   mode — the reduced rows report states-explored side by side with the
//!   full rows, which is the PR 3 headline (same verdicts, ≥3x fewer states
//!   on the unanimous-input n=3 row);
//! * the same n=3 run with the solo-termination (obstruction-freedom) check
//!   enabled, with and without the solo-outcome memo;
//! * the Section 5 / Lemma 16 construction on `BinaryRacing` at n=3, whose
//!   inner loop is the valency oracle's bounded search, full and reduced.
//!
//! Each series point is the best of three runs after one warm-up (the
//! measurement box is a shared single-core VM, so minimum-of-N is the
//! stable statistic); EXPERIMENTS.md records the trajectory across PRs.
//!
//! This target doubles as the CI consistency gate: it asserts that
//! reduced and full searches reach identical verdicts on
//! the n=2 protocol zoo, so a broken symmetry declaration fails the bench
//! smoke, not just unit tests.
//!
//! Run: `cargo bench -p swapcons-bench --bench fig_explore`

use std::fmt::Write as _;

use swapcons_baselines::{BinaryRacing, CommitAdoptConsensus, ReadableRacing};
use swapcons_bench::harness::{
    bench_artifact_dir, best_of_3, render_series, time_row, write_series_artifact,
};
use swapcons_core::pairs::PairsKSet;
use swapcons_core::{OneBitSwapConsensus, SwapKSet};
use swapcons_lower::lemma9::searched_solo_pressure;
use swapcons_lower::section5::{lemma16_driver, searched_object_pressure, Budgets};
use swapcons_sim::explore::{CheckReport, ModelChecker};
use swapcons_sim::testing::TwoProcessSwapConsensus;
use swapcons_sim::{engine, Configuration, ObjectId, ProcessId, Protocol};

/// Write `content` to `$BENCH_SERIES_DIR/<name>` when the variable is set
/// (the CI artifact directory). A failed write — including the
/// empty-content refusal, which is how the old log-scrape pipeline would
/// have rotted — costs this artifact a warning line, not the rest of the
/// series: the measurements already printed are the primary record.
fn write_bench_artifact(name: &str, content: &str) {
    let Some(dir) = bench_artifact_dir() else {
        return;
    };
    match write_series_artifact(&dir, name, content) {
        Ok(path) => println!("[bench-series] wrote {}", path.display()),
        Err(e) => eprintln!(
            "[bench-series] WARNING: skipping artifact {name} in {}: {e}",
            dir.display()
        ),
    }
}

/// One full-vs-reduced model-check row: assert identical verdicts, print
/// both state counts and rates, return the pair of reports.
fn reduced_row(
    label: &str,
    checker: ModelChecker,
    run: &dyn Fn(ModelChecker) -> CheckReport,
) -> (f64, f64) {
    let (full_states, full_secs) = best_of_3(|| {
        let report = run(checker);
        assert!(report.passed(), "{report}");
        report.states
    });
    let reduced_checker = checker.with_symmetry_reduction();
    let (reduced_states, reduced_secs) = best_of_3(|| {
        let report = run(reduced_checker);
        assert!(report.passed(), "{report}");
        report.states
    });
    let full = run(checker);
    let reduced = run(reduced_checker);
    assert!(
        full.same_verdict(&reduced),
        "{label}: reduced verdict diverged: {full} vs {reduced}"
    );
    let full_rate = full_states as f64 / full_secs;
    let reduced_rate = reduced_states as f64 / reduced_secs;
    println!(
        "{label:<30} : full {full_states:>8} states {full_secs:>7.3}s ({full_rate:>10.0}/s) | \
         reduced {reduced_states:>8} states {reduced_secs:>7.3}s ({reduced_rate:>10.0}/s) | \
         {:.2}x fewer states, {:.2}x wall",
        full_states as f64 / reduced_states as f64,
        full_secs / reduced_secs,
    );
    (full_rate, reduced_rate)
}

/// One row of the reduction-factor table the gate emits into the
/// bench-series artifact.
struct ReductionRow {
    label: String,
    full_states: usize,
    reduced_states: usize,
    group: usize,
}

/// Render the per-row reduction-factor table (checker + oracle gate rows).
fn render_reduction_table(rows: &[ReductionRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# engine-parity gate: states explored, full vs symmetry-reduced"
    );
    let _ = writeln!(
        out,
        "{:<52} {:>10} {:>10} {:>7} {:>6}",
        "row", "full", "reduced", "factor", "|G|"
    );
    let _ = writeln!(out, "{}", "-".repeat(90));
    for row in rows {
        let factor = if row.reduced_states == 0 {
            "-".to_string()
        } else {
            format!("{:.2}x", row.full_states as f64 / row.reduced_states as f64)
        };
        let _ = writeln!(
            out,
            "{:<52} {:>10} {:>10} {:>7} {:>6}",
            row.label, row.full_states, row.reduced_states, factor, row.group
        );
    }
    out
}

/// The CI gate: reduced and full verdicts must agree on the whole n=2 zoo
/// (plus the Table 1 witness sweep, which covers the k-set rows at n=3/4,
/// and the valency-oracle fixtures, which cover the composed object
/// symmetries). Emits the per-row reduction-factor table into the
/// bench-series artifact.
fn verify_reduction_consistency() {
    println!("\n====== reduced-vs-full verdict gate (n=2 zoo + Table 1 witnesses) ======");
    let mut table: Vec<ReductionRow> = Vec::new();
    let checks: Vec<(&str, CheckReport, CheckReport)> = vec![
        {
            let p = TwoProcessSwapConsensus;
            let c = ModelChecker::new(10, 50_000).with_solo_budget(2);
            (
                "two_process_swap all-inputs",
                c.check_all_inputs(&p),
                c.with_symmetry_reduction().check_all_inputs(&p),
            )
        },
        {
            let p = SwapKSet::consensus(2, 2);
            let c = ModelChecker::new(30, 200_000).with_solo_budget(p.solo_step_bound());
            (
                "alg1 n=2 all-inputs",
                c.check_all_inputs(&p),
                c.with_symmetry_reduction().check_all_inputs(&p),
            )
        },
        {
            let p = CommitAdoptConsensus::new(2, 2);
            let c = ModelChecker::new(14, 200_000).with_solo_budget(p.solo_step_bound());
            (
                "commit_adopt n=2 all-inputs",
                c.check_all_inputs(&p),
                c.with_symmetry_reduction().check_all_inputs(&p),
            )
        },
        {
            let p = BinaryRacing::with_track_len(2, 8);
            let c = ModelChecker::new(16, 200_000);
            (
                "binary_racing n=2 all-inputs",
                c.check_all_inputs(&p),
                c.with_symmetry_reduction().check_all_inputs(&p),
            )
        },
        {
            let p = ReadableRacing::new(2, 2);
            let c = ModelChecker::new(16, 150_000).with_solo_budget(p.solo_step_bound());
            (
                "readable_racing n=2 all-inputs",
                c.check_all_inputs(&p),
                c.with_symmetry_reduction().check_all_inputs(&p),
            )
        },
        {
            // The track swap on a single distinct-inputs vector: [0, 1] had
            // a trivial run group before the value-coupled object class.
            let p = BinaryRacing::with_track_len(2, 8);
            let c = ModelChecker::new(16, 200_000);
            (
                "binary_racing n=2 track-swap [0,1]",
                c.check(&p, &[0, 1]),
                c.with_symmetry_reduction().check(&p, &[0, 1]),
            )
        },
        {
            // The pair swap across the whole input grid: pair blocks fold
            // both the per-run orbits and the canonical-input-vector grid.
            let p = PairsKSet::new(4, 2, 3);
            let c = ModelChecker::new(10, 100_000).with_solo_budget(1);
            (
                "pairs_kset n=4 pair-swap all-inputs",
                c.check_all_inputs(&p),
                c.with_symmetry_reduction().check_all_inputs(&p),
            )
        },
        {
            // The derived-object composition layer: 2-process consensus from
            // one-bit swaps, run on the *flattened* Aspnes construction (one
            // max register + TAS bit per swap) — the engine sees base
            // objects only, and the lifted process symmetry must still fold
            // the orbits.
            let p = OneBitSwapConsensus.derived();
            let c = ModelChecker::new(64, 200_000);
            (
                "onebit consensus derived all-inputs",
                c.check_all_inputs(&p),
                c.with_symmetry_reduction().check_all_inputs(&p),
            )
        },
        {
            // The n=4 full-process-symmetry row: unanimous inputs leave the
            // whole S4 (|G| = 24) as the run group. Under the old
            // enumerate-the-group canonicalization every insert hashed 24
            // whole images and this row was left out of the smoke budget;
            // the pruned stabilizer-chain search gates it per commit.
            let p = SwapKSet::consensus(4, 2);
            let c = ModelChecker::new(10, 500_000);
            (
                "alg1 n=4 full-symmetry [1,1,1,1]",
                c.check(&p, &[1, 1, 1, 1]),
                c.with_symmetry_reduction().check(&p, &[1, 1, 1, 1]),
            )
        },
    ];
    for (label, full, reduced) in checks {
        assert!(
            full.same_verdict(&reduced),
            "{label}: reduced verdict diverged: {full} vs {reduced}"
        );
        assert!(full.passed(), "{label}: {full}");
        println!(
            "{label:<36} : verdict match ✓  ({} -> {} states)",
            full.states, reduced.states
        );
        table.push(ReductionRow {
            label: label.to_string(),
            full_states: full.states,
            reduced_states: reduced.states,
            group: reduced.symmetry_group,
        });
    }
    // The object-symmetry acceptance row: composing τ with (π, σ) must buy
    // at least 2x on a checker row, gated per commit, not just measured
    // once in EXPERIMENTS.md.
    for label in [
        "binary_racing n=2 all-inputs",
        "pairs_kset n=4 pair-swap all-inputs",
    ] {
        let row = table.iter().find(|r| r.label == label).expect("row exists");
        assert!(
            row.full_states >= 2 * row.reduced_states,
            "{label}: object symmetry must halve the explored states: \
             {} -> {}",
            row.full_states,
            row.reduced_states
        );
    }
    // The stabilizer-chain acceptance row: the n=4 unanimous run must carry
    // the *whole* S4 — group order exactly 24, no silent degrade — and buy
    // well past the factor the old per-insert group scan could afford.
    {
        let label = "alg1 n=4 full-symmetry [1,1,1,1]";
        let row = table.iter().find(|r| r.label == label).expect("row exists");
        assert_eq!(
            row.group, 24,
            "{label}: expected the full S4 as the run group"
        );
        assert!(
            row.full_states >= 4 * row.reduced_states,
            "{label}: the S4 reduction collapsed: {} -> {}",
            row.full_states,
            row.reduced_states
        );
    }
    // The derived-object parity gate: the same consensus protocol on atomic
    // one-bit swaps vs the flattened Aspnes construction. Verdicts must
    // match across every binary input vector, and the derived run's state
    // count is pinned alongside (three base steps per visible swap leave
    // mid-operation configurations the native stack never has).
    {
        let c = ModelChecker::new(64, 200_000);
        let native = c.check_all_inputs(&OneBitSwapConsensus);
        let derived = c.check_all_inputs(&OneBitSwapConsensus.derived());
        assert!(native.proves_safety(), "onebit native: {native}");
        assert!(
            native.same_verdict(&derived),
            "onebit consensus: derived verdict diverged: {native} vs {derived}"
        );
        assert!(
            derived.states > native.states,
            "flattening must expand the state space: {} vs {}",
            native.states,
            derived.states
        );
        println!(
            "onebit consensus native-vs-derived   : verdict match ✓  ({} native -> {} derived states)",
            native.states, derived.states
        );
        table.push(ReductionRow {
            label: "onebit consensus native-vs-derived states".to_string(),
            full_states: derived.states,
            reduced_states: native.states,
            group: 1,
        });
    }
    for (row, full, reduced) in swapcons_lower::table1::verify_witnesses() {
        assert!(
            full.same_verdict(&reduced),
            "table1 {row}: reduced verdict diverged: {full} vs {reduced}"
        );
        assert!(full.passed(), "table1 {row}: {full}");
        println!(
            "table1 {row:<48} : verdict match ✓  ({} -> {} states)",
            full.states, reduced.states
        );
        table.push(ReductionRow {
            label: format!("table1 {row}"),
            full_states: full.states,
            reduced_states: reduced.states,
            group: reduced.symmetry_group,
        });
    }
    // The oracle half of the engine-parity sweep: both exploration clients
    // run on the same engine, so the gate covers both — now including the
    // object-symmetry fixtures, whose stabilizer subgroups must come out
    // nontrivial (reduction factor > 1 wherever the bounded search runs).
    for (label, full, reduced) in swapcons_lower::table1::verify_oracle_parity() {
        assert_eq!(
            full.verdict(),
            reduced.verdict(),
            "oracle {label}: verdicts diverged: {full:?} vs {reduced:?}"
        );
        assert_eq!(
            full.witnesses
                .keys()
                .collect::<std::collections::BTreeSet<_>>(),
            reduced
                .witnesses
                .keys()
                .collect::<std::collections::BTreeSet<_>>(),
            "oracle {label}: witness-value sets diverged"
        );
        if label.contains("track-swap") || label.contains("pair-swap") {
            assert!(
                reduced.symmetry_group > 1,
                "oracle {label}: the composed stabilizer degraded to trivial: {reduced:?}"
            );
            assert!(
                reduced.states < full.states,
                "oracle {label}: reduction factor must exceed 1: {full:?} vs {reduced:?}"
            );
        }
        if label.contains("register-pool") {
            assert!(
                reduced.symmetry_group > 1,
                "oracle {label}: the register-pool stabilizer degraded to trivial: {reduced:?}"
            );
        }
        println!(
            "oracle {label:<41} : verdict match ✓  ({} -> {} states, |G|={}, {})",
            full.states,
            reduced.states,
            reduced.symmetry_group,
            full.verdict()
        );
        table.push(ReductionRow {
            label: format!("oracle {label}"),
            full_states: full.states,
            reduced_states: reduced.states,
            group: reduced.symmetry_group,
        });
    }
    let rendered = render_reduction_table(&table);
    println!("\n{rendered}");
    write_bench_artifact("reduction_factors.txt", &rendered);
}

/// Thread counts for the parallel-speedup series: `SWAPCONS_THREADS` as a
/// comma-separated list (e.g. `1,2,4,8`), defaulting to `1,2,4`. A leading
/// `1` is forced in either case — every speedup is relative to the
/// sequential row, and the parity assertion needs it as the baseline.
fn speedup_thread_axis() -> Vec<usize> {
    let mut axis: Vec<usize> = std::env::var("SWAPCONS_THREADS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&t| (1..=swapcons_sim::shard::MAX_THREADS).contains(&t))
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4]);
    if axis[0] != 1 {
        axis.insert(0, 1);
    }
    axis.dedup();
    axis
}

/// The parallel-exploration speedup series: the n=3 acceptance row swept
/// across the thread axis, with a hard parity assertion on every point.
/// Wall-clock ratios are recorded as measured — on a small CI box the
/// honest answer is ~1x (parity, not speedup, is the gate there); the
/// series exists so multi-core boxes get a real scaling figure from the
/// same command.
///
/// Parity discipline on this row: the n=3 search is **depth-bounded** (lap
/// counters grow without bound, so no depth completes it), and every
/// thread count — the inline t=1 FIFO run included — discovers each state
/// at its minimum depth. Every point must therefore report exactly the t=1
/// verdict, states, terminal states and `deepest`: the depth-14 ball of
/// 10,689 configurations.
fn parallel_speedup(points: &mut Vec<(f64, f64)>) {
    println!("\n====== parallel exploration speedup (alg1 n=3 [0,1,1], depth=14) ======");
    let p = SwapKSet::consensus(3, 2);
    let checker = ModelChecker::new(14, 2_000_000);
    let axis = speedup_thread_axis();
    let mut rows = String::new();
    let _ = writeln!(
        rows,
        "# parallel speedup: alg1 n=3 [0,1,1] depth=14 (best of 3, {} host cores)",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let _ = writeln!(
        rows,
        "# depth-bounded row: every thread count explores the same min-depth ball"
    );
    let _ = writeln!(
        rows,
        "{:>8} {:>10} {:>10} {:>12} {:>9}",
        "threads", "states", "secs", "states/s", "speedup"
    );
    let mut t1: Option<(CheckReport, f64)> = None;
    for &t in &axis {
        let threaded = checker.with_threads(t);
        let (states, secs) = best_of_3(|| {
            let report = threaded.check(&p, &[0, 1, 1]);
            assert!(report.passed(), "{report}");
            report.states
        });
        let report = threaded.check(&p, &[0, 1, 1]);
        let (speedup_label, speedup) = match &t1 {
            None => ("baseline".to_string(), 1.0),
            Some((base, base_secs)) => {
                assert!(
                    base.same_verdict(&report)
                        && (base.states, base.terminal_states, base.deepest)
                            == (report.states, report.terminal_states, report.deepest),
                    "t={t}: report diverged from t=1: {base} vs {report}"
                );
                let speedup = base_secs / secs;
                (format!("{speedup:.2}x vs t=1"), speedup)
            }
        };
        if t1.is_none() {
            t1 = Some((report, secs));
        }
        let _ = writeln!(
            rows,
            "{t:>8} {states:>10} {secs:>10.3} {:>12.0} {speedup:>8.2}x",
            states as f64 / secs
        );
        println!(
            "alg1 n=3 [0,1,1] t={t:<2}          : {states:>9} states in {secs:>8.3}s \
             ({:>10.0}/s) | {speedup_label}",
            states as f64 / secs
        );
        if t == 1 {
            points.push((6.0, states as f64 / secs));
        }
    }
    write_bench_artifact("parallel_speedup.txt", &rows);
}

/// Adversary synthesis — the engine's first genuinely new client. Each row
/// searches for a worst-case schedule, asserts the domain invariant the
/// extremum must respect, and prints the schedule itself. The section is
/// also written directly to `$BENCH_SERIES_DIR/synthesized_schedules.txt`
/// (no log scraping — the old `awk` pipeline silently depended on section
/// headers staying verbatim), with a hard failure if it would be empty.
fn synthesized_schedules(points: &mut Vec<(f64, f64)>) {
    let mut section = String::new();
    let emit = |line: String, section: &mut String| {
        println!("{line}");
        section.push_str(&line);
        section.push('\n');
    };
    emit(
        "\n====== synthesized worst-case schedules (adversary synthesis) ======".into(),
        &mut section,
    );
    // Lap-maximizing livelock on Algorithm 1 at n=2: the searched analog of
    // the hand-coded lap-lead chaser.
    {
        let p = SwapKSet::consensus(2, 2);
        let objective = |proto: &SwapKSet, c: &Configuration<SwapKSet>| -> u64 {
            if c.decisions_iter().flatten().next().is_some() {
                return 0;
            }
            let local: u64 = (0..proto.num_processes())
                .filter_map(|i| c.state(ProcessId(i)))
                .map(|s| s.u.as_slice().iter().sum::<u64>())
                .sum();
            let shared: u64 = (0..proto.num_objects())
                .map(|i| c.value(ObjectId(i)).laps.as_slice().iter().sum::<u64>())
                .sum();
            local + shared
        };
        // Capture the last run's report from inside the timed closure —
        // the workload is deterministic, so re-running just for the report
        // would waste a full search.
        let mut last = None;
        let (states, secs) = best_of_3(|| {
            let report = engine::synthesize(&p, &[0, 1], 16, 200_000, objective);
            assert!(report.complete);
            assert!(report.config.decided_values().is_empty(), "livelock");
            let states = report.states;
            last = Some(report);
            states
        });
        let report = last.expect("best_of_3 ran the closure");
        // Synthesis searches in min-depth order: it scores the whole
        // depth-16 ball.
        assert_eq!((report.states, report.best_score), (316, 20), "{report:?}");
        emit(
            format!(
                "alg1 n=2 max-laps depth=16     : score {:>3} over {states:>6} states in {secs:>7.3}s ({:>9.0}/s) schedule {:?}",
                report.best_score,
                states as f64 / secs,
                report.schedule
            ),
            &mut section,
        );
        points.push((5.0, states as f64 / secs));
    }
    // Lemma 8 pressure on Algorithm 1 at n=3: the configuration needing the
    // most solo steps to decide — must stay under the paper's 8(n-k).
    {
        let p = SwapKSet::consensus(3, 2);
        let bound = p.solo_step_bound();
        let report = searched_solo_pressure(&p, &[0, 1, 1], 8, 60_000, bound);
        // The whole depth-8 ball.
        assert!(report.complete);
        assert_eq!(
            (report.states, report.best_score),
            (1_084, 15),
            "{report:?}"
        );
        assert!(
            report.best_score <= bound as u64,
            "Lemma 8 violated: {report:?}"
        );
        emit(
            format!(
                "alg1 n=3 solo-pressure depth=8 : score {:>3} (Lemma 8 bound {bound}) over {:>6} states, schedule {:?}",
                report.best_score, report.states, report.schedule
            ),
            &mut section,
        );
    }
    // Track pressure on the racing baseline: maximal undecided progress.
    {
        let p = BinaryRacing::with_track_len(3, 8);
        let report = searched_object_pressure(&p, &[0, 1, 0], 12, 150_000);
        assert!(report.config.decided_values().is_empty());
        // The whole depth-12 ball.
        assert!(report.complete);
        assert_eq!((report.states, report.best_score), (1_020, 3), "{report:?}");
        emit(
            format!(
                "binary_racing n=3 track-pressure depth=12 : score {:>3} over {:>6} states, schedule {:?}",
                report.best_score, report.states, report.schedule
            ),
            &mut section,
        );
    }
    write_bench_artifact("synthesized_schedules.txt", &section);
}

fn print_series() {
    verify_reduction_consistency();
    println!("\n====== exploration throughput (states/sec, best of 3) ======");
    let mut points = Vec::new();

    // n=2 Algorithm 1, all input vectors, no solo checking.
    {
        let p = SwapKSet::consensus(2, 2);
        let (full_rate, _) = reduced_row(
            "alg1 n=2 all-inputs depth=30",
            ModelChecker::new(30, 200_000),
            &|c| c.check_all_inputs(&p),
        );
        points.push((2.0, full_rate));
    }

    // n=3 Algorithm 1 — THE acceptance metric for exploration perf PRs.
    {
        let p = SwapKSet::consensus(3, 2);
        let (full_rate, _) = reduced_row(
            "alg1 n=3 [0,1,1]   depth=22",
            ModelChecker::new(22, 2_000_000),
            &|c| c.check(&p, &[0, 1, 1]),
        );
        points.push((3.0, full_rate));
    }

    // n=3 unanimous inputs: the full S3 group — the PR 3 headline row.
    {
        let p = SwapKSet::consensus(3, 2);
        let (_, reduced_rate) = reduced_row(
            "alg1 n=3 [1,1,1]   depth=22",
            ModelChecker::new(22, 2_000_000),
            &|c| c.check(&p, &[1, 1, 1]),
        );
        points.push((3.25, reduced_rate));
    }

    // n=3 with the solo-termination check on every visited state — memoized
    // (the default) vs not, same verdicts by construction.
    {
        let p = SwapKSet::consensus(3, 2);
        let memo_checker = ModelChecker::new(12, 2_000_000).with_solo_budget(p.solo_step_bound());
        let (states, secs) = best_of_3(|| {
            let report = memo_checker.check(&p, &[0, 1, 1]);
            assert!(report.passed(), "{report}");
            report.states
        });
        let rate = states as f64 / secs;
        let (nm_states, nm_secs) = best_of_3(|| {
            let report = memo_checker.without_solo_memo().check(&p, &[0, 1, 1]);
            assert!(report.passed(), "{report}");
            report.states
        });
        assert_eq!(states, nm_states, "memo must not change the explored set");
        println!(
            "alg1 n=3 +solo     depth=12    : {states:>9} states in {secs:>8.3}s = {rate:>12.0} states/s (no-memo {nm_secs:>7.3}s, {:.2}x)",
            nm_secs / secs
        );
        points.push((3.5, rate));
    }

    // Section 5: the Lemma 16 construction at n=3 (valency-oracle bound),
    // full and reduced-oracle budgets.
    {
        let p = BinaryRacing::with_track_len(3, 8);
        let (stages, secs) = best_of_3(|| {
            let report = lemma16_driver(&p, &[0, 1, 0], &Budgets::small());
            assert!(report.complete(), "{report}");
            report.stages.len()
        });
        let (red_stages, red_secs) = best_of_3(|| {
            let report = lemma16_driver(&p, &[0, 1, 0], &Budgets::small_reduced());
            assert!(report.complete(), "{report}");
            report.stages.len()
        });
        assert_eq!(stages, red_stages);
        println!(
            "section5 lemma16 n=3           : {stages} stages in {secs:>8.3}s (reduced oracle {red_secs:>8.3}s, {:.2}x)",
            secs / red_secs
        );
        points.push((4.0, 1.0 / secs));
    }

    parallel_speedup(&mut points);
    synthesized_schedules(&mut points);

    println!(
        "\n{}",
        render_series(
            "exploration throughput (x: workload id)",
            "workload",
            "states_per_sec",
            &points
        )
    );
}

fn main() {
    print_series();
    // The n=2 all-inputs and Lemma 16 workloads are timed (and asserted)
    // in the series above; the shallower n=3 checks are timed here.
    let p = SwapKSet::consensus(3, 2);
    for (id, checker) in [
        (
            "fig_explore/model_check/alg1_n3_depth14",
            ModelChecker::new(14, 2_000_000),
        ),
        (
            "fig_explore/model_check/alg1_n3_depth14_reduced",
            ModelChecker::new(14, 2_000_000).with_symmetry_reduction(),
        ),
    ] {
        time_row(id, || {
            let report = checker.check(&p, &[0, 1, 1]);
            assert!(report.passed(), "{report}");
            report.states
        });
    }
}
