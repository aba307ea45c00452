//! The thread-count parity gate: the work-stealing engine must be a pure
//! *performance* mode — same verdicts, same violations, same counts —
//! across the n=2 protocol zoo, the Table 1 witness sweep, and the
//! valency-oracle fixtures.
//!
//! Parity comes in one strength. Every search — the inline t=1 run on a
//! FIFO frontier and the sharded waves alike — discovers each configuration
//! at its minimum depth, so a depth-bounded search covers exactly the
//! configurations within `max_depth` steps of the root, whatever the thread
//! count. Wherever no state or frontier budget binds, the t=1 report and
//! the report at every sharded thread count must therefore be identical:
//! `states`, `terminal_states`, `deepest`, `complete`, `symmetry_group`,
//! verdict, violation kind and witness length. Depth-bounded rows (most zoo
//! rows — lap counters grow without bound) are held to this as much as
//! complete ones. Only `peak_frontier`, a high-water mark, is excluded.
//!
//! The CI `parity-sharded` matrix runs this file (and the checkpoint
//! suite) with `SWAPCONS_THREADS` set to 2 and 4.

use std::collections::HashSet;

use swapcons::baselines::{BinaryRacing, CommitAdoptConsensus, ReadableRacing};
use swapcons::core::pairs::PairsKSet;
use swapcons::core::SwapKSet;
use swapcons::lower::table1::{verify_oracle_parity_threaded, verify_witnesses_threaded};
use swapcons::sim::explore::{CheckReport, ModelChecker};
use swapcons::sim::testing::{SelfishConsensus, TwoProcessSwapConsensus};
use swapcons::sim::Configuration;

/// Sharded thread counts under test: `SWAPCONS_THREADS` as a single count
/// or comma-separated list, default `2,4`. Values must be ≥ 2 — 1 is the
/// inline baseline every row already runs.
fn thread_axis() -> Vec<usize> {
    std::env::var("SWAPCONS_THREADS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&t| t >= 2)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![2, 4])
}

/// Everything a report must agree on across thread counts: the counters,
/// the verdict, the violation kind and the witness length.
fn parity_view(r: &CheckReport) -> impl PartialEq + std::fmt::Debug {
    (
        (r.states, r.terminal_states, r.deepest, r.complete),
        r.symmetry_group,
        r.passed(),
        r.violation
            .as_ref()
            .map(|v| (std::mem::discriminant(&v.kind), v.schedule.len())),
    )
}

/// The one parity assertion described in the module docs.
fn assert_parity(label: &str, t1: &CheckReport, sharded: &CheckReport) {
    assert_eq!(
        parity_view(t1),
        parity_view(sharded),
        "{label}: report diverged from t=1: {t1} vs {sharded}"
    );
}

/// The n=2 zoo: every checker row from the bench consistency gate, each in
/// full and symmetry-reduced mode, t=1 vs every sharded count. No row's
/// state budget binds, so every row is held to exact report parity.
#[test]
fn zoo_rows_keep_verdict_and_count_parity() {
    type Row = (
        &'static str,
        ModelChecker,
        Box<dyn Fn(ModelChecker) -> CheckReport>,
    );
    let axis = thread_axis();
    let rows: Vec<Row> = vec![
        {
            let c = ModelChecker::new(10, 50_000).with_solo_budget(2);
            (
                "two_process all-inputs",
                c,
                Box::new(|c: ModelChecker| c.check_all_inputs(&TwoProcessSwapConsensus)),
            )
        },
        {
            let p = SwapKSet::consensus(2, 2);
            let c = ModelChecker::new(30, 200_000).with_solo_budget(p.solo_step_bound());
            (
                "alg1 n=2 all-inputs",
                c,
                Box::new(move |c: ModelChecker| c.check_all_inputs(&p)),
            )
        },
        {
            let p = CommitAdoptConsensus::new(2, 2);
            let c = ModelChecker::new(14, 200_000).with_solo_budget(p.solo_step_bound());
            (
                "commit_adopt n=2 all-inputs",
                c,
                Box::new(move |c: ModelChecker| c.check_all_inputs(&p)),
            )
        },
        {
            let p = BinaryRacing::with_track_len(2, 8);
            let c = ModelChecker::new(16, 200_000);
            (
                "binary_racing n=2 all-inputs",
                c,
                Box::new(move |c: ModelChecker| c.check_all_inputs(&p)),
            )
        },
        {
            let p = ReadableRacing::new(2, 2);
            let c = ModelChecker::new(16, 150_000).with_solo_budget(p.solo_step_bound());
            (
                "readable_racing n=2 all-inputs",
                c,
                Box::new(move |c: ModelChecker| c.check_all_inputs(&p)),
            )
        },
        {
            let p = PairsKSet::new(4, 2, 3);
            let c = ModelChecker::new(10, 100_000).with_solo_budget(1);
            (
                "pairs_kset n=4 all-inputs",
                c,
                Box::new(move |c: ModelChecker| c.check_all_inputs(&p)),
            )
        },
    ];
    for (label, checker, run) in rows {
        for symmetry in [false, true] {
            let mut base = checker;
            base.symmetry_reduction = symmetry;
            let t1 = run(base);
            assert!(t1.passed(), "{label}: {t1}");
            for &t in &axis {
                let sharded = run(base.with_threads(t));
                assert_parity(
                    &format!("{label} (symmetry={symmetry}, t={t})"),
                    &t1,
                    &sharded,
                );
            }
        }
    }
}

/// A violating workload: every thread count must catch the same violation
/// kind with a witness of the same (minimum) length. Schedules and pre-stop
/// state counts may differ — which violating configuration of the shallowest
/// violating depth a worker meets first depends on scheduling.
#[test]
fn violation_kind_parity_on_the_broken_protocol() {
    let p = SelfishConsensus { n: 2 };
    let t1 = ModelChecker::new(10, 10_000).check(&p, &[0, 1]);
    let t1_violation = t1.violation.as_ref().expect("t=1 catches it");
    for t in thread_axis() {
        let sharded = ModelChecker::new(10, 10_000)
            .with_threads(t)
            .check(&p, &[0, 1]);
        let shard_violation = sharded.violation.as_ref().expect("sharded catches it");
        assert_eq!(
            std::mem::discriminant(&t1_violation.kind),
            std::mem::discriminant(&shard_violation.kind),
            "t={t}: violation kind diverged: {t1} vs {sharded}"
        );
        assert_eq!(
            t1_violation.schedule.len(),
            shard_violation.schedule.len(),
            "t={t}: witness length diverged: {t1} vs {sharded}"
        );
    }
}

/// The min-depth regression pin: a depth-bounded t=1 run covers exactly
/// the configurations within `max_depth` steps of the root. Counted here by
/// an independent breadth-first search over whole configurations in a
/// `HashSet` (no engine, no fingerprints), and held equal to the t=1 and
/// every sharded report. A depth-first t=1 engine with discovery-time dedup
/// covered only 6,376 of these 10,689 configurations.
#[test]
fn depth_bounded_t1_covers_the_min_depth_ball() {
    let p = SwapKSet::consensus(3, 2);
    let inputs = [0, 1, 1];
    let depth = 14;
    let root = Configuration::initial(&p, &inputs).unwrap();
    let mut seen: HashSet<Configuration<SwapKSet>> = HashSet::from([root.clone()]);
    let mut layer = vec![root];
    for _ in 0..depth {
        let mut next = Vec::new();
        for config in &layer {
            for pid in config.running() {
                let mut child = config.clone();
                child.step_quiet(&p, pid).unwrap();
                if seen.insert(child.clone()) {
                    next.push(child);
                }
            }
        }
        layer = next;
    }
    assert_eq!(seen.len(), 10_689, "the depth-14 ball itself");
    let checker = ModelChecker::new(depth, 2_000_000);
    let t1 = checker.check(&p, &inputs);
    assert!(t1.passed() && !t1.complete, "{t1}");
    assert_eq!(t1.states, seen.len(), "t=1 must cover the min-depth ball");
    let t2 = checker.with_threads(2).check(&p, &inputs);
    assert_parity("alg1 n=3 [0,1,1] depth 14 (t=2)", &t1, &t2);
    for t in thread_axis() {
        let sharded = checker.with_threads(t).check(&p, &inputs);
        assert_parity(&format!("alg1 n=3 [0,1,1] depth 14 (t={t})"), &t1, &sharded);
    }
}

/// Sharded runs are deterministic run-to-run at every thread count, not
/// merely equivalent: the wave construction is canonical, so repeating a
/// search must reproduce the report exactly.
#[test]
fn sharded_reports_are_deterministic_run_to_run() {
    let p = SwapKSet::consensus(2, 2);
    for t in thread_axis() {
        let checker = ModelChecker::new(12, 50_000).with_threads(t);
        let first = checker.check(&p, &[0, 1]);
        let second = checker.check(&p, &[0, 1]);
        assert!(first.same_verdict(&second));
        assert_eq!(
            (
                first.states,
                first.terminal_states,
                first.deepest,
                first.complete
            ),
            (
                second.states,
                second.terminal_states,
                second.deepest,
                second.complete
            ),
            "t={t}: sharded search is not deterministic"
        );
    }
}

/// An exact state budget that the complete search lands on precisely must
/// still report `complete = true` when sharded — the budget discipline
/// (`BudgetNew` vs `New`) cannot turn an exactly-full search into a
/// truncated one.
#[test]
fn exactly_max_states_stays_complete_when_sharded() {
    let t1 = ModelChecker::new(10, 50_000)
        .with_solo_budget(2)
        .check_all_inputs(&TwoProcessSwapConsensus);
    assert!(t1.complete, "{t1}");
    for t in thread_axis() {
        let exact = ModelChecker::new(10, t1.states)
            .with_solo_budget(2)
            .with_threads(t)
            .check_all_inputs(&TwoProcessSwapConsensus);
        assert!(exact.complete, "t={t}: exactly-max-states run: {exact}");
        assert_eq!(exact.states, t1.states);
    }
}

/// Satellite 6's integration pin: a sharded run whose shared deadline is
/// already expired truncates cooperatively — `deadline_truncated` is set,
/// nothing is explored, and the run is not misreported as paused or
/// failing — while a generous deadline changes nothing.
#[test]
fn shared_deadline_truncates_sharded_runs_cooperatively() {
    use std::time::Duration;
    let p = SwapKSet::consensus(2, 2);
    for t in thread_axis() {
        let expired = ModelChecker::new(12, 50_000)
            .with_threads(t)
            .with_deadline(Duration::ZERO)
            .check(&p, &[0, 1]);
        assert!(expired.deadline_truncated, "t={t}: {expired}");
        assert_eq!(expired.states, 0, "t={t}: nothing explored after expiry");
        assert!(!expired.paused && expired.passed(), "t={t}: {expired}");

        let generous = ModelChecker::new(12, 50_000)
            .with_threads(t)
            .with_deadline(Duration::from_secs(600))
            .check(&p, &[0, 1]);
        let unbounded = ModelChecker::new(12, 50_000)
            .with_threads(t)
            .check(&p, &[0, 1]);
        assert!(!generous.deadline_truncated, "t={t}: {generous}");
        assert_eq!(generous.states, unbounded.states, "t={t}");
    }
}

/// The Table 1 witness sweep: the t=1 and sharded sweeps must agree row
/// by row, full and reduced, under the one parity assertion.
#[test]
fn table1_witness_sweep_keeps_parity() {
    let t1_sweep = verify_witnesses_threaded(1);
    for t in thread_axis() {
        let sharded = verify_witnesses_threaded(t);
        assert_eq!(t1_sweep.len(), sharded.len());
        for ((row, t1_full, t1_red), (srow, sh_full, sh_red)) in t1_sweep.iter().zip(sharded.iter())
        {
            assert_eq!(format!("{row}"), format!("{srow}"));
            let label = format!("table1 {row} (t={t})");
            assert_parity(&label, t1_full, sh_full);
            assert_parity(&format!("{label} reduced"), t1_red, sh_red);
        }
    }
}

/// The valency-oracle fixtures: verdicts, witness-value sets, and
/// exhaustiveness must match the t=1 oracle at every thread count;
/// exhaustive queries must also agree on the explored-state count.
#[test]
fn oracle_fixture_sweep_keeps_parity() {
    use std::collections::BTreeSet;
    let t1_sweep = verify_oracle_parity_threaded(1);
    for t in thread_axis() {
        let sharded = verify_oracle_parity_threaded(t);
        assert_eq!(t1_sweep.len(), sharded.len());
        for ((label, seq_full, seq_red), (slabel, sh_full, sh_red)) in
            t1_sweep.iter().zip(sharded.iter())
        {
            assert_eq!(label, slabel);
            for (mode, seq, sharded) in [("full", seq_full, sh_full), ("reduced", seq_red, sh_red)]
            {
                let tag = format!("oracle {label} {mode} (t={t})");
                assert_eq!(seq.verdict(), sharded.verdict(), "{tag}");
                assert_eq!(
                    seq.witnesses.keys().collect::<BTreeSet<_>>(),
                    sharded.witnesses.keys().collect::<BTreeSet<_>>(),
                    "{tag}: witness-value sets diverged"
                );
                assert_eq!(seq.exhaustive, sharded.exhaustive, "{tag}");
                assert_eq!(seq.symmetry_group, sharded.symmetry_group, "{tag}");
                if seq.exhaustive {
                    assert_eq!(seq.states, sharded.states, "{tag}: state-count parity");
                }
            }
        }
    }
}
