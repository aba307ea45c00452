//! E4–E6 — **Figures 2–6**: the Section 5 inductive constructions run
//! against the binary-object consensus baseline. Each stage reports its
//! critical step (Lemma 14's `j`), the critical object, and the case split
//! (frozen vs covered); the drivers re-verify the papers' invariants —
//! Lemma 16 (a)–(d) and Lemma 20's accounting `Σ(2|f|+|g|)+|S| ≥ i` — at
//! every stage.
//!
//! Run: `cargo bench -p swapcons-bench --bench fig_section5`

use swapcons_baselines::BinaryRacing;
use swapcons_bench::harness::time_row;
use swapcons_lower::section5::{self, Budgets};

fn print_constructions() {
    println!("\n====== Figure 5 / Theorem 18: Lemma 16 construction ======");
    for n in [3usize, 4] {
        let p = BinaryRacing::with_track_len(n, 8);
        let inputs: Vec<u64> = (0..n).map(|i| (i % 2) as u64).collect();
        let report = section5::lemma16_driver(&p, &inputs, &Budgets::small());
        println!("n={n}: {report}");
        for s in &report.stages {
            println!(
                "  stage {}: p{} critical j={} at {:?} value {} -> {:?} (invariants {})",
                s.i,
                s.process.index(),
                s.j,
                s.object,
                s.value,
                s.case,
                if s.invariants_ok { "ok" } else { "FAILED" }
            );
        }
        assert!(
            report.complete(),
            "construction must finish on small instances: {report}"
        );
    }

    println!("\n====== Figure 6 / Theorem 22: Lemma 20 construction (b = 2) ======");
    for n in [3usize, 4] {
        let p = BinaryRacing::with_track_len(n, 8);
        let inputs: Vec<u64> = (0..n).map(|i| (i % 2) as u64).collect();
        let report = section5::lemma20_driver(&p, &inputs, &Budgets::small());
        println!("n={n}: {report}");
        assert!(
            report.accounting >= report.stages.len(),
            "Lemma 20 accounting invariant: {report}"
        );
    }

    println!("\n====== Figures 3–4 / Lemma 14(b) fidelity probe (n = 3) ======");
    {
        use swapcons_sim::{Configuration, ProcessId};
        let p = BinaryRacing::with_track_len(3, 8);
        let budgets = Budgets::small();
        let q = [ProcessId(0), ProcessId(1)];
        let pi = ProcessId(2);
        let config = Configuration::initial(&p, &[0, 1, 0]).unwrap();
        // Probe around stage 0's critical step via the public driver pieces:
        // rerun the driver and reuse its reported critical index by
        // replaying pi's solo prefix.
        let report = section5::lemma16_driver(&p, &[0, 1, 0], &budgets);
        let stage = &report.stages[0];
        let mut world = config.clone();
        let mut critical = None;
        for _ in 0..=stage.j {
            critical = Some(world.step(&p, pi).unwrap());
        }
        let critical = critical.expect("j >= 0 implies at least one recorded step");
        // world has advanced past the critical step; rebuild α_j's config
        // as the solo prefix of length j.
        let mut alpha = config.clone();
        for _ in 0..stage.j {
            alpha.step(&p, pi).unwrap();
        }
        let (checked, still_bivalent) =
            section5::verify_lemma14b(&p, &alpha, &q, &[], pi, &critical, &budgets, 300);
        println!(
            "critical step at j = {}: {} preconditioned samples, {} kept Q bivalent \
             (0 at the exact critical index; positives measure the bounded search's gap)",
            stage.j, checked, still_bivalent
        );
    }
    println!();
}

fn main() {
    print_constructions();
    let p = BinaryRacing::with_track_len(3, 8);
    time_row("fig_section5/lemma16_n3", || {
        section5::lemma16_driver(&p, &[0, 1, 0], &Budgets::small())
            .stages
            .len()
    });
    time_row("fig_section5/lemma20_n3", || {
        section5::lemma20_driver(&p, &[0, 1, 0], &Budgets::small())
            .stages
            .len()
    });
}
