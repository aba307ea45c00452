//! Regeneration of Table 1: formulas evaluated side by side with the
//! **measured** space (object counts) of this repository's implementations.
//!
//! For each row that has an executable witness in this repository, the
//! generator instantiates the algorithm and reports
//! [`swapcons_sim::Protocol::num_objects`] — the machine-checked space
//! complexity (every operation is validated against the object schemas at
//! run time, so the count cannot lie about the object kinds either).
//!
//! The paper-vs-measured comparison encodes the substitutions documented in
//! DESIGN.md: the register rows carry our commit–adopt (`2n`) against the
//! literature `n`; the binary row carries our monotone-track algorithm
//! (`Θ(n)`, concretely `2·8(n+3)`) against Bowman's `2n-1`.

use std::fmt::Write as _;

use swapcons_baselines::{BinaryRacing, CommitAdoptConsensus, ReadableRacing, RegisterKSet};
use swapcons_core::pairs::PairsKSet;
use swapcons_core::SwapKSet;
use swapcons_sim::explore::{CheckReport, ModelChecker};
use swapcons_sim::Protocol;

use crate::bounds::Table1Row;
use crate::valency::{ValencyOracle, ValencyResult};

/// One evaluated cell of the regenerated Table 1.
#[derive(Clone, Debug)]
pub struct Table1Entry {
    /// The row.
    pub row: Table1Row,
    /// Number of processes.
    pub n: usize,
    /// Agreement degree (1 for the consensus rows).
    pub k: usize,
    /// Domain size (only meaningful for the bounded-domain row).
    pub b: u64,
    /// Lower-bound formula text.
    pub lower_text: String,
    /// Lower bound evaluated.
    pub lower: f64,
    /// Upper-bound formula text.
    pub upper_text: String,
    /// Upper bound evaluated.
    pub upper: f64,
    /// Object count of our implementation witnessing the row, if any.
    pub measured: Option<usize>,
    /// Name of the witnessing implementation.
    pub witness: Option<String>,
}

/// Instantiate the repository's witness for a row, returning
/// `(object count, name)`.
pub fn witness(row: Table1Row, n: usize, k: usize, _b: u64) -> Option<(usize, String)> {
    match row {
        Table1Row::ConsensusRegisters => {
            let p = CommitAdoptConsensus::new(n, 2);
            Some((p.num_objects(), p.name()))
        }
        Table1Row::ConsensusSwap => {
            let p = SwapKSet::consensus(n, 2);
            Some((p.num_objects(), p.name()))
        }
        Table1Row::ConsensusReadableBinarySwap => {
            let p = BinaryRacing::new(n);
            Some((p.num_objects(), p.name()))
        }
        // Our binary-domain algorithm is the domain-size-b witness at b = 2
        // (any b >= 2 admits it; smaller spaces for larger b are open).
        Table1Row::ConsensusReadableSwapDomainB => {
            let p = BinaryRacing::new(n);
            Some((p.num_objects(), p.name()))
        }
        Table1Row::ConsensusReadableSwapUnbounded => {
            let p = ReadableRacing::new(n, 2);
            Some((p.num_objects(), p.name()))
        }
        Table1Row::KSetRegisters => {
            let p = RegisterKSet::new(n, k, (k + 1) as u64);
            Some((p.num_objects(), p.name()))
        }
        Table1Row::KSetSwap => {
            let p = SwapKSet::new(n, k, (k + 1) as u64);
            Some((p.num_objects(), p.name()))
        }
        Table1Row::KSetReadableSwapUnbounded => {
            // A swap object is a readable swap object: Algorithm 1 witnesses
            // this row too. When k >= ⌈n/2⌉ the pairs construction is even
            // wait-free; prefer it there to display the distinct algorithm.
            if 2 * k >= n {
                let p = PairsKSet::new(n, k, (k + 1) as u64);
                Some((p.num_objects(), p.name()))
            } else {
                let p = SwapKSet::new(n, k, (k + 1) as u64);
                Some((p.num_objects(), p.name()))
            }
        }
    }
}

/// Evaluate every row at the given parameter grid. Consensus rows use the
/// `n` values only; k-set rows use every `(n, k)` pair with `k < n` and
/// `k > 1` (the paper's k-set results concern `n > k > 1`; `k = 1` is the
/// consensus rows).
pub fn generate(ns: &[usize], ks: &[usize], b: u64) -> Vec<Table1Entry> {
    let mut entries = Vec::new();
    for row in Table1Row::ALL {
        let is_kset = row.task() == "k-set agreement";
        for &n in ns {
            let k_values: Vec<usize> = if is_kset {
                ks.iter().copied().filter(|&k| k > 1 && k < n).collect()
            } else {
                vec![1]
            };
            for k in k_values {
                let lower = row.lower_bound();
                let upper = row.upper_bound();
                let w = witness(row, n, k, b);
                entries.push(Table1Entry {
                    row,
                    n,
                    k,
                    b,
                    lower_text: lower.to_string(),
                    lower: lower.at(n, k, b),
                    upper_text: upper.to_string(),
                    upper: upper.at(n, k, b),
                    measured: w.as_ref().map(|(c, _)| *c),
                    witness: w.map(|(_, name)| name),
                });
            }
        }
    }
    entries
}

/// Render entries as an aligned plain-text table (the bench harness prints
/// this; EXPERIMENTS.md records it).
pub fn render(entries: &[Table1Entry]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<55} {:>4} {:>3} | {:>22} {:>9} | {:>22} {:>9} | {:>9}",
        "Task / Objects", "n", "k", "lower bound", "=", "upper bound", "=", "measured"
    );
    let _ = writeln!(out, "{}", "-".repeat(148));
    for e in entries {
        let _ = writeln!(
            out,
            "{:<55} {:>4} {:>3} | {:>22} {:>9.2} | {:>22} {:>9.2} | {:>9}",
            format!(
                "{}{}",
                e.row,
                if e.row.is_new_in_paper() { " *" } else { "" }
            ),
            e.n,
            e.k,
            e.lower_text,
            e.lower,
            e.upper_text,
            e.upper,
            e.measured
                .map_or_else(|| "-".to_string(), |m| m.to_string()),
        );
    }
    out.push_str(
        "* = new result in the paper. 'measured' = objects allocated by this repo's witness.\n",
    );
    out
}

/// Bounded model-check of every row's witness implementation at a small
/// instance, run **twice** — once with exact dedup, once symmetry-reduced —
/// returning `(row, full report, reduced report)` triples. The bench
/// harness and CI smoke assert the two verdicts agree for every row, so a
/// broken symmetry declaration in any witness fails the build, not just the
/// protocol's own unit tests.
///
/// Budgets are sized for a single-core CI box: depth-bounded on the racing
/// rows (their reachable spaces are infinite), exhaustive on the wait-free
/// ones.
pub fn verify_witnesses() -> Vec<(Table1Row, CheckReport, CheckReport)> {
    verify_witnesses_threaded(1)
}

/// [`verify_witnesses`] with every check sharded across `threads` workers
/// (`1` = the sequential sweep). The CI parity gate runs this at several
/// thread counts and asserts the reports match the sequential ones.
pub fn verify_witnesses_threaded(threads: usize) -> Vec<(Table1Row, CheckReport, CheckReport)> {
    // (row, protocol instance parameters, depth, states, solo budget).
    let mut out = Vec::new();
    let mut verify =
        |row: Table1Row, checker: ModelChecker, run: &dyn Fn(ModelChecker) -> CheckReport| {
            let checker = checker.with_threads(threads);
            let full = run(checker);
            let reduced = run(checker.with_symmetry_reduction());
            out.push((row, full, reduced));
        };
    {
        let p = CommitAdoptConsensus::new(2, 2);
        verify(
            Table1Row::ConsensusRegisters,
            ModelChecker::new(14, 150_000).with_solo_budget(p.solo_step_bound()),
            &|c| c.check_all_inputs(&p),
        );
    }
    {
        let p = SwapKSet::consensus(3, 2);
        verify(
            Table1Row::ConsensusSwap,
            ModelChecker::new(12, 300_000).with_solo_budget(p.solo_step_bound()),
            &|c| c.check(&p, &[1, 1, 1]),
        );
    }
    {
        let p = BinaryRacing::with_track_len(2, 8);
        verify(
            Table1Row::ConsensusReadableBinarySwap,
            ModelChecker::new(16, 150_000),
            &|c| c.check_all_inputs(&p),
        );
    }
    {
        let p = ReadableRacing::new(2, 2);
        verify(
            Table1Row::ConsensusReadableSwapUnbounded,
            ModelChecker::new(16, 150_000).with_solo_budget(p.solo_step_bound()),
            &|c| c.check_all_inputs(&p),
        );
    }
    {
        let p = RegisterKSet::new(3, 2, 2);
        verify(
            Table1Row::KSetRegisters,
            ModelChecker::new(12, 150_000),
            &|c| c.check_all_inputs(&p),
        );
    }
    {
        let p = SwapKSet::new(3, 2, 3);
        verify(
            Table1Row::KSetSwap,
            ModelChecker::new(12, 150_000).with_solo_budget(p.solo_step_bound()),
            &|c| c.check(&p, &[0, 1, 2]),
        );
    }
    {
        let p = PairsKSet::new(4, 2, 3);
        verify(
            Table1Row::KSetReadableSwapUnbounded,
            ModelChecker::new(10, 150_000).with_solo_budget(1),
            &|c| c.check_all_inputs(&p),
        );
    }
    out
}

/// The oracle half of the engine-parity sweep: run [`ValencyOracle`]
/// queries — full and symmetry-reduced — over representative fixtures
/// (the wait-free pairs construction, Algorithm 1 after a commitment,
/// the racing baseline's bivalent start), returning
/// `(label, full result, reduced result)` triples. The bench harness and
/// CI smoke assert verdicts and witness-value sets agree for every row, so
/// a regression in the shared search core's oracle client (or a broken
/// symmetry declaration) fails the build, not just unit tests.
pub fn verify_oracle_parity() -> Vec<(String, ValencyResult, ValencyResult)> {
    verify_oracle_parity_threaded(1)
}

/// [`verify_oracle_parity`] with every query sharded across `threads`
/// workers (`1` = the sequential oracle). The CI parity gate runs this at
/// several thread counts and asserts verdicts and witness-value sets match
/// the sequential ones.
pub fn verify_oracle_parity_threaded(
    threads: usize,
) -> Vec<(String, ValencyResult, ValencyResult)> {
    use swapcons_sim::{Configuration, ProcessId};
    let mut out = Vec::new();
    {
        // Finite group-only space, no bivalence early-exit: {p1, p3} are
        // partners in different pairs whose other halves never move, so
        // both can only decide their common input — the whole (tiny) space
        // is enumerated and both searches must report it exhaustively.
        let p = PairsKSet::new(4, 2, 3);
        let c = Configuration::initial(&p, &[0, 1, 2, 1]).unwrap();
        let group = [ProcessId(1), ProcessId(3)];
        let oracle = ValencyOracle::new(20, 30_000).with_threads(threads);
        out.push((
            "pairs_kset n=4 {p1,p3}".into(),
            oracle.query(&p, &c, &group),
            oracle.with_symmetry_reduction().query(&p, &c, &group),
        ));
    }
    {
        // Algorithm 1 after p0 commits: agreement forces univalence toward
        // p0's value in the (depth-bounded) remainder.
        let p = SwapKSet::consensus(3, 2);
        let mut c = Configuration::initial(&p, &[1, 0, 0]).unwrap();
        swapcons_sim::runner::solo_run(&p, &mut c, ProcessId(0), p.solo_step_bound()).unwrap();
        let group = [ProcessId(1), ProcessId(2)];
        // The post-commitment {p1,p2} space is finite (agreement pins the
        // race); depth 60 closes it in both modes, so the verdicts are the
        // definitive `Univalent(1)` rather than a truncation artifact.
        let oracle = ValencyOracle::new(60, 150_000).with_threads(threads);
        out.push((
            "alg1 n=3 post-commit {p1,p2}".into(),
            oracle.query(&p, &c, &group),
            oracle.with_symmetry_reduction().query(&p, &c, &group),
        ));
    }
    {
        // Observation 12: the special pair is bivalent initially.
        let p = BinaryRacing::with_track_len(4, 10);
        let c = Configuration::initial(&p, &[0, 1, 0, 1]).unwrap();
        let group = [ProcessId(0), ProcessId(1)];
        let oracle = ValencyOracle::new(60, 60_000).with_threads(threads);
        out.push((
            "binary_racing n=4 {q0,q1}".into(),
            oracle.query(&p, &c, &group),
            oracle.with_symmetry_reduction().query(&p, &c, &group),
        ));
    }
    {
        // The Lemma 16 query shape with its object-symmetry stabilizer:
        // balanced inputs make (q0 q1)(p2 p3) with the coupled track swap
        // fix the initial configuration, and a depth too small for any solo
        // decision forces the bounded search to actually run — the reduced
        // query drains about half the configurations (group order 2, where
        // the σ = id oracle of PR 3/4 degraded to trivial).
        let p = BinaryRacing::with_track_len(4, 10);
        let c = Configuration::initial(&p, &[0, 1, 0, 1]).unwrap();
        let group = [ProcessId(0), ProcessId(1)];
        let oracle = ValencyOracle::new(10, 60_000).with_threads(threads);
        out.push((
            "binary_racing n=4 track-swap {q0,q1} d10".into(),
            oracle.query(&p, &c, &group),
            oracle.with_symmetry_reduction().query(&p, &c, &group),
        ));
    }
    {
        // Pair-swap stabilizer on the pairs construction: {p1, p3} are
        // partners of *different* pairs, so only the composed pair swap
        // (π moving both pairs, τ moving both objects, σ forced by the
        // inputs) stabilizes the query — the oracle's first genuinely
        // object-permuting subgroup.
        let p = PairsKSet::new(4, 2, 3);
        let c = Configuration::initial(&p, &[0, 1, 2, 1]).unwrap();
        let group = [ProcessId(1), ProcessId(3)];
        let oracle = ValencyOracle::new(20, 30_000).with_threads(threads);
        out.push((
            "pairs_kset n=4 pair-swap {p1,p3}".into(),
            oracle.query(&p, &c, &group),
            oracle.with_symmetry_reduction().query(&p, &c, &group),
        ));
    }
    {
        // The TAS register pool: swapping the two processes drags their
        // single-writer proposal registers along via the protocol's
        // `rename_object` override; with distinct inputs the renaming needs
        // σ ≠ id, which the stabilizer subgroup now admits. The query
        // fast-paths to bivalence (both solo runs decide), so this row
        // pins group nontriviality and verdict parity rather than a state
        // reduction.
        let p = swapcons_core::hierarchy::TasConsensus;
        let c = Configuration::initial(&p, &[3, 8]).unwrap();
        let group = [ProcessId(0), ProcessId(1)];
        let oracle = ValencyOracle::new(6, 10_000).with_threads(threads);
        out.push((
            "tas_consensus register-pool {p0,p1}".into(),
            oracle.query(&p, &c, &group),
            oracle.with_symmetry_reduction().query(&p, &c, &group),
        ));
    }
    out
}

/// Cross-validation: no implementation in this repository may use fewer
/// objects than the paper's lower bound for its row. Returns the offending
/// entries (empty = all consistent).
pub fn violations(entries: &[Table1Entry]) -> Vec<&Table1Entry> {
    entries
        .iter()
        .filter(|e| {
            // The unbounded-domain consensus row's lower bound is
            // asymptotic (Ω(√n)); constant factors make a literal numeric
            // comparison meaningless there.
            e.row != Table1Row::ConsensusReadableSwapUnbounded
                && e.measured
                    .is_some_and(|m| (m as f64) < e.lower.ceil() - 1e-9)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_all_rows() {
        let entries = generate(&[4, 8], &[2], 2);
        // 5 consensus rows × 2 n-values + 3 k-set rows × 2 (n,k) pairs.
        assert_eq!(entries.len(), 5 * 2 + 3 * 2);
    }

    #[test]
    fn no_implementation_beats_a_lower_bound() {
        // The key consistency check between the algorithms and the theory.
        let entries = generate(&[3, 4, 6, 8, 16, 32], &[2, 3, 4], 2);
        let bad = violations(&entries);
        assert!(
            bad.is_empty(),
            "implementations beat paper lower bounds: {bad:?}"
        );
    }

    #[test]
    fn headline_row_is_exactly_tight() {
        for n in [4usize, 8, 64] {
            let entries = generate(&[n], &[], 2);
            let swap_row = entries
                .iter()
                .find(|e| e.row == Table1Row::ConsensusSwap)
                .unwrap();
            assert_eq!(swap_row.measured, Some(n - 1));
            assert_eq!(swap_row.lower, (n - 1) as f64);
            assert_eq!(swap_row.upper, (n - 1) as f64);
        }
    }

    #[test]
    fn kset_swap_row_matches_algorithm1() {
        let entries = generate(&[9], &[3], 2);
        let e = entries
            .iter()
            .find(|e| e.row == Table1Row::KSetSwap)
            .unwrap();
        assert_eq!(e.measured, Some(6)); // n-k = 9-3
        assert_eq!(e.lower, 2.0); // ⌈9/3⌉-1
        assert_eq!(e.upper, 6.0); // n-k
    }

    #[test]
    fn pairs_witnesses_kset_readable_when_k_large() {
        let (count, name) = witness(Table1Row::KSetReadableSwapUnbounded, 6, 4, 2).unwrap();
        assert_eq!(count, 2);
        assert!(name.contains("pairs"), "{name}");
        let (count, name) = witness(Table1Row::KSetReadableSwapUnbounded, 6, 2, 2).unwrap();
        assert_eq!(count, 4);
        assert!(name.contains("Algorithm 1"), "{name}");
    }

    #[test]
    fn witness_verification_reduced_matches_full() {
        for (row, full, reduced) in verify_witnesses() {
            assert!(full.passed(), "{row}: {full}");
            assert!(
                full.same_verdict(&reduced),
                "{row}: reduced verdict diverged: {full} vs {reduced}"
            );
            assert!(
                reduced.states <= full.states,
                "{row}: reduction may never explore more: {full} vs {reduced}"
            );
        }
    }

    #[test]
    fn oracle_parity_reduced_matches_full() {
        for (label, full, reduced) in verify_oracle_parity() {
            assert_eq!(
                full.verdict(),
                reduced.verdict(),
                "{label}: verdicts diverged: {full:?} vs {reduced:?}"
            );
            assert_eq!(
                full.witnesses
                    .keys()
                    .collect::<std::collections::BTreeSet<_>>(),
                reduced
                    .witnesses
                    .keys()
                    .collect::<std::collections::BTreeSet<_>>(),
                "{label}: witness-value sets diverged"
            );
            assert!(
                reduced.states <= full.states,
                "{label}: reduction may never explore more: {full:?} vs {reduced:?}"
            );
        }
    }

    #[test]
    fn oracle_object_symmetry_rows_have_nontrivial_stabilizers() {
        let rows = verify_oracle_parity();
        let find = |label: &str| {
            rows.iter()
                .find(|(l, _, _)| l == label)
                .unwrap_or_else(|| panic!("missing fixture {label}"))
        };
        for label in [
            "binary_racing n=4 track-swap {q0,q1} d10",
            "pairs_kset n=4 pair-swap {p1,p3}",
            "tas_consensus register-pool {p0,p1}",
        ] {
            let (_, full, reduced) = find(label);
            assert_eq!(full.symmetry_group, 1, "{label}: {full:?}");
            assert!(
                reduced.symmetry_group > 1,
                "{label}: the composed stabilizer degraded to trivial: {reduced:?}"
            );
        }
        // Where the engine actually runs (no bivalence fast path), the
        // nontrivial stabilizer must buy a reduction factor > 1.
        for label in [
            "binary_racing n=4 track-swap {q0,q1} d10",
            "pairs_kset n=4 pair-swap {p1,p3}",
        ] {
            let (_, full, reduced) = find(label);
            assert!(
                reduced.states < full.states,
                "{label}: no state reduction: {full:?} vs {reduced:?}"
            );
        }
    }

    #[test]
    fn render_produces_a_line_per_entry() {
        let entries = generate(&[4], &[2], 2);
        let text = render(&entries);
        // Header + separator + entries + footnote.
        assert_eq!(text.lines().count(), 2 + entries.len() + 1);
        assert!(text.contains("measured"));
    }
}
