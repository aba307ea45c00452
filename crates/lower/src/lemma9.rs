//! The Lemma 9 overwriting adversary — the engine of Theorem 10.
//!
//! Lemma 9: *let `C` be an initial configuration of a nondeterministic
//! solo-terminating k-set agreement algorithm from swap objects in which a
//! set of processes `Q` share input `v`, and let `α` be an execution from
//! `C` without steps by `Q` in which `k` values different from `v` are
//! decided. Then the algorithm uses at least `|Q|` swap objects.*
//!
//! The proof is an induction that this module executes literally
//! (Figure 1). Two worlds run side by side:
//!
//! * world `Cαγᵢ` — the "real" world, where `k` foreign values are decided;
//! * world `Dδᵢ` — the "clean" world, from the all-inputs-`v` initial
//!   configuration `D`, where validity forces every decision to be `v`.
//!
//! Invariant: a set `Aᵢ` of `i` swap objects has **equal values in both
//! worlds**, and `q₁, …, qᵢ` have executed the *same* steps in both. Process
//! `qᵢ₊₁`'s solo run from `Dδᵢ` must decide `v`; mirrored into the real
//! world it would violate k-agreement — so the run must first step outside
//! `Aᵢ`. That first outside step is a `Swap`, whose response the adversary
//! never lets `qᵢ₊₁` act on: stopping `qᵢ₊₁` right after the swap leaves the
//! new object with **equal values in both worlds** (a swap object's value is
//! just the last value swapped in, and `qᵢ₊₁` is in the same state in both).
//! `Aᵢ₊₁` gains a genuinely new object; after `|Q|` rounds the algorithm has
//! been forced to reveal `|Q|` distinct swap objects.
//!
//! The "learning requires overwriting" property of swap is exactly what
//! makes the mirroring sound — and exactly what fails for readable swap
//! objects (a `Read` would let `qᵢ₊₁` learn about `α` without leaving a
//! trace). [`run`] therefore rejects protocols whose schemas admit trivial
//! operations; the unit tests point it at [`ReadableRacing`] expecting that
//! rejection.
//!
//! [`ReadableRacing`]: swapcons_baselines::ReadableRacing

use std::collections::BTreeSet;
use std::fmt;

use swapcons_sim::engine;
use swapcons_sim::{Configuration, ObjectId, ProcessId, Protocol, SynthesisReport};

/// Outcome of a successful Lemma 9 construction.
#[derive(Clone, Debug)]
pub struct LemmaNineReport {
    /// The distinct objects forced, in the order they were discovered
    /// (`A_|Q|` in the proof).
    pub forced_objects: Vec<ObjectId>,
    /// Steps taken by each `qᵢ` during its `τᵢ sᵢ` phase (mirrored in both
    /// worlds).
    pub steps_per_process: Vec<usize>,
    /// Total simulator steps across both worlds.
    pub total_steps: usize,
}

impl fmt::Display for LemmaNineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "forced {} distinct swap objects ({:?}) in {} total steps",
            self.forced_objects.len(),
            self.forced_objects,
            self.total_steps
        )
    }
}

/// Why the construction could not be carried out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LemmaNineError {
    /// The protocol's schemas admit a trivial operation (e.g. a readable
    /// swap object): Lemma 9 only covers objects supporting nontrivial
    /// operations only.
    TrivialOpsSupported,
    /// A `qᵢ` failed to decide within the solo budget (not solo-terminating
    /// within the given bound).
    SoloBudgetExhausted {
        /// The process that failed to decide.
        process: ProcessId,
    },
    /// `qᵢ` decided without ever leaving `Aᵢ` — mirrored into the real world
    /// this violates k-agreement, i.e. the target algorithm is broken.
    AgreementViolatedByMirror {
        /// The offending process.
        process: ProcessId,
        /// The value it decided in both worlds.
        decided: u64,
    },
    /// The two worlds diverged during mirroring: the target protocol is not
    /// deterministic (or the invariant was violated — an internal error).
    MirrorDiverged {
        /// The process being mirrored.
        process: ProcessId,
    },
    /// The simulator rejected a step.
    Sim(String),
}

impl fmt::Display for LemmaNineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LemmaNineError::TrivialOpsSupported => write!(
                f,
                "protocol admits trivial operations; Lemma 9 applies to swap-only algorithms"
            ),
            LemmaNineError::SoloBudgetExhausted { process } => {
                write!(f, "{process} did not decide within the solo budget")
            }
            LemmaNineError::AgreementViolatedByMirror { process, decided } => write!(
                f,
                "{process} decided {decided} without leaving the equalized set: \
                 the mirrored run violates k-agreement"
            ),
            LemmaNineError::MirrorDiverged { process } => {
                write!(
                    f,
                    "worlds diverged while mirroring {process}: protocol nondeterministic?"
                )
            }
            LemmaNineError::Sim(msg) => write!(f, "simulator error: {msg}"),
        }
    }
}

impl std::error::Error for LemmaNineError {}

/// Execute the Lemma 9 construction.
///
/// * `real_world` — the configuration `Cα`: reached from an initial
///   configuration `C` in which every process of `q` has input `v`, by an
///   execution `α` containing no steps by `q` (the caller is responsible
///   for these preconditions; [`theorem10_consensus_witness`] builds them
///   for the consensus case).
/// * `q` — the fresh processes `q₁, …, q_|Q|`.
/// * `v` — their common input.
/// * `solo_budget` — step bound for each solo run (for obstruction-free
///   targets, their solo bound).
///
/// Returns the forced object set, of size exactly `q.len()`.
///
/// # Errors
///
/// See [`LemmaNineError`].
pub fn run<P: Protocol>(
    protocol: &P,
    real_world: &Configuration<P>,
    q: &[ProcessId],
    v: u64,
    solo_budget: usize,
) -> Result<LemmaNineReport, LemmaNineError> {
    // Lemma 9 requires objects that support only nontrivial operations.
    if protocol
        .schemas()
        .iter()
        .any(|s| s.kind().supports_trivial())
    {
        return Err(LemmaNineError::TrivialOpsSupported);
    }
    // World 1: Cα (then γ₁ γ₂ …). World 2: D (then δ₁ δ₂ …), D = all-v.
    let mut w1 = real_world.clone();
    let d_inputs = vec![v; protocol.task().n];
    let mut w2 = Configuration::initial(protocol, &d_inputs)
        .map_err(|e| LemmaNineError::Sim(e.to_string()))?;

    let mut equalized: BTreeSet<ObjectId> = BTreeSet::new();
    let mut forced_order: Vec<ObjectId> = Vec::new();
    let mut steps_per_process = Vec::with_capacity(q.len());
    let mut total_steps = 0usize;

    for &qi in q {
        // Find τ: run qᵢ solo *hypothetically* from Dδᵢ to find the longest
        // prefix touching only equalized objects. We step the clean world
        // directly and mirror into the real world step by step, stopping at
        // the first access outside Aᵢ (which we also take, as step s).
        let mut steps_this = 0usize;
        loop {
            if steps_this >= solo_budget {
                return Err(LemmaNineError::SoloBudgetExhausted { process: qi });
            }
            let Some((obj, _op)) = w2.poised(protocol, qi) else {
                // qᵢ decided in the clean world without leaving Aᵢ: the
                // identical mirrored run decided in the real world too —
                // k-agreement is violated there (k foreign values + v).
                let decided = w2.decision(qi).expect("not poised means decided");
                return Err(LemmaNineError::AgreementViolatedByMirror {
                    process: qi,
                    decided,
                });
            };
            let outside = !equalized.contains(&obj);
            // Take the step in both worlds. Indistinguishability argument:
            // qᵢ has equal states in both; if obj ∈ Aᵢ the object values are
            // equal, hence equal responses and equal successor states; if
            // outside, this is the final step sᵢ — a Swap whose *response*
            // may differ between worlds, but qᵢ takes no further steps, and
            // the swapped-in value (a function of qᵢ's pre-state alone)
            // equalizes the object.
            let rec2 = w2
                .step(protocol, qi)
                .map_err(|e| LemmaNineError::Sim(e.to_string()))?;
            let rec1 = w1
                .step(protocol, qi)
                .map_err(|e| LemmaNineError::Sim(e.to_string()))?;
            total_steps += 2;
            steps_this += 1;
            if rec1.object != rec2.object || rec1.op != rec2.op {
                return Err(LemmaNineError::MirrorDiverged { process: qi });
            }
            if outside {
                debug_assert!(
                    rec1.op.is_nontrivial(),
                    "swap-only schema guarantees nontrivial ops"
                );
                // The defining moment: the object q overwrote now has equal
                // values in both worlds.
                debug_assert_eq!(w1.value(obj), w2.value(obj));
                equalized.insert(obj);
                forced_order.push(obj);
                break;
            } else {
                // Inside Aᵢ: responses must have matched (equal values).
                if rec1.response != rec2.response {
                    return Err(LemmaNineError::MirrorDiverged { process: qi });
                }
                // Invariant: values in Aᵢ remain equal (same op applied to
                // equal values).
                debug_assert_eq!(w1.value(obj), w2.value(obj));
            }
        }
        steps_per_process.push(steps_this);
    }

    debug_assert_eq!(forced_order.len(), q.len());
    Ok(LemmaNineReport {
        forced_objects: forced_order,
        steps_per_process,
        total_steps,
    })
}

/// Adversary *synthesis* over the Lemma 8 landscape: search all schedules
/// (up to `depth` steps and `max_states` configurations) for the reachable
/// configuration from which some running process needs the **most** solo
/// steps to decide, and return that schedule as a replayable witness.
///
/// This is the companion worst-case to the hand-built adversaries in this
/// module: where [`run`] *constructs* a specific bad schedule the proof
/// describes, this searches the whole bounded schedule space for the
/// extremal one. For Algorithm 1 the paper's Lemma 8 caps the objective at
/// `8(n-k)` from *every* reachable configuration — so the searched maximum
/// is a machine-checked probe of that bound over the explored region (the
/// tests pin `best_score ≤ 8(n-k)`).
///
/// A process whose solo run exhausts `solo_budget` scores `solo_budget + 1`
/// — strictly worse than any in-budget run, so obstruction-freedom
/// violations (were any reachable) would dominate the search and surface
/// as the extremum.
///
/// # Panics
///
/// Panics if `inputs` are invalid for the protocol's task.
pub fn searched_solo_pressure<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    depth: usize,
    max_states: usize,
    solo_budget: usize,
) -> SynthesisReport<P> {
    engine::synthesize(protocol, inputs, depth, max_states, |p, c| {
        c.running()
            .into_iter()
            .map(|pid| {
                swapcons_sim::runner::solo_run_cloned(p, c, pid, solo_budget)
                    .map(|(out, _)| out.steps as u64)
                    .unwrap_or(solo_budget as u64 + 1)
            })
            .max()
            .unwrap_or(0)
    })
}

/// The Theorem 10 base case (`k = 1`), packaged: for an n-process consensus
/// protocol from swap objects, build `C` (process `p₀` with input 0, the
/// rest with input 1), run `α` = `p₀`'s solo-terminating execution (it
/// decides 0, being unable to distinguish `C` from the all-0 configuration),
/// and unleash the adversary with `Q = {p₁, …, p_{n-1}}`, `v = 1` — forcing
/// `n-1` distinct swap objects.
///
/// # Errors
///
/// See [`LemmaNineError`]; additionally fails if `p₀`'s solo run exhausts
/// `solo_budget`.
pub fn theorem10_consensus_witness<P: Protocol>(
    protocol: &P,
    solo_budget: usize,
) -> Result<LemmaNineReport, LemmaNineError> {
    let task = protocol.task();
    assert_eq!(
        task.k, 1,
        "theorem10_consensus_witness drives consensus protocols"
    );
    assert!(task.m >= 2, "need at least two input values");
    let mut inputs = vec![1u64; task.n];
    inputs[0] = 0;
    let mut c_alpha = Configuration::initial(protocol, &inputs)
        .map_err(|e| LemmaNineError::Sim(e.to_string()))?;
    // α: p₀ solo until it decides (0, by validity + indistinguishability).
    let out = swapcons_sim::runner::solo_run(protocol, &mut c_alpha, ProcessId(0), solo_budget)
        .map_err(|e| LemmaNineError::Sim(e.to_string()))?;
    debug_assert_eq!(
        out.decision, 0,
        "p0 cannot distinguish C from the all-0 configuration"
    );
    let q: Vec<ProcessId> = (1..task.n).map(ProcessId).collect();
    run(protocol, &c_alpha, &q, 1, solo_budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcons_baselines::ReadableRacing;
    use swapcons_core::pairs::PairsKSet;
    use swapcons_core::SwapKSet;
    use swapcons_sim::runner;

    #[test]
    fn forces_all_n_minus_1_objects_of_algorithm1() {
        // Theorem 10 is tight for k=1: Algorithm 1 uses n-1 objects and the
        // adversary forces every single one of them.
        for n in 2..=10 {
            let p = SwapKSet::consensus(n, 2);
            let report = theorem10_consensus_witness(&p, p.solo_step_bound()).unwrap();
            assert_eq!(report.forced_objects.len(), n - 1, "n={n}");
            // All distinct, all within range.
            let set: BTreeSet<ObjectId> = report.forced_objects.iter().copied().collect();
            assert_eq!(set.len(), n - 1);
            assert!(set.iter().all(|o| o.index() < n - 1));
        }
    }

    #[test]
    fn forces_all_pair_objects_of_pairs_kset() {
        // PairsKSet(2k, k): k pairs, each with its own object. C: the pair
        // partners p0, p2, ..., p_{2k-2} hold inputs 0..k-1 and decide them
        // in α; Q = the other partners with input k — forcing all k objects.
        for k in 1..=4usize {
            let n = 2 * k;
            let m = (k + 1) as u64;
            let p = PairsKSet::new(n, k, m);
            let mut inputs = vec![0u64; n];
            for pair in 0..k {
                inputs[2 * pair] = pair as u64;
                inputs[2 * pair + 1] = k as u64; // Q's common input v = k
            }
            let mut c_alpha = Configuration::initial(&p, &inputs).unwrap();
            // α: the even-indexed processes decide 0..k-1 (one step each).
            for pair in 0..k {
                let out = runner::solo_run(&p, &mut c_alpha, ProcessId(2 * pair), 2).unwrap();
                assert_eq!(out.decision, pair as u64);
            }
            let q: Vec<ProcessId> = (0..k).map(|pair| ProcessId(2 * pair + 1)).collect();
            let report = run(&p, &c_alpha, &q, k as u64, 4).unwrap();
            assert_eq!(report.forced_objects.len(), k, "k={k}");
        }
    }

    #[test]
    fn searched_solo_pressure_respects_lemma8_and_replays() {
        // Machine-search the worst case of Lemma 8's 8(n-k) solo bound over
        // a bounded region of Algorithm 1's schedule space.
        let p = SwapKSet::consensus(3, 2);
        let inputs = [0u64, 1, 1];
        let bound = p.solo_step_bound();
        let report = lemma9_pressure(&p, &inputs, bound);
        assert!(report.complete, "budgets must cover the depth-8 region");
        // Lemma 8, searched: no reachable configuration in the region
        // needs more than 8(n-k) solo steps (a score of bound+1 would mean
        // an exhausted budget, i.e. an obstruction-freedom violation).
        assert!(
            report.best_score <= bound as u64,
            "searched worst case {} exceeds Lemma 8's bound {bound}",
            report.best_score
        );
        // The adversary found genuinely worse configurations than the
        // initial one (where a solo run needs 4 steps at n=3).
        let initial = Configuration::initial(&p, &inputs).unwrap();
        let from_initial = (0..3)
            .map(|i| {
                runner::solo_run_cloned(&p, &initial, ProcessId(i), bound)
                    .unwrap()
                    .0
                    .steps as u64
            })
            .max()
            .unwrap();
        assert!(
            report.best_score > from_initial,
            "searched pressure {} must beat the initial configuration's {from_initial}",
            report.best_score
        );
        // The extremal schedule is a real, replayable witness.
        let mut replay = initial.clone();
        runner::replay(&p, &mut replay, &report.schedule).unwrap();
        assert_eq!(replay, report.config, "witness replays to the extremum");
    }

    /// Synthesis covers the whole depth-bounded ball, whatever the
    /// objective: the report's state count equals an independent
    /// breadth-first search over whole configurations in a `HashSet` (no
    /// engine, no fingerprints), and its best score is the maximum of the
    /// objective over that ball.
    #[test]
    fn searched_solo_pressure_covers_the_min_depth_ball() {
        use std::collections::HashSet;
        let p = SwapKSet::consensus(3, 2);
        let inputs = [0u64, 1, 1];
        let bound = p.solo_step_bound();
        let root = Configuration::initial(&p, &inputs).unwrap();
        let mut seen: HashSet<Configuration<SwapKSet>> = HashSet::from([root.clone()]);
        let mut layer = vec![root];
        for _ in 0..8 {
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
        assert_eq!(seen.len(), 1_084, "the depth-8 ball itself");
        let ball_max = seen
            .iter()
            .flat_map(|c| {
                c.running()
                    .into_iter()
                    .map(|pid| runner::solo_run_cloned(&p, c, pid, bound).unwrap().0.steps as u64)
            })
            .max()
            .unwrap();
        let report = lemma9_pressure(&p, &inputs, bound);
        assert!(report.complete);
        assert_eq!(report.states, seen.len(), "synthesis must cover the ball");
        assert_eq!(report.best_score, ball_max, "the true depth-8 maximum");
        assert_eq!(report.best_score, 15);
    }

    /// The pressure search at the budgets the unit tests and the bench
    /// smoke share.
    fn lemma9_pressure(
        p: &SwapKSet,
        inputs: &[u64],
        solo_budget: usize,
    ) -> swapcons_sim::SynthesisReport<SwapKSet> {
        searched_solo_pressure(p, inputs, 8, 60_000, solo_budget)
    }

    #[test]
    fn rejects_readable_swap_protocols() {
        // Reads learn without overwriting: the construction must refuse.
        let p = ReadableRacing::new(4, 2);
        let inputs = [0, 1, 1, 1];
        let c = Configuration::initial(&p, &inputs).unwrap();
        let q: Vec<ProcessId> = (1..4).map(ProcessId).collect();
        let err = run(&p, &c, &q, 1, p.solo_step_bound()).unwrap_err();
        assert_eq!(err, LemmaNineError::TrivialOpsSupported);
    }

    #[test]
    fn forced_objects_monotone_growth() {
        // Each qᵢ contributes exactly one new object and at least one step.
        let p = SwapKSet::consensus(6, 2);
        let report = theorem10_consensus_witness(&p, p.solo_step_bound()).unwrap();
        assert_eq!(report.steps_per_process.len(), 5);
        assert!(report.steps_per_process.iter().all(|&s| s >= 1));
        assert!(report.total_steps >= 2 * 5);
        assert!(report.to_string().contains("5 distinct swap objects"));
    }

    #[test]
    fn solo_budget_too_small_reported() {
        let p = SwapKSet::consensus(4, 2);
        // p0's own α run already needs more than 1 step.
        let err = theorem10_consensus_witness(&p, 1).unwrap_err();
        assert!(matches!(err, LemmaNineError::Sim(_)));
    }

    #[test]
    fn works_for_kset_with_explicit_alpha() {
        // Algorithm 1 with k=1 but a *hand-built* α: p0 and nobody else.
        // Equivalent to the packaged driver; exercises the public `run`.
        let p = SwapKSet::consensus(3, 2);
        let mut c_alpha = Configuration::initial(&p, &[0, 1, 1]).unwrap();
        runner::solo_run(&p, &mut c_alpha, ProcessId(0), p.solo_step_bound()).unwrap();
        let report = run(
            &p,
            &c_alpha,
            &[ProcessId(1), ProcessId(2)],
            1,
            p.solo_step_bound(),
        )
        .unwrap();
        assert_eq!(report.forced_objects.len(), 2);
    }
}
