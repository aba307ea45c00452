//! **Algorithm 1** of the paper: an obstruction-free, m-valued, k-set
//! agreement algorithm for `n` processes from exactly `n-k` swap objects.
//!
//! The algorithm is a race among the input values (Section 3). Each swap
//! object holds `⟨U, p⟩`: a lap-counter array plus the identifier of the
//! last swapper, initially `⟨[0,…,0], ⊥⟩`. A process `p` with input `v`
//! initializes its local lap counter `U` with `U[v] = 1` and repeats:
//!
//! 1. swap `⟨U, p⟩` into `B_1, …, B_{n-k}` one at a time (lines 6–12),
//!    setting a `conflict` flag whenever a response differs from `⟨U, p⟩`
//!    and merging any foreign lap counter into `U` component-wise;
//! 2. if the whole pass came back `⟨U, p⟩` everywhere (no conflict), `p` has
//!    **completed a lap**: it picks the leading value `v` (smallest index on
//!    ties, lines 14–15); if `v` leads every other value by ≥ 2 laps it
//!    decides `v` (line 16–18), otherwise it increments `U[v]` and races on
//!    (line 20).
//!
//! The implementation is a faithful transcription of the pseudocode into a
//! deterministic state machine ([`SwapKSet`] implementing
//! [`swapcons_sim::Protocol`]): one simulator step = one `Swap` operation =
//! one iteration of the inner loop. Lemma 8's bound — any solo execution
//! decides within `8(n-k)` swaps — is exposed as
//! [`SwapKSet::solo_step_bound`] and asserted in tests.

use swapcons_objects::{HistorylessOp, ObjectOp, ObjectSchema, Response};
use swapcons_sim::{KSetTask, ObjectId, ProcessId, Protocol, Renaming, Symmetry, Transition};

use crate::lap::{LapVec, SwapEntry};

/// Algorithm 1: obstruction-free m-valued k-set agreement from `n-k` swap
/// objects.
///
/// # Example
///
/// Obstruction-freedom promises termination once a process runs alone, so
/// the canonical schedule is: contention, then solo suffixes. Each solo run
/// decides within `8(n-k)` steps (Lemma 8).
///
/// ```
/// use swapcons_core::algorithm1::SwapKSet;
/// use swapcons_sim::{Configuration, runner, scheduler::SeededRandom};
///
/// let protocol = SwapKSet::new(4, 2, 3); // n=4, k=2, inputs from {0,1,2}
/// let mut config = Configuration::initial(&protocol, &[0, 1, 2, 2]).unwrap();
/// runner::run(&protocol, &mut config, &mut SeededRandom::new(1), 40).unwrap();
/// for pid in config.running() {
///     runner::solo_run(&protocol, &mut config, pid, protocol.solo_step_bound()).unwrap();
/// }
/// assert!(config.all_decided());
/// assert!(config.decided_values().len() <= 2); // k-agreement
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwapKSet {
    n: usize,
    k: usize,
    m: u64,
}

impl SwapKSet {
    /// An instance for `n` processes, agreement degree `k`, and inputs from
    /// `{0, …, m-1}`. Uses `n-k` swap objects.
    ///
    /// # Panics
    ///
    /// Panics if `n <= k` (the task is solved by everyone deciding their own
    /// input — see [`crate::pairs::PairsKSet`] for the degenerate cases) or
    /// `m == 0` or `k == 0`.
    pub fn new(n: usize, k: usize, m: u64) -> Self {
        assert!(k > 0, "k-set agreement requires k >= 1");
        assert!(
            n > k,
            "Algorithm 1 requires n > k; for n <= k decide inputs directly"
        );
        assert!(m > 0, "need at least one input value");
        SwapKSet { n, k, m }
    }

    /// `n`-process consensus (`k = 1`) with inputs from `{0, …, m-1}`,
    /// using `n-1` swap objects — the upper bound matching Theorem 10.
    pub fn consensus(n: usize, m: u64) -> Self {
        SwapKSet::new(n, 1, m)
    }

    /// Number of swap objects: `n - k`.
    pub fn space(&self) -> usize {
        self.n - self.k
    }

    /// Lemma 8's obstruction-freedom bound: any solo execution from any
    /// reachable configuration performs at most `8(n-k)` swap operations
    /// before deciding.
    pub fn solo_step_bound(&self) -> usize {
        8 * (self.n - self.k)
    }
}

/// Local state of a process running Algorithm 1.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Alg1State {
    /// The process's identity `p` (swapped into objects alongside `U`).
    pub pid: ProcessId,
    /// The local lap counter `U[0, …, m-1]`.
    pub u: LapVec,
    /// Index of the next object to swap (`i - 1` in the paper's 1-based
    /// loop on line 6).
    pub pos: usize,
    /// The `conflict` flag (line 5).
    pub conflict: bool,
}

impl Protocol for SwapKSet {
    type State = Alg1State;
    type Value = SwapEntry;

    fn name(&self) -> String {
        format!(
            "Algorithm 1: {}-process {}-valued {}-set agreement from {} swap objects",
            self.n,
            self.m,
            self.k,
            self.space()
        )
    }

    fn task(&self) -> KSetTask {
        KSetTask::new(self.n, self.k, self.m)
    }

    fn num_objects(&self) -> usize {
        self.space()
    }

    fn schema(&self, _obj: ObjectId) -> ObjectSchema {
        ObjectSchema::swap()
    }

    fn initial_value(&self, _obj: ObjectId) -> SwapEntry {
        SwapEntry::bot(self.m as usize)
    }

    fn initial_state(&self, pid: ProcessId, input: u64) -> Alg1State {
        // Lines 2–3: U ← [0,…,0]; U[v] ← 1. Line 5 (conflict ← False) is
        // local bookkeeping folded into the initial state.
        Alg1State {
            pid,
            u: LapVec::initial(self.m as usize, input),
            pos: 0,
            conflict: false,
        }
    }

    fn poised(&self, state: &Alg1State) -> (ObjectId, ObjectOp<SwapEntry>) {
        // Line 7: ⟨U', p'⟩ ← Swap(B_i, ⟨U, p⟩).
        (
            ObjectId(state.pos),
            HistorylessOp::Swap(SwapEntry::of(state.u.clone(), state.pid)).into(),
        )
    }

    fn observe(
        &self,
        mut state: Alg1State,
        response: Response<SwapEntry>,
    ) -> Transition<Alg1State> {
        let got = response.expect_value("swap returns the previous value");
        let mine = got.id == Some(state.pid) && got.laps == state.u;
        if !mine {
            // Line 9: conflict ← True.
            state.conflict = true;
            // Lines 10–12: merge a foreign lap counter.
            if got.laps != state.u {
                state.u.merge_max(&got.laps);
            }
        }
        state.pos += 1;
        if state.pos < self.space() {
            return Transition::Continue(state);
        }
        // End of the inner loop (line 12 → line 13).
        state.pos = 0;
        if state.conflict {
            // Restart the outer loop (conflict resets at line 5).
            state.conflict = false;
            return Transition::Continue(state);
        }
        // Lap completed: lines 14–20.
        let (v, _c) = state.u.leader();
        if state.u.leads_by(v as usize, 2) {
            // Lines 16–18.
            Transition::Decide(v)
        } else {
            // Line 20.
            state.u.increment(v as usize);
            Transition::Continue(state)
        }
    }

    // Every process runs identical code against the same object sequence, so
    // all n are interchangeable. Input values are NOT: line 15 breaks lap
    // ties toward the smallest value, so relabeling values changes which
    // value a tied racer backs — value symmetry would be unsound here.
    fn symmetry(&self) -> Symmetry {
        Symmetry::full_process(self.n)
    }

    fn rename_state(&self, state: &Alg1State, renaming: &Renaming) -> Alg1State {
        Alg1State {
            pid: renaming.pid(state.pid),
            u: state.u.clone(),
            pos: state.pos,
            conflict: state.conflict,
        }
    }

    fn rename_value(&self, _obj: ObjectId, value: &SwapEntry, renaming: &Renaming) -> SwapEntry {
        SwapEntry {
            laps: value.laps.clone(),
            id: value.id.map(|p| renaming.pid(p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swapcons_sim::explore::ModelChecker;
    use swapcons_sim::runner::{self, solo_run_cloned};
    use swapcons_sim::scheduler::{ObstructionThenSolo, RoundRobin, SeededRandom};
    use swapcons_sim::Configuration;

    #[test]
    fn uses_exactly_n_minus_k_swap_objects() {
        for (n, k) in [(2, 1), (5, 1), (5, 2), (8, 3), (9, 8)] {
            let p = SwapKSet::new(n, k, (k + 1) as u64);
            assert_eq!(p.num_objects(), n - k);
            assert!(p.schemas().iter().all(|s| *s == ObjectSchema::swap()));
        }
    }

    #[test]
    #[should_panic(expected = "requires n > k")]
    fn rejects_n_le_k() {
        let _ = SwapKSet::new(3, 3, 4);
    }

    #[test]
    fn solo_run_decides_own_input_validity() {
        // A process running alone from the initial configuration must decide
        // its own input (validity + obstruction-freedom).
        for n in 2..=6 {
            let p = SwapKSet::consensus(n, 2);
            let inputs: Vec<u64> = (0..n).map(|i| (i % 2) as u64).collect();
            let config = Configuration::initial(&p, &inputs).unwrap();
            for (pid, &input) in inputs.iter().enumerate() {
                let (out, _) =
                    solo_run_cloned(&p, &config, ProcessId(pid), p.solo_step_bound()).unwrap();
                assert_eq!(out.decision, input, "solo {pid} of n={n}");
            }
        }
    }

    #[test]
    fn lemma8_solo_bound_from_initial() {
        // Lemma 8: at most 8(n-k) swaps in any solo execution.
        for (n, k) in [(3, 1), (4, 1), (4, 2), (6, 3), (7, 2)] {
            let p = SwapKSet::new(n, k, (k + 1) as u64);
            let inputs: Vec<u64> = (0..n).map(|i| (i as u64) % p.task().m).collect();
            let config = Configuration::initial(&p, &inputs).unwrap();
            for pid in 0..n {
                let (out, _) =
                    solo_run_cloned(&p, &config, ProcessId(pid), p.solo_step_bound()).unwrap();
                assert!(
                    out.steps <= p.solo_step_bound(),
                    "n={n} k={k} pid={pid}: {} > {}",
                    out.steps,
                    p.solo_step_bound()
                );
            }
        }
    }

    #[test]
    fn lemma8_solo_bound_from_perturbed_configurations() {
        // From *any* reachable configuration, a solo run decides within
        // 8(n-k) steps. Reach configurations by random contention first.
        for seed in 0..20 {
            let p = SwapKSet::new(4, 1, 2);
            let inputs = [0, 1, 0, 1];
            let mut config = Configuration::initial(&p, &inputs).unwrap();
            let mut sched = SeededRandom::new(seed);
            runner::run(&p, &mut config, &mut sched, 50).unwrap();
            for pid in config.running() {
                let (out, _) = solo_run_cloned(&p, &config, pid, p.solo_step_bound())
                    .unwrap_or_else(|e| panic!("seed {seed} {pid}: {e}"));
                assert!(out.steps <= p.solo_step_bound());
            }
        }
    }

    #[test]
    fn contention_then_sequential_solo_decides_everyone() {
        // Obstruction-freedom promises termination only once processes run
        // alone. Schedule: random contention, then each process in turn runs
        // solo until it decides (Lemma 8 bounds each solo run by 8(n-k)).
        for n in 2..=6 {
            for seed in 0..5 {
                let p = SwapKSet::consensus(n, 2);
                let inputs: Vec<u64> = (0..n).map(|i| (i % 2) as u64).collect();
                let mut config = Configuration::initial(&p, &inputs).unwrap();
                runner::run(&p, &mut config, &mut SeededRandom::new(seed), 10 * n).unwrap();
                for pid in config.running() {
                    let out = runner::solo_run(&p, &mut config, pid, p.solo_step_bound())
                        .unwrap_or_else(|e| panic!("n={n} seed={seed} {pid}: {e}"));
                    assert!(out.steps <= p.solo_step_bound());
                }
                assert!(config.all_decided());
                assert_eq!(
                    config.decided_values().len(),
                    1,
                    "agreement at n={n} seed={seed}"
                );
                let v = config.decided_values().into_iter().next().unwrap();
                assert!(inputs.contains(&v), "validity at n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn strict_lockstep_livelocks_but_stays_safe() {
        // Round-robin lockstep is the adversarial schedule that keeps an
        // obstruction-free algorithm from terminating: every pass conflicts,
        // no lap ever completes. Safety must nevertheless hold throughout.
        let p = SwapKSet::consensus(2, 2);
        let mut config = Configuration::initial(&p, &[0, 1]).unwrap();
        let out = runner::run(&p, &mut config, &mut RoundRobin::new(), 2_000).unwrap();
        assert!(!out.all_decided, "perfect lockstep at n=2 must livelock");
        assert!(p.task().check(&[0, 1], &config.decisions()).is_ok());
    }

    #[test]
    fn random_schedules_preserve_safety() {
        // Random contention then a solo survivor: everyone who decides
        // agrees within k values, all values valid.
        for seed in 0..30 {
            let p = SwapKSet::new(5, 2, 3);
            let inputs = [0, 1, 2, 1, 0];
            let mut config = Configuration::initial(&p, &inputs).unwrap();
            let mut sched = ObstructionThenSolo::new(200, ProcessId(seed as usize % 5), seed);
            runner::run(&p, &mut config, &mut sched, 5_000).unwrap();
            assert!(
                p.task().check(&inputs, &config.decisions()).is_ok(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn model_check_n2_k1_bounded() {
        // Algorithm 1's reachable space is infinite (two duelling processes
        // grow laps forever), so exploration is depth-bounded: every
        // schedule prefix up to the cutoff is checked, including the solo
        // obstruction-freedom budget at every visited configuration.
        let p = SwapKSet::consensus(2, 2);
        let report = ModelChecker::new(30, 100_000)
            .with_solo_budget(p.solo_step_bound())
            .check_all_inputs(&p);
        assert!(report.passed(), "{report}");
        assert!(
            report.states > 100,
            "exploration should be nontrivial: {report}"
        );
    }

    #[test]
    fn model_check_n3_k2_bounded() {
        // n=3, k=2, m=3: one swap object, three racers.
        let p = SwapKSet::new(3, 2, 3);
        let report = ModelChecker::new(18, 150_000)
            .with_solo_budget(p.solo_step_bound())
            .check(&p, &[0, 1, 2]);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn model_check_n3_k1_bounded() {
        // Unbounded laps make full reachability infinite; bounded-depth
        // exploration still covers every schedule prefix up to the cutoff.
        let p = SwapKSet::consensus(3, 2);
        let report = ModelChecker::new(24, 400_000).check(&p, &[0, 1, 1]);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn two_process_duel_never_disagrees() {
        // Adversarial lockstep duel at n=2: alternate single steps forever;
        // check that no disagreement is ever reached and that whoever
        // decides, decides a valid input.
        let p = SwapKSet::consensus(2, 2);
        let mut config = Configuration::initial(&p, &[0, 1]).unwrap();
        let mut sched = RoundRobin::new();
        let out = runner::run(&p, &mut config, &mut sched, 10_000).unwrap();
        // Lockstep duel may or may not converge (obstruction-freedom makes
        // no promise under contention); safety must hold regardless.
        assert!(p.task().check(&[0, 1], &config.decisions()).is_ok());
        let _ = out;
    }

    #[test]
    fn symmetry_declaration_is_equivariant() {
        // Brute-force the equivariance contract: renaming commutes with
        // every step along random executions (process ids are embedded in
        // both states and swap entries, so this exercises both hooks).
        swapcons_sim::canon::assert_equivariant(&SwapKSet::consensus(3, 2), &[1, 1, 1], 12, 6);
        swapcons_sim::canon::assert_equivariant(&SwapKSet::consensus(3, 2), &[0, 1, 1], 12, 6);
        swapcons_sim::canon::assert_equivariant(&SwapKSet::new(4, 2, 3), &[0, 1, 2, 1], 10, 4);
    }

    #[test]
    fn reduced_model_check_same_verdict_3x_fewer_states() {
        // The acceptance row: at n=3 with unanimous inputs the run group is
        // the full S3, and almost every reachable configuration has a
        // trivial stabilizer — the quotient is close to 6x smaller. Both
        // searches are deterministic, so the counts are stable.
        let p = SwapKSet::consensus(3, 2);
        let full = ModelChecker::new(16, 400_000).check(&p, &[1, 1, 1]);
        let reduced = ModelChecker::new(16, 400_000)
            .with_symmetry_reduction()
            .check(&p, &[1, 1, 1]);
        assert!(full.same_verdict(&reduced), "{full} vs {reduced}");
        assert_eq!(reduced.symmetry_group, 6);
        assert!(
            reduced.states * 3 <= full.states,
            "expected >=3x reduction: {} vs {}",
            full.states,
            reduced.states
        );
        // Mixed inputs: the group drops to the stabilizer of the input
        // assignment (order 2) — verdicts still agree, fewer states still.
        let full = ModelChecker::new(14, 400_000).check(&p, &[0, 1, 1]);
        let reduced = ModelChecker::new(14, 400_000)
            .with_symmetry_reduction()
            .check(&p, &[0, 1, 1]);
        assert!(full.same_verdict(&reduced));
        assert_eq!(reduced.symmetry_group, 2);
        assert!(reduced.states < full.states);
    }

    #[test]
    fn lap_lead_chaser_livelocks_the_race_but_safety_holds() {
        use swapcons_sim::scheduler::LapLeadChasing;
        // The adaptive adversary feeds every process the freshest foreign
        // entry: conflicts on every pass, no lap ever completes cleanly.
        for n in [2usize, 3, 4] {
            let p = SwapKSet::consensus(n, 2);
            let inputs: Vec<u64> = (0..n).map(|i| (i % 2) as u64).collect();
            let mut config = Configuration::initial(&p, &inputs).unwrap();
            let out = runner::run(&p, &mut config, &mut LapLeadChasing::new(), 3_000).unwrap();
            assert!(
                !out.all_decided,
                "the chaser must keep the race alive at n={n}"
            );
            assert!(p.task().check(&inputs, &config.decisions()).is_ok());
            // Obstruction-freedom recovers the moment the adversary stops.
            for pid in config.running() {
                runner::solo_run(&p, &mut config, pid, p.solo_step_bound()).unwrap();
            }
            assert!(config.all_decided());
            assert_eq!(config.decided_values().len(), 1, "agreement at n={n}");
        }
    }

    #[test]
    fn synthesized_adversary_reproduces_the_lap_lead_livelock() {
        use swapcons_sim::engine;
        use swapcons_sim::scheduler::{record_schedule, LapLeadChasing};
        use swapcons_sim::ObjectId;
        // The adversary-synthesis loop, pointed at Algorithm 1: maximize
        // total laps (local counters + shared entries) over configurations
        // where NOBODY has decided — the livelock region the hand-coded
        // lap-lead chaser lives in. The searched extremal schedule is not
        // hand-coded: it falls out of an exhaustive min-depth search.
        let p = SwapKSet::consensus(2, 2);
        let inputs = [0u64, 1];
        let depth = 16;
        let objective = |proto: &SwapKSet, c: &swapcons_sim::Configuration<SwapKSet>| -> u64 {
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
        let report = engine::synthesize(&p, &inputs, depth, 200_000, objective);
        assert!(report.complete, "the depth-16 region fits the budgets");
        // Livelock, searched: laps grew well past the initial configuration
        // (objective 2 there) yet nobody decided.
        assert!(report.config.decided_values().is_empty());
        assert!(report.best_score > 2, "laps must grow: {report:?}");
        assert!(!report.schedule.is_empty());
        // The witness replays from the initial configuration.
        let initial = Configuration::initial(&p, &inputs).unwrap();
        let mut replay = initial.clone();
        runner::replay(&p, &mut replay, &report.schedule).unwrap();
        assert_eq!(replay, report.config, "extremal schedule replays");
        // The searched schedule is at least as adversarial as the
        // hand-coded chaser over the same horizon: the search space
        // includes every schedule the chaser could emit, so its maximum
        // dominates the chaser's endpoint.
        let (chaser_schedule, chaser_world) =
            record_schedule(&p, &initial, &mut LapLeadChasing::new(), depth);
        assert_eq!(chaser_schedule.len(), depth, "the chaser never decides");
        assert!(
            report.best_score >= objective(&p, &chaser_world),
            "searched {} must dominate the hand-coded chaser's {}",
            report.best_score,
            objective(&p, &chaser_world)
        );
        // Obstruction-freedom recovers from the extremal configuration the
        // moment the adversary stops.
        let mut rec = report.config.clone();
        for pid in rec.running() {
            runner::solo_run(&p, &mut rec, pid, p.solo_step_bound()).unwrap();
        }
        assert!(rec.all_decided());
        assert_eq!(rec.decided_values().len(), 1, "agreement after livelock");
    }

    #[test]
    fn observation2_complete_lap_requires_total_configuration() {
        // Drive p0 solo until it is about to complete a lap; every object
        // must then contain ⟨U, p0⟩ — the ⟨V,p⟩-total configuration of
        // Observation 2.
        let p = SwapKSet::consensus(3, 2);
        let mut config = Configuration::initial(&p, &[1, 0, 0]).unwrap();
        // p0 swaps both objects once: first pass has conflict=false and all
        // responses ⊥-ish (foreign), so it merges nothing but sees ids ≠ own.
        for _ in 0..p.space() {
            config.step(&p, ProcessId(0)).unwrap();
        }
        // After one full pass every object holds p0's entry.
        for obj in 0..p.space() {
            let e = config.value(ObjectId(obj));
            assert_eq!(e.id, Some(ProcessId(0)));
        }
    }

    #[test]
    fn conflict_flag_set_by_foreign_swaps() {
        let p = SwapKSet::consensus(3, 2);
        let mut config = Configuration::initial(&p, &[0, 1, 1]).unwrap();
        // p1 swaps B0 first; then p0 swaps B0 and receives p1's entry.
        config.step(&p, ProcessId(1)).unwrap();
        config.step(&p, ProcessId(0)).unwrap();
        let s = config.state(ProcessId(0)).unwrap();
        assert!(s.conflict, "p0 must flag the conflict");
        assert_eq!(s.u.as_slice(), &[1, 1], "p0 merged p1's lap counter");
    }
}
