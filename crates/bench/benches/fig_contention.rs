//! E8 — **real-thread contention**: wall-clock time for all `n` threads to
//! decide under threaded Algorithm 1 (lock-free `AtomicSwap` objects,
//! obstruction-free + backoff) and the wait-free pairs construction. Not a
//! paper figure — the paper has no testbed — but it validates that the
//! shared-memory footprint (`n-k` swap objects) is practical and that the
//! obstruction-free race converges under genuine OS scheduling.
//!
//! Run: `cargo bench -p swapcons-bench --bench fig_contention`

use swapcons_bench::harness::{cyclic_inputs, time_row};
use swapcons_core::threaded::{ThreadedKSet, ThreadedPairs};

fn check_kset(inputs: &[u64], decisions: &[u64], k: usize) {
    let distinct: std::collections::HashSet<u64> = decisions.iter().copied().collect();
    assert!(distinct.len() <= k);
    for d in decisions {
        assert!(inputs.contains(d));
    }
}

fn main() {
    println!("\n====== threaded Algorithm 1: time for all n threads to decide ======");
    for n in [2usize, 4, 8] {
        let inputs = cyclic_inputs(n, 2);
        time_row(
            &format!("fig_contention/threaded/algorithm1_consensus/{n}"),
            || {
                let decisions = ThreadedKSet::new(n, 1, 2).run(&inputs);
                check_kset(&inputs, &decisions, 1);
                decisions.len()
            },
        );
    }
    for n in [4usize, 8] {
        let k = n / 2;
        let inputs = cyclic_inputs(n, (k + 1) as u64);
        time_row(
            &format!("fig_contention/threaded/algorithm1_kset_k=n/2/{n}"),
            || {
                let decisions = ThreadedKSet::new(n, k, (k + 1) as u64).run(&inputs);
                check_kset(&inputs, &decisions, k);
                decisions.len()
            },
        );
        time_row(
            &format!("fig_contention/threaded/pairs_wait_free/{n}"),
            || {
                let decisions = ThreadedPairs::new(n, k).run(&inputs);
                check_kset(&inputs, &decisions, k);
                decisions.len()
            },
        );
    }
}
