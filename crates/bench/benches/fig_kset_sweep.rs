//! E7 — the k-set agreement **space/cost sweep**: at fixed `n`, sweep `k`
//! and report the object counts of the swap-based algorithms (Algorithm 1:
//! `n-k`; pairs where applicable: `n-k`) against the register reduction
//! (`2(n-k+1)` measured, `n-k+1` literature) and the lower bounds
//! `⌈n/k⌉-1` (swap) and `⌈n/k⌉` (registers). The "who wins" shape of
//! Table 1: swap saves one object over registers at every `k`, and the
//! lower-bound/upper-bound gap `n-k` vs `⌈n/k⌉-1` opens as `k` grows.
//!
//! Run: `cargo bench -p swapcons-bench --bench fig_kset_sweep`

use swapcons_baselines::RegisterKSet;
use swapcons_bench::harness::{cyclic_inputs, decide_all, time_row, try_decide_all};
use swapcons_core::pairs::PairsKSet;
use swapcons_core::SwapKSet;
use swapcons_lower::Table1Row;
use swapcons_sim::Protocol;

fn print_sweep() {
    let n = 12usize;
    println!("\n====== k-sweep at n = {n}: space (objects) ======");
    println!(
        "{:>3} {:>12} {:>12} {:>14} {:>12} {:>12}",
        "k", "swap LB", "Alg1 space", "register LB", "regs space", "pairs space"
    );
    for k in 1..n {
        let m = (k + 1) as u64;
        let swap_lb = Table1Row::KSetSwap.lower_bound().at(n, k, 2);
        let alg1 = SwapKSet::new(n, k, m).num_objects();
        let reg_lb = Table1Row::KSetRegisters.lower_bound().at(n, k, 2);
        let regs = RegisterKSet::new(n, k, m).num_objects();
        let pairs = (2 * k >= n).then(|| PairsKSet::new(n, k, m).num_objects());
        println!(
            "{k:>3} {swap_lb:>12.1} {alg1:>12} {reg_lb:>14.1} {regs:>12} {:>12}",
            pairs.map_or("-".into(), |x| x.to_string())
        );
        assert!(alg1 as f64 >= swap_lb, "Algorithm 1 cannot beat Theorem 10");
    }

    println!("\n====== k-sweep at n = {n}: steps to decide everyone ======");
    for k in [1usize, 2, 3, 4, 6, 8, 11] {
        let m = (k + 1) as u64;
        let p = SwapKSet::new(n, k, m);
        let mut total = 0usize;
        let mut completed = 0usize;
        const SEEDS: usize = 5;
        for seed in 0..SEEDS as u64 {
            // One failing seed costs a warning line, not the whole sweep.
            match try_decide_all(&p, &cyclic_inputs(n, m), 5 * n, seed, p.solo_step_bound()) {
                Ok((steps, decisions)) => {
                    assert!(p.task().check(&cyclic_inputs(n, m), &decisions).is_ok());
                    total += steps;
                    completed += 1;
                }
                Err(e) => eprintln!("k={k} seed={seed}: row failed, skipping: {e}"),
            }
        }
        assert!(completed > 0, "k={k}: every seed failed");
        println!(
            "k={k:>2}: avg steps {:>6} (space {})",
            total / completed,
            p.space()
        );
    }
    println!();
}

fn main() {
    print_sweep();
    let n = 12usize;
    for k in [1usize, 2, 4, 8] {
        let m = (k + 1) as u64;
        let inputs = cyclic_inputs(n, m);
        let p = SwapKSet::new(n, k, m);
        time_row(&format!("fig_kset/decide_all_n12/algorithm1/{k}"), || {
            decide_all(&p, &inputs, 5 * n, 3, p.solo_step_bound()).0
        });
        let r = RegisterKSet::new(n, k, m);
        time_row(&format!("fig_kset/decide_all_n12/registers/{k}"), || {
            decide_all(&r, &inputs, 5 * n, 3, r.solo_step_bound()).0
        });
    }
}
