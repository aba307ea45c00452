//! E9 — the **bounded-domain lower-bound curve**: Theorem 22's
//! `(n-2)/(3b+1)` plotted over `b` and `n`, against Theorem 18's `n-2`
//! (the better bound at `b = 2`), the Ω(√n) bound it supersedes for small
//! `b`, and the measured space of our binary-object algorithm. The shape to
//! verify: for constant `b` the bound is Θ(n) — asymptotically matching the
//! `Θ(n)` algorithms — and it crosses above √n exactly when `b ∈ o(√n)`.
//!
//! Run: `cargo bench -p swapcons-bench --bench fig_domain_bound`

use swapcons_baselines::BinaryRacing;
use swapcons_bench::harness::{cyclic_inputs, decide_all, render_series, time_row};
use swapcons_lower::Table1Row;
use swapcons_sim::Protocol;

fn print_curves() {
    println!("\n====== Theorem 22 bound (n-2)/(3b+1) over b, n = 1024 ======");
    let n = 1024usize;
    let mut pts = Vec::new();
    for b in [2u64, 3, 4, 8, 16, 32] {
        let bound = Table1Row::ConsensusReadableSwapDomainB
            .lower_bound()
            .at(n, 1, b);
        let sqrt = (n as f64).sqrt();
        println!(
            "b={b:>3}: (n-2)/(3b+1) = {bound:>8.2}   vs Ω(√n) ≈ {sqrt:>6.1}   {}",
            if bound > sqrt {
                "(new bound wins)"
            } else {
                "(√n wins)"
            }
        );
        pts.push((b as f64, bound));
    }
    println!(
        "\n{}",
        render_series("lower bound vs domain size b (n=1024)", "b", "bound", &pts)
    );

    println!("====== scaling in n at b = 2: Theorem 18 vs measured algorithm space ======");
    let mut pts = Vec::new();
    for n in [8usize, 16, 32, 64, 128, 256] {
        let lb18 = Table1Row::ConsensusReadableBinarySwap
            .lower_bound()
            .at(n, 1, 2);
        let ub_bowman = Table1Row::ConsensusReadableBinarySwap
            .upper_bound()
            .at(n, 1, 2);
        let measured = BinaryRacing::new(n).num_objects();
        assert!(measured as f64 >= lb18, "no algorithm may beat Theorem 18");
        println!(
            "n={n:>4}: lower n-2 = {lb18:>6}  Bowman 2n-1 = {ub_bowman:>6}  our measured = {measured:>6}"
        );
        pts.push((n as f64, measured as f64));
    }
    println!(
        "\n{}",
        render_series("measured binary-object space vs n", "n", "objects", &pts)
    );
}

fn main() {
    print_curves();
    for n in [2usize, 3, 4] {
        let p = BinaryRacing::new(n);
        let inputs = cyclic_inputs(n, 2);
        time_row(&format!("fig_domain/binary_racing_decide/{n}"), || {
            let (steps, decisions) = decide_all(&p, &inputs, 3 * n, 5, p.solo_step_bound());
            assert!(p.task().check(&inputs, &decisions).is_ok());
            steps
        });
    }
}
