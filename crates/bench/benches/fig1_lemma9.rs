//! E2 — **Figure 1**: the Lemma 9 construction, executed. For each `n`, the
//! adversary runs against Algorithm 1 (k = 1) and must force `|Q| = n-1`
//! distinct swap objects — all of the algorithm's objects, showing
//! Theorem 10 is exactly tight at k = 1. Also runs the pairs construction
//! for `k > 1`.
//!
//! Run: `cargo bench -p swapcons-bench --bench fig1_lemma9`

use swapcons_bench::harness::{render_series, time_row};
use swapcons_core::pairs::PairsKSet;
use swapcons_core::SwapKSet;
use swapcons_lower::lemma9;
use swapcons_sim::{Configuration, ProcessId};

fn print_series() {
    let mut points = Vec::new();
    println!("\n====== Figure 1: Lemma 9 adversary vs Algorithm 1 (k=1) ======");
    for n in [3usize, 4, 6, 8, 12, 16, 24, 32] {
        let p = SwapKSet::consensus(n, 2);
        let report = lemma9::theorem10_consensus_witness(&p, p.solo_step_bound())
            .expect("construction succeeds against a correct algorithm");
        assert_eq!(report.forced_objects.len(), n - 1, "tightness at n={n}");
        points.push((n as f64, report.forced_objects.len() as f64));
        println!(
            "n={n:>3}: forced {} / {} objects in {} steps",
            report.forced_objects.len(),
            p.space(),
            report.total_steps
        );
    }
    println!(
        "\n{}",
        render_series(
            "forced objects vs n (lower bound n-1, tight)",
            "n",
            "forced",
            &points
        )
    );

    println!("====== Lemma 9 vs the pairs construction (k > 1) ======");
    for k in [2usize, 3, 4] {
        let n = 2 * k;
        let p = PairsKSet::new(n, k, (k + 1) as u64);
        let mut inputs = vec![0u64; n];
        for pair in 0..k {
            inputs[2 * pair] = pair as u64;
            inputs[2 * pair + 1] = k as u64;
        }
        let mut c_alpha = Configuration::initial(&p, &inputs).unwrap();
        for pair in 0..k {
            swapcons_sim::runner::solo_run(&p, &mut c_alpha, ProcessId(2 * pair), 2).unwrap();
        }
        let q: Vec<ProcessId> = (0..k).map(|pair| ProcessId(2 * pair + 1)).collect();
        let report = lemma9::run(&p, &c_alpha, &q, k as u64, 4).unwrap();
        println!(
            "n={n} k={k}: forced {} / {} objects (theorem bound ⌈n/k⌉-1 = {})",
            report.forced_objects.len(),
            p.space(),
            n.div_ceil(k) - 1
        );
    }
    println!();
}

fn main() {
    print_series();
    for n in [4usize, 8, 16, 32] {
        let p = SwapKSet::consensus(n, 2);
        time_row(&format!("fig1/lemma9_adversary/{n}"), || {
            lemma9::theorem10_consensus_witness(&p, p.solo_step_bound())
                .unwrap()
                .total_steps
        });
    }
}
