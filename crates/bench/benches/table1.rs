//! E1 — regenerate **Table 1** of the paper: all eight rows, lower/upper
//! bound formulas evaluated against the measured object counts of this
//! repository's implementations, plus wall-clock cost of deciding under each
//! witness algorithm.
//!
//! Run: `cargo bench -p swapcons-bench --bench table1`

use swapcons_baselines::{CommitAdoptConsensus, ReadableRacing};
use swapcons_bench::harness::{cyclic_inputs, decide_all, time_row};
use swapcons_core::SwapKSet;
use swapcons_lower::table1;

fn print_table1() {
    let ns = [4usize, 8, 16, 64, 256];
    let ks = [2usize, 4];
    let entries = table1::generate(&ns, &ks, 2);
    println!("\n================ Table 1 (regenerated) ================");
    println!("{}", table1::render(&entries));
    let violations = table1::violations(&entries);
    assert!(
        violations.is_empty(),
        "an implementation undercut a paper lower bound: {violations:?}"
    );
    println!("cross-check: no implementation beats any paper lower bound ✓\n");
}

fn main() {
    print_table1();
    for n in [4usize, 8, 16] {
        let inputs = cyclic_inputs(n, 2);
        let swap = SwapKSet::consensus(n, 2);
        time_row(&format!("table1/decide_all/consensus_swap/{n}"), || {
            decide_all(&swap, &inputs, 4 * n, 11, swap.solo_step_bound()).0
        });
        let regs = CommitAdoptConsensus::new(n, 2);
        time_row(
            &format!("table1/decide_all/consensus_registers/{n}"),
            || decide_all(&regs, &inputs, 4 * n, 11, regs.solo_step_bound()).0,
        );
        let readable = ReadableRacing::new(n, 2);
        time_row(
            &format!("table1/decide_all/consensus_readable_swap/{n}"),
            || decide_all(&readable, &inputs, 4 * n, 11, readable.solo_step_bound()).0,
        );
    }
}
