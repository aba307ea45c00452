//! The traced run: per-layer metrics measured from outside the library, by
//! timing calls into each layer's public functions.
//!
//! Whatever `--workload` names, the traced run measures every layer, so
//! each workload's traced run reports the same metric set:
//!
//! 1. **Layer walks** re-enumerate the checker instance's exhaustive state
//!    space through `Configuration` step/undo and one visited-state store
//!    at a time — `VisitedSet` (the `check_full` space), one
//!    `CanonicalVisitedSet` per canonical input vector (the
//!    `check_reduced` space) and a `StripedDedup` filled from two threads
//!    (the `check_sharded` space). Each walk must reproduce the pinned
//!    state and terminal counts exactly, which makes it an oracle for the
//!    engine's dedup that is independent of the engine's search loop.
//! 2. **Batched calls** time the hot per-edge functions (step/undo,
//!    fingerprint, clone, orbit key, solo run) over a sample of the walked
//!    states, many calls per timer reading.
//! 3. **Traced operations** run each workload's operation once or twice
//!    inside a span (parent: the workload span, one id per operation).
//! 4. **Overhead pairs** alternate untraced and traced operations of the
//!    named workload for `--seconds`, giving `trace.overhead_frac`.
//!
//! Spans and counters stay in memory and are written once, at the end, to
//! `$CARGO_TARGET_DIR/perfbench/trace-<workload>-seed<seed>.jsonl`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use swapcons_baselines::BinaryRacing;
use swapcons_lower::Valency;
use swapcons_sim::canon::{CanonicalVisitedSet, DedupSet};
use swapcons_sim::search::VisitedSet;
use swapcons_sim::shard::{StripedDedup, StripedInsert};
use swapcons_sim::{runner, Canonicalizer, Configuration, ProcessId, Protocol};

use crate::report::{proc_status_bytes, provenance, Json};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::workloads::{
    canonical_input_vectors, checker_protocol, gate, oracle, oracle_protocol, pinned, run_check,
    Pinned, Workload, CHECK_INPUTS, FULL, QUERY_GROUP, REDUCED,
};
use crate::{metric, peak_rss_bytes, summary_json, Args, Metric, Outcome, QuerySet, Tally};

/// Minimum wall time of one batched measurement.
const BATCH: Duration = Duration::from_millis(50);

/// Stripes of the sharded checker's store at two threads.
const STRIPES: usize = 16;

/// Mean cost of an `Instant::now()`/`elapsed()` pair around nothing, in
/// nanoseconds: what a per-call timing adds to the call it times.
fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..31)
        .map(|_| {
            let mut total = 0u128;
            for _ in 0..10_000 {
                let t = Instant::now();
                black_box(());
                total += t.elapsed().as_nanos();
            }
            total as f64 / 10_000.0
        })
        .collect();
    median(&samples)
}

/// Per-call timings of one function, summed.
#[derive(Clone, Copy, Debug, Default)]
struct CallTimer {
    calls: u64,
    total_ns: u128,
}

impl CallTimer {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.total_ns += t.elapsed().as_nanos();
        self.calls += 1;
        out
    }

    fn merge(&mut self, other: CallTimer) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
    }

    /// Mean nanoseconds per call with the timer's own cost subtracted.
    fn mean_ns(&self, overhead_ns: f64) -> f64 {
        (self.total_ns as f64 / self.calls.max(1) as f64 - overhead_ns).max(0.0)
    }

    /// Busy time with the timer's own cost subtracted.
    fn busy_ns(&self, overhead_ns: f64) -> f64 {
        self.mean_ns(overhead_ns) * self.calls as f64
    }
}

/// Run `round` (which makes `calls_per_round` calls) until [`BATCH`] has
/// passed; mean nanoseconds per call. Many calls per timer reading, so a
/// 50 ns call is not mostly the clock.
fn batch_ns(calls_per_round: usize, mut round: impl FnMut()) -> (f64, u64) {
    let t = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || t.elapsed() < BATCH {
        round();
        rounds += 1;
    }
    let calls = rounds * calls_per_round.max(1) as u64;
    (t.elapsed().as_nanos() as f64 / calls as f64, calls)
}

/// What one exhaustive walk saw.
struct Walk<P: Protocol> {
    /// Distinct states stored, counting the starting ones.
    states: usize,
    /// States in which no process can step.
    terminal: usize,
    /// Successors generated (one store insert each).
    edges: u64,
    step_errors: u64,
    inserts: CallTimer,
    /// Every 64th new state, for the batched measurements.
    sample: Vec<Configuration<P>>,
}

/// Depth-first walk from `stack` (states already stored) over every
/// successor, the way the engine generates children: step the scratch copy
/// in place, offer it to the store, keep a clone if new, roll the step
/// back.
fn walk<P: Protocol>(
    protocol: &P,
    mut stack: Vec<Configuration<P>>,
    mut insert: impl FnMut(&Configuration<P>) -> bool,
) -> Walk<P> {
    let mut w = Walk {
        states: stack.len(),
        terminal: 0,
        edges: 0,
        step_errors: 0,
        inserts: CallTimer::default(),
        sample: Vec::new(),
    };
    let mut running = Vec::new();
    while let Some(mut scratch) = stack.pop() {
        scratch.running_into(&mut running);
        if running.is_empty() {
            w.terminal += 1;
            continue;
        }
        for &pid in &running {
            let Ok((_, undo)) = scratch.step_quiet_undoable(protocol, pid) else {
                w.step_errors += 1;
                continue;
            };
            w.edges += 1;
            if w.inserts.time(|| insert(&scratch)) {
                w.states += 1;
                if w.states % 64 == 0 {
                    w.sample.push(scratch.clone());
                }
                stack.push(scratch.clone());
            }
            scratch.undo_step(undo);
        }
    }
    w
}

/// A walk's counts against the pinned ones.
fn cross_check(
    what: &str,
    states: usize,
    terminal: usize,
    errors: u64,
    pin: &Pinned,
) -> Result<(), String> {
    if states == pin.states && terminal == pin.terminal_states && errors == 0 {
        Ok(())
    } else {
        Err(format!(
            "layer walk {what}: {states} states, {terminal} terminal, {errors} step errors; \
             pinned {} states, {} terminal",
            pin.states, pin.terminal_states
        ))
    }
}

fn initial(protocol: &BinaryRacing, inputs: &[u64]) -> Configuration<BinaryRacing> {
    Configuration::initial(protocol, inputs).expect("pinned inputs are valid")
}

/// `VisitedSet` walk of the `check_full` space, then the batched
/// `Configuration` calls over its sample.
fn search_and_config_layers(
    protocol: &BinaryRacing,
    timer_ns: f64,
    tracer: &mut Tracer,
    parent: u64,
    tally: &mut Tally,
) -> Vec<Metric> {
    let span = tracer.open("layer_walk:visited_set", Some(parent));
    let rss_before = proc_status_bytes("VmRSS").unwrap_or(0);
    let mut visited: VisitedSet<BinaryRacing> = VisitedSet::with_capacity(1 << 14);
    let root = initial(protocol, &CHECK_INPUTS);
    let mut root_insert = CallTimer::default();
    assert!(root_insert.time(|| visited.insert(&root)));
    let mut w = walk(protocol, vec![root], |c| visited.insert(c));
    w.inserts.merge(root_insert);
    let rss_after = proc_status_bytes("VmRSS").unwrap_or(0);
    let fallbacks = visited.fallback_comparisons();
    let stored = visited.len();
    drop(visited);
    tracer.close(span);
    tally.record(cross_check(
        "VisitedSet",
        stored,
        w.terminal,
        w.step_errors,
        &FULL,
    ));
    tracer.count(
        "VisitedSet::insert",
        w.inserts.calls,
        w.inserts.busy_ns(timer_ns),
    );

    let span = tracer.open("batch:configuration", Some(parent));
    // Uniquely owned scratch copies (one step/undo detaches the shared
    // storage), so the timed pairs mutate in place as the engine's do.
    let mut scratch: Vec<(Configuration<BinaryRacing>, Vec<ProcessId>)> = w
        .sample
        .iter()
        .map(|c| {
            let mut s = c.clone();
            let running = s.running();
            if let Some(&p) = running.first() {
                let (_, undo) = s.step_quiet_undoable(protocol, p).expect("walked step");
                s.undo_step(undo);
            }
            (s, running)
        })
        .collect();
    let pairs: usize = scratch.iter().map(|(_, r)| r.len()).sum();
    let (step_undo_ns, step_calls) = batch_ns(pairs, || {
        for (s, running) in scratch.iter_mut() {
            for &p in running.iter() {
                let (decided, undo) = s.step_quiet_undoable(protocol, p).expect("walked step");
                black_box(decided);
                s.undo_step(undo);
            }
        }
    });
    let (fingerprint_ns, fp_calls) = batch_ns(w.sample.len(), || {
        for c in &w.sample {
            black_box(c.fingerprint());
        }
    });
    let (clone_ns, clone_calls) = batch_ns(w.sample.len(), || {
        for c in &w.sample {
            black_box(c.clone());
        }
    });
    tracer.close(span);
    tracer.count(
        "Configuration::step_quiet_undoable+undo_step",
        step_calls,
        step_undo_ns * step_calls as f64,
    );
    tracer.count(
        "Configuration::fingerprint",
        fp_calls,
        fingerprint_ns * fp_calls as f64,
    );
    tracer.count(
        "Configuration::clone",
        clone_calls,
        clone_ns * clone_calls as f64,
    );

    let attempts = w.inserts.calls as f64;
    vec![
        metric("config.step_undo_ns", "ns", step_undo_ns),
        metric("config.fingerprint_ns", "ns", fingerprint_ns),
        metric("config.clone_ns", "ns", clone_ns),
        metric("config.edges", "count", w.edges as f64),
        metric("search.insert_ns", "ns", w.inserts.mean_ns(timer_ns)),
        metric("search.new_ratio", "ratio", stored as f64 / attempts),
        metric(
            "search.fallback_per_insert",
            "ratio",
            fallbacks as f64 / attempts,
        ),
        metric(
            "search.rss_per_state",
            "B",
            rss_after.saturating_sub(rss_before) as f64 / stored as f64,
        ),
    ]
}

/// One `CanonicalVisitedSet` walk per canonical input vector: the
/// `check_reduced` space.
fn canon_layer(
    protocol: &BinaryRacing,
    timer_ns: f64,
    tracer: &mut Tracer,
    parent: u64,
    tally: &mut Tally,
) -> Vec<Metric> {
    let span = tracer.open("layer_walk:canonical_visited_set", Some(parent));
    let (mut states, mut terminal, mut errors, mut fallbacks) = (0, 0, 0, 0);
    let mut group_order = 1;
    let mut setup_s = Vec::new();
    let mut inserts = CallTimer::default();
    let (mut key_ns_total, mut key_calls) = (0.0, 0u64);
    for inputs in canonical_input_vectors(protocol) {
        for _ in 0..20 {
            let t = Instant::now();
            black_box(Canonicalizer::for_inputs(protocol, &inputs));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let canon = Canonicalizer::for_inputs(protocol, &inputs);
        group_order = group_order.max(canon.group_order());
        let mut set = CanonicalVisitedSet::new(canon).with_capacity(1 << 14);
        let root = initial(protocol, &inputs);
        assert!(inserts.time(|| set.insert(protocol, &root)));
        let w = walk(protocol, vec![root], |c| set.insert(protocol, c));
        inserts.merge(w.inserts);
        states += set.len();
        terminal += w.terminal;
        errors += w.step_errors;
        fallbacks += set.fallback_comparisons();
        let (ns, calls) = batch_ns(w.sample.len(), || {
            for c in &w.sample {
                black_box(set.orbit_key_pruned(protocol, c));
            }
        });
        key_ns_total += ns * calls as f64;
        key_calls += calls;
    }
    tracer.close(span);
    tally.record(cross_check(
        "CanonicalVisitedSet",
        states,
        terminal,
        errors,
        &REDUCED,
    ));
    tracer.count(
        "CanonicalVisitedSet::insert",
        inserts.calls,
        inserts.busy_ns(timer_ns),
    );
    tracer.count(
        "CanonicalVisitedSet::orbit_key_pruned",
        key_calls,
        key_ns_total,
    );
    tracer.count(
        "Canonicalizer::for_inputs",
        setup_s.len() as u64,
        setup_s.iter().sum::<f64>() * 1e9,
    );
    vec![
        metric("canon.setup_us", "us", median(&setup_s) * 1e6),
        metric(
            "canon.orbit_key_ns",
            "ns",
            key_ns_total / key_calls.max(1) as f64,
        ),
        metric("canon.insert_ns", "ns", inserts.mean_ns(timer_ns)),
        metric(
            "canon.fallback_per_insert",
            "ratio",
            fallbacks as f64 / inserts.calls.max(1) as f64,
        ),
        metric("canon.group_order", "count", group_order as f64),
    ]
}

/// `StripedDedup` filled from two threads: the `check_sharded` space.
/// A short breadth-first prefix seeds both threads' stacks; after that
/// each thread expands exactly the states its own inserts found new, so
/// together they walk the whole space once.
fn shard_layer(
    protocol: &BinaryRacing,
    timer_ns: f64,
    tracer: &mut Tracer,
    parent: u64,
    tally: &mut Tally,
) -> Metric {
    let span = tracer.open("layer_walk:striped_dedup", Some(parent));
    let striped = StripedDedup::new(DedupSet::exact(1 << 14), STRIPES, usize::MAX);
    let root = initial(protocol, &CHECK_INPUTS);
    striped.insert_root(protocol, &root);
    let mut frontier = VecDeque::from([root]);
    let (mut terminal, mut errors) = (0, 0);
    let mut running = Vec::new();
    while !frontier.is_empty() && frontier.len() < 64 {
        let config = frontier.pop_front().expect("non-empty");
        config.running_into(&mut running);
        if running.is_empty() {
            terminal += 1;
        }
        for &pid in &running {
            let mut child = config.clone();
            if child.step_quiet(protocol, pid).is_err() {
                errors += 1;
                continue;
            }
            if striped.insert(protocol, &child) == StripedInsert::New {
                frontier.push_back(child);
            }
        }
    }
    let mut stacks = [Vec::new(), Vec::new()];
    for (i, c) in frontier.into_iter().enumerate() {
        stacks[i % 2].push(c);
    }
    let walks: Vec<Walk<BinaryRacing>> = std::thread::scope(|s| {
        let handles: Vec<_> = stacks
            .into_iter()
            .map(|stack| {
                let striped = &striped;
                s.spawn(move || {
                    walk(protocol, stack, |c| {
                        striped.insert(protocol, c) == StripedInsert::New
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("layer walk thread panicked"))
            .collect()
    });
    let mut inserts = CallTimer::default();
    for w in &walks {
        inserts.merge(w.inserts);
        terminal += w.terminal;
        errors += w.step_errors;
    }
    tracer.close(span);
    tally.record(cross_check(
        "StripedDedup",
        striped.len(),
        terminal,
        errors,
        &FULL,
    ));
    tracer.count(
        "StripedDedup::insert",
        inserts.calls,
        inserts.busy_ns(timer_ns),
    );
    metric("shard.stripe_insert_ns", "ns", inserts.mean_ns(timer_ns))
}

/// The oracle's solo fast path replayed over the query set: a
/// `solo_run_cloned` for each undecided group member.
fn runner_layer(set: &QuerySet, tracer: &mut Tracer, parent: u64) -> Vec<Metric> {
    let span = tracer.open("batch:solo_run_cloned", Some(parent));
    let protocol = oracle_protocol();
    let budget = oracle().max_depth;
    let calls: Vec<(&Configuration<BinaryRacing>, ProcessId)> = set
        .configs
        .iter()
        .flat_map(|c| QUERY_GROUP.iter().map(move |&p| (c, p)))
        .filter(|(c, p)| c.decision(*p).is_none())
        .collect();
    let (steps, decided) =
        calls.iter().fold(
            (0usize, 0usize),
            |(s, d), (c, p)| match runner::solo_run_cloned(&protocol, c, *p, budget) {
                Ok((out, _)) => (s + out.steps, d + 1),
                Err(_) => (s, d),
            },
        );
    let (solo_ns, n) = batch_ns(calls.len(), || {
        for (c, p) in &calls {
            let _ = black_box(runner::solo_run_cloned(&protocol, c, *p, budget));
        }
    });
    tracer.close(span);
    tracer.count("runner::solo_run_cloned", n, solo_ns * n as f64);
    vec![
        metric("runner.solo_run_ns", "ns", solo_ns),
        metric(
            "runner.solo_steps",
            "count",
            steps as f64 / decided.max(1) as f64,
        ),
    ]
}

/// One traced check; its span's duration in seconds.
fn traced_check(
    w: Workload,
    protocol: &BinaryRacing,
    tracer: &mut Tracer,
    parent: u64,
    tally: &mut Tally,
) -> (f64, swapcons_sim::explore::CheckReport) {
    let id = tracer.open(format!("check:{}", w.name()), Some(parent));
    let report = run_check(w, protocol);
    let secs = tracer.close(id).secs();
    tally.record(gate(
        &report,
        &pinned(w).expect("checker workloads are pinned"),
    ));
    (secs, report)
}

/// One traced pass over the query set; per-query span seconds.
fn traced_queries(
    set: &QuerySet,
    tracer: &mut Tracer,
    parent: u64,
    tally: &mut Tally,
) -> (Vec<f64>, Vec<Metric>) {
    let protocol = oracle_protocol();
    let oracle = oracle();
    let (mut secs, mut states, mut bivalent, mut exhaustive) = (Vec::new(), 0usize, 0usize, 0usize);
    for (i, config) in set.configs.iter().enumerate() {
        let id = tracer.open("query", Some(parent));
        let result = oracle.query(&protocol, config, &QUERY_GROUP);
        secs.push(tracer.close(id).secs());
        let verdict = result.verdict();
        states += result.states;
        bivalent += usize::from(verdict == Valency::Bivalent);
        exhaustive += usize::from(result.exhaustive);
        tally.record(set.check(i, &verdict));
    }
    let n = set.configs.len() as f64;
    let metrics = vec![
        metric("valency.query_us", "us", median(&secs) * 1e6),
        metric("valency.states_per_query", "count", states as f64 / n),
        metric("valency.bivalent_ratio", "ratio", bivalent as f64 / n),
        metric("valency.exhaustive_ratio", "ratio", exhaustive as f64 / n),
    ];
    (secs, metrics)
}

/// Alternate untraced and traced operations of the named workload for
/// `args.seconds` (at least two pairs); the traced median's excess over
/// the untraced one.
fn overhead(
    args: &Args,
    set: &QuerySet,
    tracer: &mut Tracer,
    parent: u64,
    tally: &mut Tally,
) -> (f64, Json) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        if args.workload == Workload::OracleQueries {
            let protocol = oracle_protocol();
            let oracle = oracle();
            let mut pass = Vec::with_capacity(set.configs.len());
            for (i, config) in set.configs.iter().enumerate() {
                let t = Instant::now();
                let verdict = black_box(oracle.query(&protocol, config, &QUERY_GROUP)).verdict();
                pass.push(t.elapsed().as_secs_f64());
                tally.record(set.check(i, &verdict));
            }
            plain.push(median(&pass));
            let (secs, _) = traced_queries(set, tracer, parent, tally);
            traced.push(median(&secs));
        } else {
            let protocol = checker_protocol();
            let pin = pinned(args.workload).expect("checker workloads are pinned");
            let t = Instant::now();
            let report = black_box(run_check(args.workload, &protocol));
            plain.push(t.elapsed().as_secs_f64());
            tally.record(gate(&report, &pin));
            traced.push(traced_check(args.workload, &protocol, tracer, parent, tally).0);
        }
    }
    let (p, t) = (Summary::of(&plain), Summary::of(&traced));
    let detail = Json::obj([
        ("untraced_s", summary_json(&p, "s")),
        ("traced_s", summary_json(&t, "s")),
    ]);
    (t.median / p.median - 1.0, detail)
}

/// Where the trace file goes: under the build directory (relative paths
/// resolve against the working directory, the repository root).
fn trace_path(args: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench").join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ))
}

/// The traced run; see the module documentation.
pub fn traced_run(args: &Args) -> Outcome {
    let mut tracer = Tracer::default();
    let mut tally = Tally::default();
    let root = tracer.open(format!("workload:{}", args.workload.name()), None);
    let timer_ns = timer_overhead_ns();
    let checker = checker_protocol();

    // Walk first: `search.rss_per_state` reads the resident-set growth,
    // which is cleanest before anything else has grown the heap.
    let mut metrics = search_and_config_layers(&checker, timer_ns, &mut tracer, root, &mut tally);
    metrics.extend(canon_layer(
        &checker,
        timer_ns,
        &mut tracer,
        root,
        &mut tally,
    ));
    metrics.push(shard_layer(
        &checker,
        timer_ns,
        &mut tracer,
        root,
        &mut tally,
    ));

    let span = tracer.open("setup:query_set", Some(root));
    let set = QuerySet::new(args.seed);
    tracer.close(span);
    metrics.extend(runner_layer(&set, &mut tracer, root));

    // Sequential and sharded checks alternate, twice each, for the
    // speed-up; the reduced check runs once.
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    let mut full_report = None;
    for _ in 0..2 {
        let (secs, report) =
            traced_check(Workload::CheckFull, &checker, &mut tracer, root, &mut tally);
        t1.push(secs);
        full_report = Some(report);
        t2.push(
            traced_check(
                Workload::CheckSharded,
                &checker,
                &mut tracer,
                root,
                &mut tally,
            )
            .0,
        );
    }
    traced_check(
        Workload::CheckReduced,
        &checker,
        &mut tracer,
        root,
        &mut tally,
    );
    let full = full_report.expect("two checks ran");
    metrics.push(metric(
        "shard.speedup_vs_t1",
        "x",
        median(&t1) / median(&t2),
    ));
    metrics.extend([
        metric("explore.check_s", "s", median(&t1)),
        metric("explore.peak_frontier", "count", full.peak_frontier as f64),
        metric("explore.states", "count", full.states as f64),
    ]);
    let (_, valency) = traced_queries(&set, &mut tracer, root, &mut tally);
    metrics.extend(valency);

    let (overhead_frac, overhead_detail) = overhead(args, &set, &mut tracer, root, &mut tally);
    metrics.push(metric("trace.overhead_frac", "ratio", overhead_frac));
    tracer.close(root);

    let path = trace_path(args);
    let header = Json::obj([
        ("record", Json::str("perfbench-trace")),
        (
            "provenance",
            provenance(args.workload.name(), args.seed, tally.attempted, true),
        ),
        ("timer_overhead_ns", Json::Num(timer_ns)),
    ]);
    let written = match tracer.write(&path, &header) {
        Ok(()) => Json::str(path.display().to_string()),
        Err(e) => Json::str(format!("not written: {e}")),
    };
    Outcome {
        metrics,
        details: vec![
            ("trace_file".into(), written),
            ("timer_overhead_ns".into(), Json::Num(timer_ns)),
            ("overhead".into(), overhead_detail),
            ("peak_rss_mb".into(), Json::Num(peak_rss_bytes() / 1e6)),
            ("failed_frac".into(), Json::Num(tally.failed_frac())),
        ],
        tally,
    }
}
