//! The search core shared by every exhaustive exploration in the workspace.
//!
//! [`ModelChecker`](crate::explore::ModelChecker), the lower-bound valency
//! oracle and [`AdversarySynthesis`] all search through this module, so
//! every hot-path lever (copy-on-write scratch children, delta-restore, the
//! schedule arena, symmetry-reduced dedup, budget accounting) and every
//! cutoff discipline exists once. [`Engine::run_min_depth`]
//! walks the configuration graph of a protocol breadth-first,
//! deduplicating at **discovery time** through a [`DedupSet`] (exact or
//! symmetry-reduced), recording one [`ScheduleArena`] node per kept edge,
//! generating candidate children on a recycled scratch configuration with
//! [`step_quiet_undoable`](crate::Configuration::step_quiet_undoable) /
//! [`undo_step`](crate::Configuration::undo_step) delta-restore, and
//! enforcing exact depth and state budgets with a uniform
//! completeness verdict ([`SearchStats::complete`]).
//!
//! The engine is parameterized by two strategies:
//!
//! * an **expansion policy** ([`Expansion`]) — which processes may step
//!   from a node: [`AllRunning`] for the model checker and the synthesizer,
//!   [`GroupRestricted`] for the valency oracle, optionally wrapped in
//!   [`CrashBounded`];
//! * a **visitor** ([`Visitor`]) — per-state and per-edge verdicts: safety
//!   plus solo termination for the checker, decided-value collection with
//!   early bivalence exit for the oracle, the running maximum of an
//!   objective for [`AdversarySynthesis`].
//!
//! # One search order
//!
//! Every run discovers every configuration at its **minimum depth**. One
//! visitor runs inline on a FIFO queue (no thread, no stripes); more run
//! the sharded waves of [`crate::shard`]. A depth-bounded search therefore
//! covers exactly the configurations within `max_depth` steps of the root,
//! whatever the thread count or the client: a depth-bounded pass means "no
//! violation within `max_depth` steps", and a depth-bounded synthesis
//! maximum is the maximum over that whole ball.
//!
//! Both drivers expand a node through the same body (`Expander::expand`):
//! the visitor hooks, terminal and depth accounting, the panic-isolated
//! step, the budget check, dedup, and keeping or undoing the child are
//! written once. A driver only schedules: the inline one pops its queue,
//! the sharded one claims from the work pool and meets at wave barriers.
//!
//! # Budget discipline
//!
//! All accounting happens when a configuration is *discovered*, never when
//! it is popped: each configuration is fingerprinted exactly once, the
//! frontier never holds duplicates, and a child generated while a budget is
//! exhausted marks the search incomplete only if it is genuinely new — a
//! search whose post-budget children are all duplicates drained exactly at
//! the bound and is still exhaustive.
//!
//! # Writing a new search
//!
//! Write a [`Visitor`] that keeps whatever result the search is after, pick
//! an [`Expansion`], and hand both to [`Engine::run_min_depth`] (one
//! visitor per worker). [`AdversarySynthesis::maximize`] is the worked
//! example: a visitor that scores each configuration once, in
//! [`Visitor::enter`], and keeps the first-visited maximum turns the engine
//! into an adversary synthesizer returning the schedule maximizing a
//! caller-defined objective as a replayable witness.
//!
//! # Crash transitions
//!
//! Edges are [`Action`]s, not bare process ids: an expansion policy may
//! emit crash transitions alongside steps. [`CrashBounded`] wraps any inner
//! policy and adds a `Crash(p)` edge for every step candidate `p` while
//! fewer than `max_failures` processes have crashed, which makes the engine
//! enumerate **every crash pattern up to the failure budget** — the model
//! the paper's wait-free/obstruction-free distinction lives in.
//!
//! # Fault tolerance of the engine itself
//!
//! Three engine-level safeguards make long searches interruption-safe:
//! a wall-clock [`Engine::with_deadline`] (graceful partial
//! [`SearchStats`] with `deadline_truncated` set, never an unbounded run),
//! panic isolation around protocol `step` calls (a panicking transition is
//! reported to [`Visitor::step_error`] as [`SimError::Panicked`] and the
//! poisoned scratch child is discarded — the engine never aborts), and
//! checkpoint/resume ([`Checkpointing`], [`SearchImage`], the `resume`
//! argument of [`Engine::run_min_depth`]) with a parity guarantee: a
//! resumed search visits exactly the states, in exactly the order, the
//! uninterrupted search would have.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::canon::DedupSet;
use crate::config::{Configuration, SimError, StepUndo};
use crate::ids::{Action, ProcessId};
use crate::protocol::Protocol;
use crate::search::{NodeId, ScheduleArena};
use crate::shard::{run_sharded, GNode, ShardedArenas, StripedDedup, StripedInsert};

/// Exact search budgets, enforced at discovery time.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Maximum schedule length explored from the root.
    pub max_depth: usize,
    /// Maximum number of distinct configurations (orbits, under reduction)
    /// discovered.
    pub max_states: usize,
}

impl Budget {
    /// A budget with the given depth and state bounds.
    pub fn new(max_depth: usize, max_states: usize) -> Self {
        Budget {
            max_depth,
            max_states,
        }
    }
}

/// Aggregate counters of one engine run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes dequeued and visited.
    pub states: usize,
    /// Visited nodes with no expansion candidates.
    pub terminal_states: usize,
    /// Length of the longest schedule visited.
    pub deepest: usize,
    /// Largest frontier size observed (memory high-water mark).
    pub peak_frontier: usize,
    /// Whether the visitor stopped the search early ([`Control::Stop`]).
    pub stopped: bool,
    /// A node with expansion candidates sat at the depth horizon: deeper
    /// schedules exist but were not explored.
    pub depth_truncated: bool,
    /// A genuinely new configuration was discarded because the state
    /// budget was exhausted (or a step error was skipped).
    pub budget_truncated: bool,
    /// The wall-clock deadline ([`Engine::with_deadline`]) expired with
    /// work still pending. Unlike `budget_truncated` this is recoverable:
    /// resuming from a checkpoint clears it.
    pub deadline_truncated: bool,
    /// A [`Checkpointing`] sink asked the search to pause. Like
    /// `deadline_truncated`, cleared on resume.
    pub paused: bool,
}

impl SearchStats {
    fn fresh() -> Self {
        SearchStats {
            states: 0,
            terminal_states: 0,
            deepest: 0,
            peak_frontier: 1,
            stopped: false,
            depth_truncated: false,
            budget_truncated: false,
            deadline_truncated: false,
            paused: false,
        }
    }

    /// `true` if no depth or state cutoff (or skipped step error)
    /// discarded work and no deadline or pause interrupted the run: the
    /// search covered the whole reachable space.
    pub fn complete(&self) -> bool {
        !self.depth_truncated && !self.budget_truncated && !self.deadline_truncated && !self.paused
    }
}

/// Flow control returned by visitor hooks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep searching.
    Continue,
    /// Abort the search now; [`Engine::run_min_depth`] returns with
    /// [`SearchStats::stopped`] set (the checker found a violation, the
    /// oracle established bivalence).
    Stop,
}

/// Which transitions may be taken from a node.
pub trait Expansion<P: Protocol> {
    /// Fill `out` (cleared first by the caller contract being: the engine
    /// passes a cleared buffer) with the candidate actions, in the
    /// order their edges should be generated.
    fn candidates(&mut self, protocol: &P, config: &Configuration<P>, out: &mut Vec<Action>);
}

/// Expand every running (undecided, uncrashed) process — the model
/// checker's policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllRunning;

impl<P: Protocol> Expansion<P> for AllRunning {
    fn candidates(&mut self, _protocol: &P, config: &Configuration<P>, out: &mut Vec<Action>) {
        config.running_actions_into(out);
    }
}

/// Expand only the still-running members of a fixed process group — the
/// valency oracle's group-only executions. (Filters on *running* status,
/// not merely "no decision": a crashed process has no decision either but
/// must never step.)
#[derive(Clone, Copy, Debug)]
pub struct GroupRestricted<'a>(pub &'a [ProcessId]);

impl<P: Protocol> Expansion<P> for GroupRestricted<'_> {
    fn candidates(&mut self, _protocol: &P, config: &Configuration<P>, out: &mut Vec<Action>) {
        out.extend(
            self.0
                .iter()
                .copied()
                .filter(|&p| config.decision(p).is_none() && !config.is_crashed(p))
                .map(Action::Step),
        );
    }
}

/// Crash-bounded wrapper: alongside every step candidate the inner policy
/// emits, offer crashing that process — as long as fewer than
/// `max_failures` processes have crashed so far. The engine then
/// exhaustively enumerates **every crash pattern up to the failure budget**
/// interleaved with every schedule, which is exactly the adversary class
/// wait-freedom quantifies over.
///
/// Crash edges are appended after the inner candidates, so at every node
/// the crash-free edges come first and the crash branches after them.
#[derive(Clone, Copy, Debug)]
pub struct CrashBounded<E> {
    /// The wrapped policy producing the step candidates.
    pub inner: E,
    /// Maximum number of processes the adversary may crash (the paper's
    /// `f`). `0` makes this wrapper the identity.
    pub max_failures: usize,
}

impl<E> CrashBounded<E> {
    /// Wrap `inner`, budgeting the adversary at `max_failures` crashes.
    pub fn new(inner: E, max_failures: usize) -> Self {
        CrashBounded {
            inner,
            max_failures,
        }
    }
}

impl<P: Protocol, E: Expansion<P>> Expansion<P> for CrashBounded<E> {
    fn candidates(&mut self, protocol: &P, config: &Configuration<P>, out: &mut Vec<Action>) {
        self.inner.candidates(protocol, config, out);
        if config.num_crashed() >= self.max_failures {
            return;
        }
        // Crash exactly the processes the inner policy lets step: crashing
        // a process the policy would never schedule only removes moves the
        // search was not going to take, so those branches are redundant.
        let steps = out.len();
        for i in 0..steps {
            if let Action::Step(p) = out[i] {
                out.push(Action::Crash(p));
            }
        }
    }
}

/// A position in the schedule tree of a running search: a node of the
/// inline driver's arena, or of the sharded driver's per-worker arenas.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TreePos<'a> {
    Arena(&'a ScheduleArena, NodeId),
    Shards(&'a ShardedArenas, GNode),
}

impl TreePos<'_> {
    /// The action sequence from the root to this position.
    fn actions(self) -> Vec<Action> {
        match self {
            TreePos::Arena(arena, node) => arena.actions(node),
            TreePos::Shards(arenas, node) => arenas.actions_of(node),
        }
    }
}

/// Read-only view of a visited node, handed to [`Visitor::enter`]. Both
/// drivers build it; nothing is materialized unless a hook asks for the
/// witness.
#[derive(Debug)]
pub struct NodeCtx<'a> {
    pub(crate) at: TreePos<'a>,
    /// The node's depth (schedule length from the root).
    pub depth: usize,
}

impl NodeCtx<'_> {
    /// Materialize the schedule from the root to this node — the cold
    /// witness path. Crash transitions project to their process id; use
    /// [`NodeCtx::actions`] when the distinction matters.
    pub fn schedule(&self) -> Vec<ProcessId> {
        self.actions().iter().map(|a| a.pid()).collect()
    }

    /// Materialize the full action sequence (steps *and* crashes) from the
    /// root to this node.
    pub fn actions(&self) -> Vec<Action> {
        self.at.actions()
    }
}

/// View of one generated edge, handed to [`Visitor::edge`] and
/// [`Visitor::step_error`]: the parent's position plus the edge's action.
/// Duplicate and failed edges never get an arena node, so the witness is
/// the parent's schedule with the action appended.
#[derive(Debug)]
pub struct EdgeCtx<'a> {
    pub(crate) parent: TreePos<'a>,
    pub(crate) action: Action,
}

impl EdgeCtx<'_> {
    /// The edge's transition.
    pub fn action(&self) -> Action {
        self.action
    }

    /// The process the edge steps — or crashes; see [`EdgeCtx::action`].
    pub fn pid(&self) -> ProcessId {
        self.action.pid()
    }

    /// Materialize the schedule from the root through this edge (pid
    /// projection; see [`EdgeCtx::actions`] for crash fidelity).
    pub fn schedule(&self) -> Vec<ProcessId> {
        self.actions().iter().map(|a| a.pid()).collect()
    }

    /// Materialize the full action sequence from the root through this
    /// edge.
    pub fn actions(&self) -> Vec<Action> {
        let mut out = self.parent.actions();
        out.push(self.action);
        out
    }
}

/// Per-state and per-edge verdicts of a search — the one visitor trait of
/// both drivers. The inline driver calls it from the calling thread; the
/// sharded driver gives each worker its own visitor (hence the `Send`
/// bound on [`Engine::run_min_depth`]) and the caller merges them after
/// the run.
///
/// Hook order per dequeued node: `enter` (with the node's expansion
/// candidates already computed), then — unless the node is terminal or
/// depth-cut — one `edge` (or `step_error`) call per candidate.
pub trait Visitor<P: Protocol> {
    /// Called once per dequeued node. `candidates` is what the expansion
    /// policy returned for this node (empty means terminal).
    fn enter(
        &mut self,
        protocol: &P,
        config: &Configuration<P>,
        ctx: &NodeCtx<'_>,
        candidates: &[Action],
    ) -> Control;

    /// Called for every generated edge within budget, including edges to
    /// already-known configurations (`is_new == false`), before the child
    /// is enqueued. `decided` is the decision the step produced, if any
    /// (always `None` for crash edges).
    fn edge(
        &mut self,
        _protocol: &P,
        _child: &Configuration<P>,
        _decided: Option<u64>,
        _is_new: bool,
        _ctx: &EdgeCtx<'_>,
    ) -> Control {
        Control::Continue
    }

    /// Called when the simulator rejects a candidate step — or when the
    /// protocol's step *panics* (reported as [`SimError::Panicked`]; the
    /// poisoned scratch child is discarded before this hook runs, so the
    /// search state is intact either way). Returning [`Control::Continue`]
    /// skips the edge and marks the search incomplete (the oracle's
    /// policy); returning [`Control::Stop`] aborts (the checker records a
    /// protocol-bug violation).
    fn step_error(&mut self, _protocol: &P, _error: SimError, _ctx: &EdgeCtx<'_>) -> Control {
        Control::Stop
    }
}

/// A serializable image of an in-flight search — everything needed to
/// resume it with full parity, minus the configurations themselves (which
/// are generic and are rebuilt by replaying each node's action schedule
/// from the root).
///
/// Produced by [`Checkpointing`] sinks; consumed by the `resume` argument
/// of [`Engine::run_min_depth`]. The byte-level encoding and the
/// checksummed snapshot-file format live in [`crate::snapshot`].
#[derive(Clone, Debug)]
pub struct SearchImage {
    /// Counters as of the snapshot; resuming continues from them.
    pub stats: SearchStats,
    /// The schedule arena: one node per kept edge, crash bits included.
    pub arena: ScheduleArena,
    /// Every discovered node in **discovery order**, root first. Resuming
    /// re-inserts them into the dedup set in this exact order, which — under
    /// symmetry reduction — reproduces the same orbit representatives and
    /// therefore the same future dedup verdicts as the uninterrupted run.
    pub discovery: Vec<NodeId>,
    /// The pending frontier in queue order, shallowest first.
    pub frontier: Vec<NodeId>,
}

/// Periodic snapshot hook for [`Engine::run_min_depth`]: after every
/// `interval` visited states (and once more on deadline expiry) the engine
/// hands a fresh [`SearchImage`] to `sink`. The sink returning
/// [`Control::Stop`] *pauses* the search — [`SearchStats::paused`] is set
/// and the run returns; resume later by passing the image back.
pub struct Checkpointing<'s> {
    /// Snapshot every this many visited states (`0` is treated as `1`).
    pub interval: usize,
    /// Receives each snapshot. `Send` so a sharded run
    /// ([`crate::shard`]) can carry the hook into the worker that performs
    /// the stop-the-world drain; every sink in the workspace (file writers,
    /// image-capturing closures) is already `Send`.
    pub sink: &'s mut (dyn FnMut(&SearchImage) -> Control + Send),
}

impl fmt::Debug for Checkpointing<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpointing")
            .field("interval", &self.interval)
            .finish_non_exhaustive()
    }
}

/// A [`SearchImage`] that cannot seed a resumed search — internally
/// inconsistent (dangling node ids, replay failures, dedup mismatches).
/// Distinct from [`crate::snapshot::SnapshotError`], which covers the
/// file/bytes layer; this is the semantic layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeError {
    /// What was wrong with the image.
    pub reason: String,
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot resume search: {}", self.reason)
    }
}

impl std::error::Error for ResumeError {}

impl ResumeError {
    fn new(reason: impl Into<String>) -> Self {
        ResumeError {
            reason: reason.into(),
        }
    }
}

/// The search core. Owns only the budgets and the optional wall-clock
/// deadline; the dedup set, the expansion policy and the visitors are
/// handed to each run.
#[derive(Clone, Copy, Debug)]
pub struct Engine {
    /// The run's budgets.
    pub budget: Budget,
    /// Optional wall-clock deadline; see [`Engine::with_deadline`].
    pub deadline: Option<Duration>,
}

impl Engine {
    /// An engine with the given budget and no deadline.
    pub fn new(budget: Budget) -> Self {
        Engine {
            budget,
            deadline: None,
        }
    }

    /// Bound the run by wall-clock time. When the deadline expires the run
    /// returns gracefully with partial [`SearchStats`] and
    /// `deadline_truncated` set (and, if checkpointing, takes a final
    /// snapshot first) — never an abort, never an unbounded run.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Search the configuration graph from `root` in min-depth order, with
    /// one worker per visitor — the engine's one run method.
    ///
    /// The root is inserted into `dedup` and visited first; every further
    /// configuration is discovered through the expansion policy,
    /// deduplicated at discovery time, and visited at its minimum depth. A
    /// single visitor runs inline on a FIFO queue: no thread, no stripes.
    /// More visitors run the sharded waves of [`crate::shard`] over a
    /// [`StripedDedup`] built from `dedup`. Both drivers expand nodes
    /// through the same body, so their reports agree at every thread count
    /// (`peak_frontier`, a high-water mark, excepted).
    ///
    /// `resume` restarts a paused or interrupted search from its
    /// [`SearchImage`] with full parity: the resumed run visits exactly the
    /// states, in exactly the order, the uninterrupted run would have, and
    /// ends with identical stats (up to the cleared
    /// `deadline_truncated`/`paused` flags). `root`, `dedup`, the expansion
    /// and the visitor must be built as for the interrupted run.
    /// Discovered configurations are rebuilt by replaying each node's
    /// action schedule from the root and re-inserted in the original
    /// discovery order, which under symmetry reduction reproduces the same
    /// orbit representatives.
    ///
    /// `dedup` must be empty. Returns the run's stats and the number of
    /// distinct configurations (orbits) discovered.
    ///
    /// # Errors
    ///
    /// [`ResumeError`] if `resume` holds an image that cannot seed the
    /// search: dangling node ids, schedules that fail to replay, discovery
    /// entries that deduplicate against each other, or a non-empty `dedup`.
    ///
    /// # Panics
    ///
    /// Panics if `visitors` is empty or longer than
    /// [`MAX_THREADS`](crate::shard::MAX_THREADS), or if `resume` is given
    /// with more than one visitor: the sharded driver does not resume, a
    /// resumed leg runs inline.
    #[allow(clippy::too_many_arguments)]
    pub fn run_min_depth<P, E, V>(
        &self,
        protocol: &P,
        root: Configuration<P>,
        dedup: DedupSet<P>,
        make_expansion: impl Fn() -> E,
        visitors: &mut [V],
        resume: Option<&SearchImage>,
        ckpt: Option<Checkpointing<'_>>,
    ) -> Result<(SearchStats, usize), ResumeError>
    where
        P: Protocol,
        E: Expansion<P> + Send,
        V: Visitor<P> + Send,
    {
        if let [visitor] = visitors {
            return self.run_inline(
                protocol,
                root,
                dedup,
                make_expansion(),
                visitor,
                resume,
                ckpt,
            );
        }
        assert!(
            resume.is_none(),
            "a resumed search runs inline on one visitor"
        );
        // More stripes than workers keeps lock contention low without
        // affecting results (stripe assignment is a pure function of the
        // fingerprint, so the partition is deterministic).
        let stripes = (visitors.len() * 8).min(64);
        let striped = StripedDedup::new(dedup, stripes, self.budget.max_states);
        let stats = run_sharded(
            self,
            protocol,
            root,
            &striped,
            make_expansion,
            visitors,
            ckpt,
        );
        Ok((stats, striped.len()))
    }

    /// The inline driver: pop the FIFO queue, expand each node through the
    /// shared body, honour the deadline and the checkpoint cadence.
    #[allow(clippy::too_many_arguments)]
    fn run_inline<P, E, V>(
        &self,
        protocol: &P,
        root: Configuration<P>,
        dedup: DedupSet<P>,
        expansion: E,
        visitor: &mut V,
        resume: Option<&SearchImage>,
        mut ckpt: Option<Checkpointing<'_>>,
    ) -> Result<(SearchStats, usize), ResumeError>
    where
        P: Protocol,
        E: Expansion<P>,
        V: Visitor<P>,
    {
        let mut inline = Inline {
            dedup,
            arena: ScheduleArena::new(),
            queue: VecDeque::new(),
            discovery: vec![ScheduleArena::ROOT],
            record_discovery: ckpt.is_some(),
            stats: SearchStats::fresh(),
            budget: self.budget,
        };
        match resume {
            None => {
                inline.dedup.insert(protocol, &root);
                inline.queue.push_back((root, ScheduleArena::ROOT));
            }
            Some(image) => inline.restore(protocol, &root, image)?,
        }
        let started = Instant::now();
        let mut expander = Expander::new(expansion, self.budget.max_depth);
        loop {
            if self.deadline.is_some_and(|d| started.elapsed() >= d) && !inline.queue.is_empty() {
                inline.stats.deadline_truncated = true;
                if let Some(ckpt) = ckpt.as_mut() {
                    // Final snapshot so the interrupted run is resumable;
                    // its verdict no longer matters — the run is ending.
                    let _ = (ckpt.sink)(&inline.image());
                }
                break;
            }
            let Some((config, node)) = inline.queue.pop_front() else {
                break;
            };
            let depth = inline.arena.depth(node);
            if expander.expand(protocol, visitor, &mut inline, &config, node, depth)
                == Control::Stop
            {
                inline.stats.stopped = true;
                break;
            }
            if let Some(ckpt) = ckpt.as_mut() {
                if inline.stats.states.is_multiple_of(ckpt.interval.max(1))
                    && (ckpt.sink)(&inline.image()) == Control::Stop
                {
                    inline.stats.paused = true;
                    break;
                }
            }
        }
        Ok((inline.stats, inline.dedup.len()))
    }
}

/// The driver side of the shared node body ([`Expander::expand`]): where
/// its counters, dedup verdicts and kept children go. The inline driver
/// implements it over its queue and arena, the sharded driver over the
/// shared atomics, stripes and next-wave buffers.
pub(crate) trait Seam<P: Protocol> {
    /// A node of the driver's schedule tree.
    type Node: Copy;
    /// The tree position of `node`, for the visitor's context views.
    fn pos(&self, node: Self::Node) -> TreePos<'_>;
    /// Count the visit of a node at `depth`.
    fn visited(&mut self, depth: usize);
    /// Count a terminal node.
    fn terminal(&mut self);
    /// A node with candidates sat at the depth horizon.
    fn depth_truncated(&mut self);
    /// Work was skipped: a new child over budget, or a skipped step error.
    fn budget_truncated(&mut self);
    /// Classify `child` against the dedup set and the state and frontier
    /// budgets, inserting it when it is new and within budget.
    fn insert(&mut self, protocol: &P, child: &Configuration<P>) -> StripedInsert;
    /// Keep a new child, reached from `parent` by `action`, at `depth`.
    fn keep(&mut self, parent: Self::Node, action: Action, depth: usize, child: Configuration<P>);
}

/// One worker's node-expansion state: its expansion policy, the candidate
/// buffer, and the scratch configuration recycled between children.
pub(crate) struct Expander<P: Protocol, E> {
    expansion: E,
    max_depth: usize,
    candidates: Vec<Action>,
    scratch: Option<Configuration<P>>,
}

impl<P: Protocol, E: Expansion<P>> Expander<P, E> {
    pub(crate) fn new(expansion: E, max_depth: usize) -> Self {
        Expander {
            expansion,
            max_depth,
            candidates: Vec::new(),
            scratch: None,
        }
    }

    /// Expand one node — the per-node body of both drivers: the visitor
    /// hooks, terminal and depth accounting, the panic-isolated step, the
    /// budget check before the edge hook, dedup, and keeping or undoing the
    /// child. Returns [`Control::Stop`] when a hook aborts the search.
    ///
    /// A child is generated by stepping the scratch in place and — when it
    /// is dropped (duplicate or over budget) — *delta-restored*: the undo
    /// token rolls back exactly the two mutated slots, so dropped children
    /// cost O(1) element writes instead of a state re-copy.
    #[inline]
    pub(crate) fn expand<V: Visitor<P>, S: Seam<P>>(
        &mut self,
        protocol: &P,
        visitor: &mut V,
        seam: &mut S,
        config: &Configuration<P>,
        node: S::Node,
        depth: usize,
    ) -> Control {
        seam.visited(depth);
        self.candidates.clear();
        self.expansion
            .candidates(protocol, config, &mut self.candidates);
        let ctx = NodeCtx {
            at: seam.pos(node),
            depth,
        };
        if visitor.enter(protocol, config, &ctx, &self.candidates) == Control::Stop {
            return Control::Stop;
        }
        if self.candidates.is_empty() {
            seam.terminal();
            return Control::Continue;
        }
        if depth >= self.max_depth {
            seam.depth_truncated();
            return Control::Continue;
        }
        // `true` while the scratch holds exactly `config`'s state (so the
        // next candidate can step it directly); cleared when a kept child
        // leaves the scratch sharing storage with the frontier.
        let mut scratch_synced = false;
        for &action in &self.candidates {
            let child = match &mut self.scratch {
                Some(child) => {
                    if !scratch_synced {
                        child.clone_state_from(config);
                    }
                    child
                }
                None => self.scratch.insert(config.clone()),
            };
            scratch_synced = true;
            match take_action(protocol, child, action) {
                Ok((decided, undo)) => {
                    // A child probed while a budget binds gets no edge
                    // hook, and only a genuinely new one is skipped work.
                    let is_new = match seam.insert(protocol, child) {
                        StripedInsert::New => true,
                        StripedInsert::Duplicate => false,
                        dropped => {
                            if dropped == StripedInsert::BudgetNew {
                                seam.budget_truncated();
                            }
                            child.undo_step(undo);
                            continue;
                        }
                    };
                    let edge = EdgeCtx {
                        parent: seam.pos(node),
                        action,
                    };
                    if visitor.edge(protocol, child, decided, is_new, &edge) == Control::Stop {
                        return Control::Stop;
                    }
                    if is_new {
                        seam.keep(node, action, depth + 1, child.clone());
                        scratch_synced = false;
                    } else {
                        child.undo_step(undo);
                    }
                }
                Err(error) => {
                    if matches!(error, SimError::Panicked { .. }) {
                        // The panicking step may have half-mutated the
                        // scratch: poisoned, drop it. (A schema rejection
                        // or crash error mutates nothing.)
                        self.scratch = None;
                        scratch_synced = false;
                    }
                    let edge = EdgeCtx {
                        parent: seam.pos(node),
                        action,
                    };
                    match visitor.step_error(protocol, error, &edge) {
                        Control::Stop => return Control::Stop,
                        Control::Continue => seam.budget_truncated(),
                    }
                }
            }
        }
        Control::Continue
    }
}

/// The inline driver's state: a FIFO queue over one arena and one dedup
/// set. Children are queued at their parent's depth plus one and popped in
/// queue order, so every configuration is discovered at its minimum depth.
struct Inline<P: Protocol> {
    dedup: DedupSet<P>,
    arena: ScheduleArena,
    queue: VecDeque<(Configuration<P>, NodeId)>,
    /// Discovery order, root first; grown only when checkpointing.
    discovery: Vec<NodeId>,
    record_discovery: bool,
    stats: SearchStats,
    budget: Budget,
}

impl<P: Protocol> Inline<P> {
    /// Seed the run from `image`, rebuilding each configuration by replay.
    fn restore(
        &mut self,
        protocol: &P,
        root: &Configuration<P>,
        image: &SearchImage,
    ) -> Result<(), ResumeError> {
        if !self.dedup.is_empty() {
            return Err(ResumeError::new("resume requires a fresh dedup set"));
        }
        if image.discovery.first() != Some(&ScheduleArena::ROOT) {
            return Err(ResumeError::new("discovery order must start at the root"));
        }
        let node_ok =
            |n: NodeId| n == ScheduleArena::ROOT || (n.to_raw() as usize) < image.arena.len();
        if let Some(bad) = image
            .discovery
            .iter()
            .chain(image.frontier.iter())
            .find(|&&n| !node_ok(n))
        {
            return Err(ResumeError::new(format!(
                "node id {} out of range (arena has {} nodes)",
                bad.to_raw(),
                image.arena.len()
            )));
        }
        let rebuild = |node: NodeId| -> Result<Configuration<P>, ResumeError> {
            let mut config = root.clone();
            crate::runner::replay_actions(protocol, &mut config, &image.arena.actions(node))
                .map_err(|e| {
                    ResumeError::new(format!(
                        "schedule of node {} does not replay: {e}",
                        node.to_raw()
                    ))
                })?;
            Ok(config)
        };
        for &node in &image.discovery {
            if !self.dedup.insert(protocol, &rebuild(node)?) {
                return Err(ResumeError::new(format!(
                    "discovery entry {} deduplicates against an earlier one",
                    node.to_raw()
                )));
            }
        }
        for &node in &image.frontier {
            self.queue.push_back((rebuild(node)?, node));
        }
        self.arena = image.arena.clone();
        self.discovery = image.discovery.clone();
        self.stats = SearchStats {
            deadline_truncated: false,
            paused: false,
            ..image.stats
        };
        Ok(())
    }

    /// The [`SearchImage`] of the run at this point.
    fn image(&self) -> SearchImage {
        SearchImage {
            stats: self.stats,
            arena: self.arena.clone(),
            discovery: self.discovery.clone(),
            frontier: self.queue.iter().map(|&(_, node)| node).collect(),
        }
    }
}

impl<P: Protocol> Seam<P> for Inline<P> {
    type Node = NodeId;

    fn pos(&self, node: NodeId) -> TreePos<'_> {
        TreePos::Arena(&self.arena, node)
    }

    fn visited(&mut self, depth: usize) {
        self.stats.states += 1;
        self.stats.deepest = self.stats.deepest.max(depth);
    }

    fn terminal(&mut self) {
        self.stats.terminal_states += 1;
    }

    fn depth_truncated(&mut self) {
        self.stats.depth_truncated = true;
    }

    fn budget_truncated(&mut self) {
        self.stats.budget_truncated = true;
    }

    fn insert(&mut self, protocol: &P, child: &Configuration<P>) -> StripedInsert {
        if self.dedup.len() >= self.budget.max_states {
            return if self.dedup.contains(protocol, child) {
                StripedInsert::BudgetDuplicate
            } else {
                StripedInsert::BudgetNew
            };
        }
        if self.dedup.insert(protocol, child) {
            StripedInsert::New
        } else {
            StripedInsert::Duplicate
        }
    }

    fn keep(&mut self, parent: NodeId, action: Action, _depth: usize, child: Configuration<P>) {
        let node = self.arena.child_action(parent, action);
        if self.record_discovery {
            self.discovery.push(node);
        }
        self.queue.push_back((child, node));
        self.stats.peak_frontier = self.stats.peak_frontier.max(self.queue.len());
    }
}

/// Take one edge's action on the scratch child, undoably — the step of
/// every search. Panic isolation: a protocol whose transition function
/// panics poisons only the scratch child, which the caller discards — the
/// search itself survives and reports the [`SimError::Panicked`].
pub(crate) fn take_action<P: Protocol>(
    protocol: &P,
    child: &mut Configuration<P>,
    action: Action,
) -> Result<(Option<u64>, StepUndo<P>), SimError> {
    match action {
        Action::Step(pid) => panic::catch_unwind(AssertUnwindSafe(|| {
            child.step_quiet_undoable(protocol, pid)
        }))
        .unwrap_or_else(|payload| {
            Err(SimError::Panicked {
                process: pid,
                message: panic_message(payload),
            })
        }),
        Action::Crash(pid) => child.crash(pid).map(|undo| (None, undo)),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Result of an [`AdversarySynthesis`] search: the extremal schedule as a
/// replayable witness.
#[derive(Clone, Debug)]
pub struct SynthesisReport<P: Protocol> {
    /// The best objective value found.
    pub best_score: u64,
    /// A schedule reaching a configuration with that objective value —
    /// replaying it from the initial configuration reproduces
    /// [`SynthesisReport::config`].
    pub schedule: Vec<ProcessId>,
    /// The extremal configuration itself.
    pub config: Configuration<P>,
    /// Distinct configurations explored.
    pub states: usize,
    /// Whether the whole depth-bounded space was covered — every
    /// configuration within the depth bound was scored, so `best_score` is
    /// the true depth-bounded maximum. `false` means the state
    /// budget (or a skipped step error) truncated the search, so a better
    /// schedule may exist within the depth bound.
    pub complete: bool,
    /// Longest schedule explored.
    pub deepest: usize,
}

/// Searches for the schedule maximizing a protocol-defined objective — the
/// adversary *synthesis* loop of the Lemma 9 playbook: instead of
/// hand-coding a nasty scheduler (cf.
/// [`LapLeadChasing`](crate::scheduler::LapLeadChasing)), ask the engine
/// for the worst reachable configuration and return the schedule that
/// produces it.
///
/// The search runs on [`Engine::run_min_depth`] like every exhaustive
/// client: every configuration within the depth bound is visited once, at
/// its minimum depth, deduplicated exactly, and scored once. With budgets
/// that do not bind ([`SynthesisReport::complete`]) the returned schedule
/// is the true depth-bounded maximum, reached by a shortest schedule among
/// the maximizers visited first.
///
/// # Example
///
/// ```
/// use swapcons_sim::engine::AdversarySynthesis;
/// use swapcons_sim::testing::TwoProcessSwapConsensus;
/// use swapcons_sim::Configuration;
///
/// // "Most undecided processes" — maximized before anyone swaps.
/// let initial = Configuration::initial(&TwoProcessSwapConsensus, &[0, 1]).unwrap();
/// let report = AdversarySynthesis::new(4, 1_000)
///     .maximize(&TwoProcessSwapConsensus, &initial, |_, c| {
///         c.running().len() as u64
///     });
/// assert_eq!(report.best_score, 2);
/// assert!(report.schedule.is_empty(), "the initial configuration wins");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct AdversarySynthesis {
    /// Search budgets.
    pub budget: Budget,
}

impl AdversarySynthesis {
    /// A synthesizer exploring to the given depth and state budget.
    pub fn new(max_depth: usize, max_states: usize) -> Self {
        AdversarySynthesis {
            budget: Budget::new(max_depth, max_states),
        }
    }

    /// Search all schedules from `initial` (up to the budgets) for the
    /// configuration maximizing `objective`, and return it with its
    /// schedule.
    ///
    /// The objective is evaluated exactly once per visited configuration,
    /// in [`Visitor::enter`]. Ties keep the first-visited configuration,
    /// which is deterministic.
    pub fn maximize<P: Protocol>(
        &self,
        protocol: &P,
        initial: &Configuration<P>,
        objective: impl Fn(&P, &Configuration<P>) -> u64 + Sync,
    ) -> SynthesisReport<P> {
        /// Scores every visited configuration and keeps the first maximum.
        /// A rejected step is skipped work (marks the search incomplete),
        /// never a silent abort.
        struct Maximize<'o, P: Protocol, O> {
            objective: &'o O,
            best: Option<(u64, Vec<ProcessId>, Configuration<P>)>,
        }
        impl<P: Protocol, O: Fn(&P, &Configuration<P>) -> u64> Visitor<P> for Maximize<'_, P, O> {
            fn enter(
                &mut self,
                protocol: &P,
                config: &Configuration<P>,
                ctx: &NodeCtx<'_>,
                _candidates: &[Action],
            ) -> Control {
                let score = (self.objective)(protocol, config);
                if self.best.as_ref().is_none_or(|b| score > b.0) {
                    self.best = Some((score, ctx.schedule(), config.clone()));
                }
                Control::Continue
            }

            fn step_error(
                &mut self,
                _protocol: &P,
                _error: SimError,
                _ctx: &EdgeCtx<'_>,
            ) -> Control {
                Control::Continue
            }
        }

        let mut visitor = Maximize {
            objective: &objective,
            best: None,
        };
        let (stats, states) = Engine::new(self.budget)
            .run_min_depth(
                protocol,
                initial.clone(),
                DedupSet::exact(self.budget.max_states.min(1 << 14)),
                || AllRunning,
                std::slice::from_mut(&mut visitor),
                None,
                None,
            )
            .expect("fresh runs cannot fail to resume");
        let (best_score, schedule, config) = visitor.best.expect("the root is always visited");
        SynthesisReport {
            best_score,
            schedule,
            config,
            states,
            // The depth horizon *defines* a synthesis search (racing
            // protocols are unbounded); only a state budget — or
            // a skipped step error — genuinely truncates it.
            complete: !stats.budget_truncated,
            deepest: stats.deepest,
        }
    }
}

/// Convenience: [`AdversarySynthesis::maximize`] from an input vector.
///
/// # Panics
///
/// Panics if the inputs are invalid for the protocol's task.
pub fn synthesize<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    max_depth: usize,
    max_states: usize,
    objective: impl Fn(&P, &Configuration<P>) -> u64 + Sync,
) -> SynthesisReport<P> {
    let initial = Configuration::initial(protocol, inputs)
        .expect("adversary synthesis requires valid inputs");
    AdversarySynthesis::new(max_depth, max_states).maximize(protocol, &initial, objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use crate::testing::TwoProcessSwapConsensus;

    fn init(inputs: &[u64]) -> Configuration<TwoProcessSwapConsensus> {
        Configuration::initial(&TwoProcessSwapConsensus, inputs).unwrap()
    }

    /// Run `visitor` inline over the two-process space from `inputs`;
    /// returns the stats and the number of distinct configurations.
    fn search<E, V>(
        engine: Engine,
        inputs: &[u64],
        expansion: E,
        visitor: &mut V,
    ) -> (SearchStats, usize)
    where
        E: Expansion<TwoProcessSwapConsensus> + Copy + Send,
        V: Visitor<TwoProcessSwapConsensus> + Send,
    {
        engine
            .run_min_depth(
                &TwoProcessSwapConsensus,
                init(inputs),
                DedupSet::exact(64),
                || expansion,
                std::slice::from_mut(visitor),
                None,
                None,
            )
            .unwrap()
    }

    /// A visitor that records visit order and nothing else.
    #[derive(Default)]
    struct Recorder {
        depths: Vec<usize>,
    }

    impl<P: Protocol> Visitor<P> for Recorder {
        fn enter(
            &mut self,
            _protocol: &P,
            _config: &Configuration<P>,
            ctx: &NodeCtx<'_>,
            _candidates: &[Action],
        ) -> Control {
            self.depths.push(ctx.depth);
            Control::Continue
        }
    }

    #[test]
    fn fifo_engine_covers_the_two_process_space() {
        let mut visitor = Recorder::default();
        let engine = Engine::new(Budget::new(10, 10_000));
        let (stats, states) = search(engine, &[0, 1], AllRunning, &mut visitor);
        // The known space: 5 configurations (initial, two mids, two
        // terminals), all reachable within depth 2.
        assert_eq!(stats.states, 5);
        assert_eq!(states, 5);
        assert!(stats.complete());
        assert!(!stats.stopped);
        assert_eq!(stats.deepest, 2);
        assert_eq!(stats.terminal_states, 2);
        assert_eq!(visitor.depths, [0, 1, 1, 2, 2], "min-depth order");
    }

    #[test]
    fn group_restricted_expansion_limits_the_walk() {
        let group = [ProcessId(0)];
        let engine = Engine::new(Budget::new(10, 10_000));
        let (stats, _) = search(
            engine,
            &[0, 1],
            GroupRestricted(&group),
            &mut Recorder::default(),
        );
        // p0-only executions: initial and the configuration after p0's
        // single swap. p1 never steps.
        assert_eq!(stats.states, 2);
        assert!(stats.complete());
    }

    #[test]
    fn exact_state_budget_still_reports_complete() {
        // The budget-accounting discipline, pinned at the engine level: a
        // budget of exactly the space size drains without skipping work.
        let engine = Engine::new(Budget::new(10, 5));
        let (stats, _) = search(engine, &[0, 1], AllRunning, &mut Recorder::default());
        assert_eq!(stats.states, 5);
        assert!(stats.complete(), "exactly-sized budget is still exhaustive");
        assert!(!stats.budget_truncated);
        let engine = Engine::new(Budget::new(10, 4));
        let (stats, _) = search(engine, &[0, 1], AllRunning, &mut Recorder::default());
        assert!(!stats.complete(), "one state fewer genuinely truncates");
        assert!(stats.budget_truncated && !stats.depth_truncated);
    }

    #[test]
    fn stop_from_enter_aborts_immediately() {
        struct StopAtDepth1;
        impl<P: Protocol> Visitor<P> for StopAtDepth1 {
            fn enter(
                &mut self,
                _p: &P,
                _c: &Configuration<P>,
                ctx: &NodeCtx<'_>,
                _cands: &[Action],
            ) -> Control {
                if ctx.depth >= 1 {
                    Control::Stop
                } else {
                    Control::Continue
                }
            }
        }
        let engine = Engine::new(Budget::new(10, 10_000));
        let (stats, _) = search(engine, &[0, 1], AllRunning, &mut StopAtDepth1);
        assert!(stats.stopped);
        assert!(stats.states < 5);
    }

    #[test]
    fn edge_hook_sees_duplicates_and_decisions() {
        struct EdgeLog {
            decided_edges: usize,
            duplicate_edges: usize,
            schedules_ok: bool,
        }
        impl<P: Protocol> Visitor<P> for EdgeLog {
            fn enter(
                &mut self,
                _p: &P,
                _c: &Configuration<P>,
                _ctx: &NodeCtx<'_>,
                _cands: &[Action],
            ) -> Control {
                Control::Continue
            }
            fn edge(
                &mut self,
                _p: &P,
                _child: &Configuration<P>,
                decided: Option<u64>,
                is_new: bool,
                ctx: &EdgeCtx<'_>,
            ) -> Control {
                if decided.is_some() {
                    self.decided_edges += 1;
                    let schedule = ctx.schedule();
                    self.schedules_ok &= schedule.last() == Some(&ctx.pid());
                }
                if !is_new {
                    self.duplicate_edges += 1;
                }
                Control::Continue
            }
        }
        let mut visitor = EdgeLog {
            decided_edges: 0,
            duplicate_edges: 0,
            schedules_ok: true,
        };
        // Unanimous inputs: the two schedule orders converge on the same
        // terminal, so the second order's last edge is a duplicate.
        let engine = Engine::new(Budget::new(10, 10_000));
        search(engine, &[1, 1], AllRunning, &mut visitor);
        // Every edge in this protocol decides; the two orders converge on
        // duplicate terminals.
        assert!(visitor.decided_edges >= 4, "{}", visitor.decided_edges);
        assert!(visitor.duplicate_edges >= 1);
        assert!(visitor.schedules_ok, "edge schedules end with the edge pid");
    }

    #[test]
    fn synthesis_returns_a_replayable_extremal_schedule() {
        // Objective: number of decided processes. The maximum (2) is
        // reached by any length-2 schedule; the witness must replay to the
        // reported configuration.
        let report = synthesize(&TwoProcessSwapConsensus, &[0, 1], 10, 10_000, |_, c| {
            c.decisions_iter().flatten().count() as u64
        });
        assert_eq!(report.best_score, 2);
        assert_eq!(report.schedule.len(), 2);
        assert!(report.complete);
        assert_eq!(report.states, 5);
        let mut replay = init(&[0, 1]);
        runner::replay(&TwoProcessSwapConsensus, &mut replay, &report.schedule).unwrap();
        assert_eq!(replay, report.config, "witness replays to the extremum");
    }

    #[test]
    fn synthesis_objective_zero_keeps_the_root() {
        let report = synthesize(&TwoProcessSwapConsensus, &[3, 4], 10, 10_000, |_, _| 0);
        assert_eq!(report.best_score, 0);
        assert!(report.schedule.is_empty(), "ties keep the first visit");
    }

    #[test]
    fn synthesis_truncation_is_reported() {
        let report = synthesize(&TwoProcessSwapConsensus, &[0, 1], 10, 3, |_, c| {
            c.decisions_iter().flatten().count() as u64
        });
        assert!(!report.complete);
        assert!(report.states <= 3);
    }

    #[test]
    fn crash_bounded_zero_failures_is_the_identity() {
        let engine = Engine::new(Budget::new(10, 10_000));
        let (stats, _) = search(
            engine,
            &[0, 1],
            CrashBounded::new(AllRunning, 0),
            &mut Recorder::default(),
        );
        assert_eq!(stats.states, 5, "f = 0 explores the crash-free space");
        assert!(stats.complete());
    }

    #[test]
    fn crash_bounded_enumerates_every_crash_pattern() {
        struct CrashCensus {
            crashed_configs: usize,
            max_crashed: usize,
        }
        impl<P: Protocol> Visitor<P> for CrashCensus {
            fn enter(
                &mut self,
                _p: &P,
                c: &Configuration<P>,
                _ctx: &NodeCtx<'_>,
                _cands: &[Action],
            ) -> Control {
                let crashed = c.num_crashed();
                if crashed > 0 {
                    self.crashed_configs += 1;
                }
                self.max_crashed = self.max_crashed.max(crashed);
                Control::Continue
            }
        }
        let mut visitor = CrashCensus {
            crashed_configs: 0,
            max_crashed: 0,
        };
        let engine = Engine::new(Budget::new(10, 10_000));
        let (stats, _) = search(
            engine,
            &[0, 1],
            CrashBounded::new(AllRunning, 1),
            &mut visitor,
        );
        assert!(stats.complete());
        assert!(
            stats.states > 5,
            "crash injection must enlarge the space: {}",
            stats.states
        );
        assert!(
            visitor.crashed_configs > 0,
            "crashed configurations visited"
        );
        assert_eq!(visitor.max_crashed, 1, "failure budget respected");
    }

    #[test]
    fn zero_deadline_truncates_gracefully() {
        let engine = Engine::new(Budget::new(10, 10_000)).with_deadline(Duration::ZERO);
        let (stats, _) = search(engine, &[0, 1], AllRunning, &mut Recorder::default());
        assert!(stats.deadline_truncated);
        assert!(!stats.complete());
        assert!(!stats.stopped, "a deadline is not a visitor abort");
        assert_eq!(stats.states, 0, "expired before the first visit");
    }

    #[test]
    fn panicking_step_is_isolated_and_reported() {
        use crate::task::KSetTask;
        use swapcons_objects::{ObjectOp, ObjectSchema, Response};

        /// Delegates everything to the two-process consensus protocol but
        /// panics on every observe — a worst-case protocol bug.
        struct PanickyProtocol;
        impl Protocol for PanickyProtocol {
            type State = <TwoProcessSwapConsensus as Protocol>::State;
            type Value = <TwoProcessSwapConsensus as Protocol>::Value;
            fn name(&self) -> String {
                "panicky".into()
            }
            fn task(&self) -> KSetTask {
                TwoProcessSwapConsensus.task()
            }
            fn num_objects(&self) -> usize {
                TwoProcessSwapConsensus.num_objects()
            }
            fn schema(&self, obj: crate::ObjectId) -> ObjectSchema {
                TwoProcessSwapConsensus.schema(obj)
            }
            fn initial_value(&self, obj: crate::ObjectId) -> Self::Value {
                TwoProcessSwapConsensus.initial_value(obj)
            }
            fn initial_state(&self, pid: ProcessId, input: u64) -> Self::State {
                TwoProcessSwapConsensus.initial_state(pid, input)
            }
            fn poised(&self, state: &Self::State) -> (crate::ObjectId, ObjectOp<Self::Value>) {
                TwoProcessSwapConsensus.poised(state)
            }
            fn observe(
                &self,
                _state: Self::State,
                _response: Response<Self::Value>,
            ) -> crate::Transition<Self::State> {
                panic!("injected protocol bug")
            }
        }

        struct PanicLog {
            panics: Vec<(ProcessId, String)>,
        }
        impl Visitor<PanickyProtocol> for PanicLog {
            fn enter(
                &mut self,
                _p: &PanickyProtocol,
                _c: &Configuration<PanickyProtocol>,
                _ctx: &NodeCtx<'_>,
                _cands: &[Action],
            ) -> Control {
                Control::Continue
            }
            fn step_error(
                &mut self,
                _p: &PanickyProtocol,
                error: SimError,
                ctx: &EdgeCtx<'_>,
            ) -> Control {
                if let SimError::Panicked { process, message } = error {
                    self.panics.push((process, message));
                    assert_eq!(ctx.pid(), self.panics.last().unwrap().0);
                }
                Control::Continue
            }
        }

        let root = Configuration::initial(&PanickyProtocol, &[0, 1]).unwrap();
        let mut visitor = PanicLog { panics: Vec::new() };
        let (stats, _) = Engine::new(Budget::new(10, 10_000))
            .run_min_depth(
                &PanickyProtocol,
                root,
                DedupSet::exact(16),
                || AllRunning,
                std::slice::from_mut(&mut visitor),
                None,
                None,
            )
            .unwrap();
        assert!(!stats.stopped, "Continue from step_error keeps searching");
        assert_eq!(stats.states, 1, "only the root is reachable");
        assert!(stats.budget_truncated, "skipped edges mark incompleteness");
        assert_eq!(visitor.panics.len(), 2, "both processes' steps panicked");
        assert!(visitor.panics[0].1.contains("injected protocol bug"));
    }

    /// Run `visitor` over the crash-injected two-process space, optionally
    /// resuming from `image` and checkpointing into `ckpt`.
    fn crash_search(
        visitor: &mut Recorder,
        resume: Option<&SearchImage>,
        ckpt: Option<Checkpointing<'_>>,
    ) -> Result<(SearchStats, usize), ResumeError> {
        Engine::new(Budget::new(10, 10_000)).run_min_depth(
            &TwoProcessSwapConsensus,
            init(&[0, 1]),
            DedupSet::exact(64),
            || CrashBounded::new(AllRunning, 1),
            std::slice::from_mut(visitor),
            resume,
            ckpt,
        )
    }

    #[test]
    fn pause_and_resume_have_full_parity() {
        // Uninterrupted baseline.
        let mut baseline_visitor = Recorder::default();
        let (baseline, baseline_states) = crash_search(&mut baseline_visitor, None, None).unwrap();

        // Interrupted run: pause at the first snapshot (after 2 states).
        let mut image: Option<SearchImage> = None;
        let mut sink = |img: &SearchImage| {
            image = Some(img.clone());
            Control::Stop
        };
        let mut first_visitor = Recorder::default();
        let (paused, _) = crash_search(
            &mut first_visitor,
            None,
            Some(Checkpointing {
                interval: 2,
                sink: &mut sink,
            }),
        )
        .unwrap();
        assert!(paused.paused);
        assert!(!paused.complete());
        assert_eq!(paused.states, 2);
        let image = image.expect("a snapshot was taken");
        assert_eq!(image.stats.states, 2);

        // Resume with entirely fresh state.
        let mut resumed_visitor = Recorder::default();
        let (resumed, resumed_states) =
            crash_search(&mut resumed_visitor, Some(&image), None).unwrap();
        assert_eq!(resumed, baseline, "stats parity");
        assert_eq!(resumed_states, baseline_states, "state-count parity");
        // The resumed run visits exactly the not-yet-visited suffix, in the
        // same order.
        assert_eq!(
            first_visitor.depths.len() + resumed_visitor.depths.len(),
            baseline_visitor.depths.len()
        );
        assert_eq!(
            resumed_visitor.depths,
            baseline_visitor.depths[first_visitor.depths.len()..]
        );
    }

    #[test]
    fn resume_rejects_inconsistent_images() {
        let mut image: Option<SearchImage> = None;
        let mut sink = |img: &SearchImage| {
            image = Some(img.clone());
            Control::Stop
        };
        crash_search(
            &mut Recorder::default(),
            None,
            Some(Checkpointing {
                interval: 1,
                sink: &mut sink,
            }),
        )
        .unwrap();
        let good = image.unwrap();

        let resume = |img: &SearchImage| crash_search(&mut Recorder::default(), Some(img), None);
        assert!(resume(&good).is_ok());

        // Dangling frontier node.
        let mut bad = good.clone();
        bad.frontier.push(NodeId::from_raw(9_999));
        assert!(resume(&bad).unwrap_err().reason.contains("out of range"));

        // Discovery not rooted.
        let mut bad = good.clone();
        bad.discovery.remove(0);
        assert!(resume(&bad)
            .unwrap_err()
            .reason
            .contains("start at the root"));

        // Duplicate discovery entry.
        let mut bad = good.clone();
        let last = *bad.discovery.last().unwrap();
        bad.discovery.push(last);
        assert!(resume(&bad).unwrap_err().reason.contains("deduplicates"));
    }
}
