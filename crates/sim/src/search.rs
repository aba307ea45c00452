//! Shared infrastructure for the exhaustive searches: the visited-state
//! store and a parent-pointer arena for schedule reconstruction.
//!
//! These are the storage primitives underneath the search core
//! ([`crate::engine`]), which owns the exploration loop that the model
//! checker ([`crate::explore::ModelChecker`]), the lower-bound valency
//! oracle, and the adversary synthesizer all run on. The explored graphs'
//! nodes are [`Configuration`]s. Two costs dominated the naive
//! implementations:
//!
//! * **memory** — a set of whole configurations pays a map entry plus a
//!   process-vector and an object-vector allocation per state, although a
//!   search meets only a handful of distinct process statuses and object
//!   vectors (112 statuses and 47 object vectors across the 1.4 million
//!   states of `BinaryRacing` n=3, track 6). [`VisitedSet`] therefore
//!   interns every status, object vector and input vector once per store
//!   and keeps each configuration as a fixed-stride tuple of `u32` ids,
//!   indexed by one open-addressed slot table. A key hit compares tuples,
//!   so exactness never depends on hash quality. The orbit-keyed
//!   [`crate::canon::CanonicalVisitedSet`] is the same store under another
//!   key;
//! * **schedule cloning** — storing `Vec<ProcessId>` schedules in every
//!   stack/queue frame is `O(depth)` memory traffic per explored edge.
//!   [`ScheduleArena`] stores one `(parent, pid)` node per edge and
//!   materializes a schedule only when a witness is actually needed (a
//!   violation or a decision), which is the rare path.

use std::hash::{Hash, Hasher};

use crate::config::{Configuration, ProcStatus};
use crate::ids::{Action, ProcessId};
use crate::protocol::Protocol;

/// Pass-through hasher for keys that are already hashes: the solo-outcome
/// memo and the wait-free leg key their maps by FxHash fingerprints, so
/// re-hashing them buys nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrehashedKey(u64);

impl std::hash::Hasher for PrehashedKey {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PrehashedKey only accepts u64 keys");
    }

    fn write_u64(&mut self, key: u64) {
        // One multiply to spread entropy into the low bits the hash table
        // indexes by (FxHash's final multiply leaves them weaker).
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type PrehashedMap<V> =
    std::collections::HashMap<u64, V, std::hash::BuildHasherDefault<PrehashedKey>>;

/// Id of a part a store has never interned: no stored tuple contains it.
const MISSING: u32 = u32::MAX;

/// Home position of `hash` in a power-of-two table of at least two slots.
fn home(hash: u64, slots: usize) -> usize {
    (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - slots.trailing_zeros())) as usize
}

/// FxHash of a slice's elements.
fn hash_part<T: Hash>(part: &[T]) -> u64 {
    let mut h = fxhash::FxHasher::default();
    for x in part {
        x.hash(&mut h);
    }
    h.finish()
}

/// Distinct fixed-width slices of `T`, each stored once and named by a
/// dense `u32` id in insertion order.
struct Interner<T> {
    /// Slice length, fixed by the first intern.
    width: usize,
    /// Slice `id` is `items[id * width..][..width]`.
    items: Vec<T>,
    len: u32,
    /// Open-addressed index of `id + 1` (`0` is empty), a power of two at
    /// most half full.
    index: Vec<u32>,
}

impl<T: Clone + Eq + Hash> Interner<T> {
    fn new() -> Self {
        Interner {
            width: 0,
            items: Vec::new(),
            len: 0,
            index: Vec::new(),
        }
    }

    fn get(&self, id: u32) -> &[T] {
        &self.items[id as usize * self.width..][..self.width]
    }

    /// `Ok(id)` of `part`, or `Err(empty index slot)` where it would go.
    fn find(&self, part: &[T], hash: u64) -> Result<u32, usize> {
        let wrap = self.index.len() - 1;
        let mut i = home(hash, self.index.len());
        loop {
            match self.index[i] {
                0 => return Err(i),
                e if self.get(e - 1) == part => return Ok(e - 1),
                _ => i = (i + 1) & wrap,
            }
        }
    }

    /// The id of `part`, or [`MISSING`].
    fn lookup(&self, part: &[T]) -> u32 {
        if self.len == 0 || part.len() != self.width {
            return MISSING;
        }
        self.find(part, hash_part(part)).unwrap_or(MISSING)
    }

    fn intern(&mut self, part: &[T]) -> u32 {
        if self.len == 0 {
            self.width = part.len();
            self.index = vec![0; 8];
        }
        assert_eq!(
            part.len(),
            self.width,
            "one visited-state store holds configurations of one shape"
        );
        let slot = match self.find(part, hash_part(part)) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = self.len;
        assert!(id < MISSING - 1, "intern table full");
        self.items.extend_from_slice(part);
        self.len += 1;
        self.index[slot] = id + 1;
        if self.len as usize * 2 > self.index.len() {
            let mut index = vec![0; self.index.len() * 2];
            let wrap = index.len() - 1;
            for id in 0..self.len {
                let mut i = home(hash_part(self.get(id)), index.len());
                while index[i] != 0 {
                    i = (i + 1) & wrap;
                }
                index[i] = id + 1;
            }
            self.index = index;
        }
        id
    }

    /// Heap bytes of the table itself (elements' own heap not included).
    fn bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<T>() + self.index.capacity() * 4
    }
}

/// The visited-state store behind [`VisitedSet`] and
/// [`crate::canon::CanonicalVisitedSet`].
///
/// Every object vector, input vector and process status is interned once
/// per store. A stored configuration is the fixed-stride `u32` tuple
/// (objects id, inputs id, one status id per process) in `rows`, which
/// holds them in fixed-size chunks. The slot
/// table indexes the tuples by the owning set's 64-bit key: each slot packs
/// a 32-bit tag of the key (high half) with the row number plus one (low
/// half; `0` is an empty slot), probed linearly from the tag's home at load
/// at most 3/4. A tag hit runs the owner's comparison against the stored
/// tuple, so membership stays exact whatever the key.
///
/// Insertion is one probe ([`StateTable::probe`], which also leaves the
/// probed configuration's ids in a buffer) followed, if the configuration
/// is absent, by one [`StateTable::fill`] with no other probe in between.
pub(crate) struct StateTable<P: Protocol> {
    objects: Interner<P::Value>,
    inputs: Interner<u64>,
    statuses: Interner<ProcStatus<P::State>>,
    rows: Vec<Vec<u32>>,
    /// Ids per tuple, fixed by the first fill.
    stride: usize,
    slots: Vec<u64>,
    len: usize,
    /// Configurations the first chunk of `rows` is reserved for on the
    /// first fill (the stride is known only then).
    expected: usize,
    /// The last probed configuration's ids, [`MISSING`] for a part never
    /// interned.
    ids: Vec<u32>,
    fallback_comparisons: usize,
}

/// Where an absent configuration goes.
pub(crate) enum Vacancy {
    /// The empty slot its key files under.
    Slot {
        /// Index into the slot table.
        slot: usize,
        /// The key it is filed under.
        key: u64,
    },
    /// One of its parts was never interned, so its id tuple — and an
    /// exact set's key — is known only once the parts are interned.
    Unkeyed,
}

/// Tuples per chunk of `rows`, as a power of two: growing the store never
/// copies its tuples, and over-allocates at most one chunk.
const ROW_CHUNK_SHIFT: u32 = 14;

/// Largest capacity hint a store pre-sizes for. Growing the slot table
/// moves 8-byte slots and never rehashes a configuration, so pre-sizing
/// further buys a large search nothing, while it costs each of the many
/// small searches (valency queries) the zeroing of a table it never fills.
const PRESIZE_LIMIT: usize = 1 << 10;

/// Tuple offset of the first process status id.
const STATUS_IDS: usize = 2;

/// The 32-bit slot tag of a key.
fn tag(key: u64) -> u32 {
    (key ^ (key >> 32)) as u32
}

impl<P: Protocol> StateTable<P> {
    /// An empty store whose slot table holds `expected` configurations
    /// (at most [`PRESIZE_LIMIT`]) without growing.
    pub(crate) fn with_capacity(expected: usize) -> Self {
        let expected = expected.clamp(4, PRESIZE_LIMIT);
        StateTable {
            objects: Interner::new(),
            inputs: Interner::new(),
            statuses: Interner::new(),
            rows: Vec::new(),
            stride: 0,
            slots: vec![0; (expected + expected / 3 + 1).next_power_of_two()],
            len: 0,
            expected,
            ids: Vec::new(),
            fallback_comparisons: 0,
        }
    }

    /// Fill `ids` with `config`'s part ids; whether every part is interned.
    pub(crate) fn lookup_into(&self, config: &Configuration<P>, ids: &mut Vec<u32>) -> bool {
        ids.clear();
        ids.push(self.objects.lookup(config.object_values()));
        ids.push(self.inputs.lookup(config.inputs()));
        ids.extend(
            config
                .statuses()
                .iter()
                .map(|s| self.statuses.lookup(std::slice::from_ref(s))),
        );
        !ids.contains(&MISSING)
    }

    /// Look `config`'s part ids up into the probe buffer; whether every
    /// part is interned.
    pub(crate) fn lookup(&mut self, config: &Configuration<P>) -> bool {
        let mut ids = std::mem::take(&mut self.ids);
        let found = self.lookup_into(config, &mut ids);
        self.ids = ids;
        found
    }

    /// The probe buffer: the last looked-up configuration's ids.
    pub(crate) fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Walk `key`'s probe sequence: `None` if a stored tuple under `key`
    /// satisfies `same`, else the empty slot where `key` is filed; and the
    /// number of tuples compared.
    pub(crate) fn find(
        &self,
        key: u64,
        mut same: impl FnMut(&[u32]) -> bool,
    ) -> (Option<usize>, usize) {
        let tag = tag(key);
        let wrap = self.slots.len() - 1;
        let stride = self.stride;
        let mut i = home(u64::from(tag), self.slots.len());
        let mut compared = 0;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return (Some(i), compared);
            }
            if (slot >> 32) as u32 == tag {
                compared += 1;
                let row = (slot as u32 - 1) as usize;
                let chunk = &self.rows[row >> ROW_CHUNK_SHIFT];
                let at = (row & ((1 << ROW_CHUNK_SHIFT) - 1)) * stride;
                if same(&chunk[at..][..stride]) {
                    return (None, compared);
                }
            }
            i = (i + 1) & wrap;
        }
    }

    /// [`StateTable::find`] for an insert: counts the tuples compared as
    /// fallback comparisons and returns the vacancy, if any. `same` also
    /// sees the store, to read stored parts through the intern tables.
    pub(crate) fn probe(
        &mut self,
        key: u64,
        mut same: impl FnMut(&Self, &[u32]) -> bool,
    ) -> Option<Vacancy> {
        let this = &*self;
        let (vacant, compared) = this.find(key, |row| same(this, row));
        self.fallback_comparisons += compared;
        vacant.map(|slot| Vacancy::Slot { slot, key })
    }

    /// Intern the parts of `config` the probe buffer marks missing; the
    /// buffer then holds its complete id tuple.
    pub(crate) fn intern_missing(&mut self, config: &Configuration<P>) {
        if self.ids[0] == MISSING {
            self.ids[0] = self.objects.intern(config.object_values());
        }
        if self.ids[1] == MISSING {
            self.ids[1] = self.inputs.intern(config.inputs());
        }
        for (id, status) in self.ids[STATUS_IDS..].iter_mut().zip(config.statuses()) {
            if *id == MISSING {
                *id = self.statuses.intern(std::slice::from_ref(status));
            }
        }
    }

    /// Store the probe buffer's (complete) tuple at the empty `slot` under
    /// `key`.
    pub(crate) fn fill(&mut self, slot: usize, key: u64) {
        debug_assert!(!self.ids.contains(&MISSING), "intern before filling");
        debug_assert_eq!(self.slots[slot], 0, "fill an empty slot");
        if self.len == 0 {
            self.stride = self.ids.len();
        }
        assert_eq!(
            self.ids.len(),
            self.stride,
            "one visited-state store holds configurations of one shape"
        );
        assert!(
            self.len < (u32::MAX - 1) as usize,
            "visited-state store full"
        );
        let chunk = self.len >> ROW_CHUNK_SHIFT;
        if chunk == self.rows.len() {
            let tuples = if chunk == 0 {
                self.expected
            } else {
                1 << ROW_CHUNK_SHIFT
            };
            self.rows.push(Vec::with_capacity(tuples * self.stride));
        }
        self.rows[chunk].extend_from_slice(&self.ids);
        self.len += 1;
        self.slots[slot] = u64::from(tag(key)) << 32 | self.len as u64;
        if self.len * 4 > self.slots.len() * 3 {
            let mut slots = vec![0u64; self.slots.len() * 2];
            let wrap = slots.len() - 1;
            for &s in self.slots.iter().filter(|&&s| s != 0) {
                let mut i = home(s >> 32, slots.len());
                while slots[i] != 0 {
                    i = (i + 1) & wrap;
                }
                slots[i] = s;
            }
            self.slots = slots;
        }
    }

    /// The status of process `pid` in a stored tuple.
    pub(crate) fn stored_status(&self, row: &[u32], pid: usize) -> &ProcStatus<P::State> {
        &self.statuses.get(row[STATUS_IDS + pid])[0]
    }

    /// The object values of a stored tuple.
    pub(crate) fn stored_objects(&self, row: &[u32]) -> &[P::Value] {
        self.objects.get(row[0])
    }

    /// Configurations stored.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Tuples compared on tag hits by inserting probes.
    pub(crate) fn fallback_comparisons(&self) -> usize {
        self.fallback_comparisons
    }

    /// Heap bytes held: slot table, tuples, intern tables and probe
    /// buffer (interned values' own heap, if any, not included).
    pub(crate) fn bytes(&self) -> usize {
        let rows: usize = self.rows.iter().map(Vec::capacity).sum();
        self.slots.capacity() * 8
            + (rows + self.ids.capacity()) * 4
            + self.rows.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.objects.bytes()
            + self.inputs.bytes()
            + self.statuses.bytes()
    }
}

impl<P: Protocol> std::fmt::Debug for StateTable<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateTable")
            .field("len", &self.len)
            .field("object_vectors", &self.objects.len)
            .field("statuses", &self.statuses.len)
            .field("bytes", &self.bytes())
            .field("fallback_comparisons", &self.fallback_comparisons)
            .finish()
    }
}

/// A set of visited configurations with exact membership.
///
/// Each configuration is stored as its id tuple in the compact store (see
/// the [module docs](self)), keyed by a hash of the tuple. Distinct
/// configurations sharing a key are told apart by comparing tuples — the
/// set is exact even under adversarial collisions (see
/// [`VisitedSet::with_fingerprint_mask`], which the tests use to force
/// every configuration under one key). Configurations that differ only in
/// their inputs are distinct entries, as [`Configuration`]'s equality has
/// it.
///
/// # Panics
///
/// Inserting configurations with different process or object counts into
/// one set panics: each set holds the configurations of one instance.
pub struct VisitedSet<P: Protocol> {
    table: StateTable<P>,
    mask: u64,
}

impl<P: Protocol> Default for VisitedSet<P> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<P: Protocol> VisitedSet<P> {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set pre-sized for roughly `expected` configurations, up to
    /// a fixed limit past which growing is as cheap as pre-sizing. Callers
    /// with a state budget pass a clamped fraction of it.
    pub fn with_capacity(expected: usize) -> Self {
        VisitedSet {
            table: StateTable::with_capacity(expected),
            mask: u64::MAX,
        }
    }

    /// An empty set whose keys are masked with `mask` before use — a
    /// diagnostic hook that makes collisions arbitrarily likely (mask `0`
    /// files every configuration under one key), so tests can prove the
    /// exact tuple comparison is correct.
    pub fn with_fingerprint_mask(mask: u64) -> Self {
        VisitedSet {
            mask,
            ..Self::default()
        }
    }

    /// The (masked) key of an id tuple.
    fn tuple_key(&self, ids: &[u32]) -> u64 {
        let mut h = fxhash::FxHasher::default();
        for &id in ids {
            h.write_u32(id);
        }
        h.finish() & self.mask
    }

    /// The (masked) fingerprint of `config` — the routing key by which the
    /// striped sharded set ([`crate::shard`]) picks a stripe before any
    /// stripe's intern tables are consulted.
    pub(crate) fn key_of(&self, config: &Configuration<P>) -> u64 {
        config.fingerprint() & self.mask
    }

    /// An empty set with this set's mask — the stripe factory for
    /// [`crate::shard`].
    pub(crate) fn stripe_clone(&self) -> Self {
        VisitedSet {
            table: StateTable::with_capacity(0),
            mask: self.mask,
        }
    }

    /// Insert `config`, returning `true` if it was not already present.
    pub fn insert(&mut self, config: &Configuration<P>) -> bool {
        match self.probe(config) {
            None => false,
            Some(vacancy) => {
                self.fill(vacancy, config);
                true
            }
        }
    }

    /// One probe: `None` if `config` is present, else where it goes.
    pub(crate) fn probe(&mut self, config: &Configuration<P>) -> Option<Vacancy> {
        if !self.table.lookup(config) {
            return Some(Vacancy::Unkeyed);
        }
        let key = self.tuple_key(self.table.ids());
        self.table.probe(key, |t, row| row == t.ids())
    }

    /// Store the configuration just probed absent.
    pub(crate) fn fill(&mut self, vacancy: Vacancy, config: &Configuration<P>) {
        self.table.intern_missing(config);
        let (slot, key) = match vacancy {
            Vacancy::Slot { slot, key } => (slot, key),
            Vacancy::Unkeyed => {
                // A tuple with a freshly interned part matches nothing.
                let key = self.tuple_key(self.table.ids());
                let (slot, _) = self.table.find(key, |_| false);
                (slot.expect("a never-matching probe ends at a vacancy"), key)
            }
        };
        self.table.fill(slot, key);
    }

    /// Whether `config` is already present.
    pub fn contains(&self, config: &Configuration<P>) -> bool {
        let mut ids = Vec::new();
        self.table.lookup_into(config, &mut ids)
            && self
                .table
                .find(self.tuple_key(&ids), |row| row == ids.as_slice())
                .0
                .is_none()
    }

    /// Number of distinct configurations inserted.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many stored tuples inserting probes have compared against —
    /// nonzero only when keys collided (or a duplicate was probed).
    pub fn fallback_comparisons(&self) -> usize {
        self.table.fallback_comparisons()
    }

    /// Heap bytes the set holds: slot table, id tuples and intern tables.
    pub fn bytes(&self) -> usize {
        self.table.bytes()
    }
}

impl<P: Protocol> std::fmt::Debug for VisitedSet<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VisitedSet")
            .field("table", &self.table)
            .field("mask", &self.mask)
            .finish()
    }
}

/// Index of a node in a [`ScheduleArena`]. The root (empty schedule) is
/// [`ScheduleArena::ROOT`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The raw index, for snapshot serialization (crate-internal).
    pub(crate) fn to_raw(self) -> u32 {
        self.0
    }

    /// Rebuild from a raw index, for snapshot deserialization
    /// (crate-internal; callers validate range against the arena).
    pub(crate) fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }
}

/// A parent-pointer tree of schedule extensions.
///
/// Each explored edge `parent --action--> child` records one arena node; the
/// schedule reaching a node is reconstructed by walking parent pointers,
/// paying `O(depth)` exactly once per *witness* instead of once per *edge*.
/// Actions are either normal steps or crash transitions
/// ([`crate::Action`]); crash edges are tagged in a high bit of the packed
/// pid, so the node stays 12 bytes.
///
/// # Example
///
/// ```
/// use swapcons_sim::search::ScheduleArena;
/// use swapcons_sim::{Action, ProcessId};
///
/// let mut arena = ScheduleArena::new();
/// let a = arena.child(ScheduleArena::ROOT, ProcessId(0));
/// let b = arena.child_action(a, Action::Crash(ProcessId(1)));
/// assert_eq!(arena.depth(b), 2);
/// assert_eq!(arena.schedule(b), vec![ProcessId(0), ProcessId(1)]);
/// assert_eq!(
///     arena.actions(b),
///     vec![Action::Step(ProcessId(0)), Action::Crash(ProcessId(1))],
/// );
/// assert_eq!(arena.schedule(ScheduleArena::ROOT), vec![]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ScheduleArena {
    /// `(parent, tagged pid, depth)` per node, packed to 12 bytes; depth is
    /// cached so the hot path (depth cutoff tests) never walks the chain.
    /// The pid's [`ScheduleArena::CRASH_BIT`] marks a crash edge.
    nodes: Vec<(NodeId, u32, u32)>,
}

impl ScheduleArena {
    /// The root node: the empty schedule.
    pub const ROOT: NodeId = NodeId(u32::MAX);

    /// High bit of the packed pid marking a crash edge.
    const CRASH_BIT: u32 = 1 << 31;

    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the step edge `parent --pid-->` and return the child's id —
    /// shorthand for [`ScheduleArena::child_action`] with a step action.
    ///
    /// # Panics
    ///
    /// Panics if the arena exceeds `u32::MAX - 1` nodes or `pid` exceeds
    /// `2^31 - 1` (far beyond any explorable instance).
    pub fn child(&mut self, parent: NodeId, pid: ProcessId) -> NodeId {
        self.child_action(parent, Action::Step(pid))
    }

    /// Record the edge `parent --action-->` and return the child's id.
    ///
    /// # Panics
    ///
    /// Panics if the arena exceeds `u32::MAX - 1` nodes or the pid exceeds
    /// `2^31 - 1` (far beyond any explorable instance).
    pub fn child_action(&mut self, parent: NodeId, action: Action) -> NodeId {
        let depth = self.depth(parent) as u32 + 1;
        let tagged = Self::encode_action(action);
        self.nodes.push((parent, tagged, depth));
        let id = u32::try_from(self.nodes.len() - 1).expect("arena fits u32");
        assert!(id != u32::MAX, "arena full");
        NodeId(id)
    }

    /// Schedule length at `node` (0 for the root).
    pub fn depth(&self, node: NodeId) -> usize {
        if node == Self::ROOT {
            0
        } else {
            self.nodes[node.0 as usize].2 as usize
        }
    }

    /// Encode an action into the packed-pid form of
    /// [`ScheduleArena::raw_nodes`] — exposed crate-internally so the
    /// sharded arenas ([`crate::shard`]) store edges in the exact format a
    /// drained sequential arena expects.
    pub(crate) fn encode_action(action: Action) -> u32 {
        let pid32 = u32::try_from(action.pid().index()).expect("process id fits u32");
        assert!(pid32 & Self::CRASH_BIT == 0, "process id fits 31 bits");
        if action.is_crash() {
            pid32 | Self::CRASH_BIT
        } else {
            pid32
        }
    }

    /// Inverse of [`ScheduleArena::encode_action`] (crate-internal).
    pub(crate) fn decode_action(tagged: u32) -> Action {
        Self::decode(tagged)
    }

    /// Decode one packed pid back into its action.
    fn decode(tagged: u32) -> Action {
        let pid = ProcessId((tagged & !Self::CRASH_BIT) as usize);
        if tagged & Self::CRASH_BIT != 0 {
            Action::Crash(pid)
        } else {
            Action::Step(pid)
        }
    }

    /// Materialize the schedule from the root to `node` as process ids —
    /// the cold path, called only when a witness must be reported. Crash
    /// edges contribute the crashing process's id; use
    /// [`ScheduleArena::actions`] when the step/crash distinction matters
    /// (it always does for replay of crash-injected searches).
    pub fn schedule(&self, node: NodeId) -> Vec<ProcessId> {
        self.actions(node).iter().map(|a| a.pid()).collect()
    }

    /// Materialize the action sequence from the root to `node` — like
    /// [`ScheduleArena::schedule`] but keeping crash transitions distinct,
    /// so the result replays exactly via
    /// [`crate::runner::replay_actions`].
    pub fn actions(&self, node: NodeId) -> Vec<Action> {
        let mut out = Vec::with_capacity(self.depth(node));
        let mut cur = node;
        while cur != Self::ROOT {
            let (parent, tagged, _) = self.nodes[cur.0 as usize];
            out.push(Self::decode(tagged));
            cur = parent;
        }
        out.reverse();
        out
    }

    /// The action labelling the edge into `node` (`None` for the root).
    pub fn action(&self, node: NodeId) -> Option<Action> {
        if node == Self::ROOT {
            None
        } else {
            Some(Self::decode(self.nodes[node.0 as usize].1))
        }
    }

    /// Number of recorded edges.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no edge has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The raw node table, for snapshot serialization (crate-internal).
    pub(crate) fn raw_nodes(&self) -> &[(NodeId, u32, u32)] {
        &self.nodes
    }

    /// Rebuild an arena from a raw node table, validating the parent-pointer
    /// and cached-depth invariants (crate-internal; snapshot decoding must
    /// never construct an arena whose accessors could panic or loop).
    pub(crate) fn from_raw_nodes(nodes: Vec<(NodeId, u32, u32)>) -> Result<Self, String> {
        for (i, &(parent, _, depth)) in nodes.iter().enumerate() {
            let parent_depth = if parent == Self::ROOT {
                0
            } else {
                // Parents must precede children: guarantees acyclicity.
                if parent.0 as usize >= i {
                    return Err(format!(
                        "arena node {i} has forward or self parent {}",
                        parent.0
                    ));
                }
                nodes[parent.0 as usize].2
            };
            if depth != parent_depth + 1 {
                return Err(format!(
                    "arena node {i} caches depth {depth}, parent implies {}",
                    parent_depth + 1
                ));
            }
        }
        Ok(ScheduleArena { nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;
    use crate::testing::TwoProcessSwapConsensus;

    fn init(inputs: &[u64]) -> Configuration<TwoProcessSwapConsensus> {
        Configuration::initial(&TwoProcessSwapConsensus, inputs).unwrap()
    }

    #[test]
    fn visited_set_dedups_equal_configurations() {
        let mut set = VisitedSet::new();
        let a = init(&[0, 1]);
        assert!(set.insert(&a));
        assert!(!set.insert(&a.clone()), "clone is the same configuration");
        let mut b = init(&[0, 1]);
        assert!(!set.insert(&b), "equal content, different storage");
        b.step(&TwoProcessSwapConsensus, ProcessId(0)).unwrap();
        assert!(set.insert(&b), "stepped configuration is new");
        assert_eq!(set.len(), 2);
        assert!(set.contains(&a) && set.contains(&b));
    }

    #[test]
    fn collision_guard_exact_fallback_is_exercised() {
        // Mask 0 forces EVERY configuration into one bucket: the set must
        // still distinguish distinct states, via full-equality comparisons.
        let mut set = VisitedSet::with_fingerprint_mask(0);
        let a = init(&[0, 1]);
        let mut b = init(&[0, 1]);
        b.step(&TwoProcessSwapConsensus, ProcessId(0)).unwrap();
        let mut c = b.clone();
        c.step(&TwoProcessSwapConsensus, ProcessId(1)).unwrap();
        assert!(set.insert(&a));
        assert!(set.insert(&b), "colliding fingerprints, distinct states");
        assert!(set.insert(&c));
        assert_eq!(set.len(), 3);
        assert!(!set.insert(&a) && !set.insert(&b) && !set.insert(&c));
        assert!(
            set.fallback_comparisons() > 0,
            "the exact-state fallback path must have been taken"
        );
        assert!(set.contains(&a) && set.contains(&b) && set.contains(&c));
    }

    #[test]
    fn unmasked_probes_rarely_fall_back() {
        // With real 64-bit fingerprints, distinct small states should not
        // collide; fallback comparisons come only from duplicate probes.
        let mut set = VisitedSet::new();
        let a = init(&[0, 1]);
        let mut b = a.clone();
        b.step(&TwoProcessSwapConsensus, ProcessId(0)).unwrap();
        assert!(set.insert(&a));
        assert!(set.insert(&b));
        assert_eq!(set.fallback_comparisons(), 0);
    }

    #[test]
    fn configurations_differing_only_in_inputs_are_distinct() {
        // With both processes crashed, the inputs are all that tells these
        // two apart: equal objects, equal statuses, equal fingerprints.
        let mut a = init(&[0, 1]);
        let mut b = init(&[1, 0]);
        for c in [&mut a, &mut b] {
            c.crash(ProcessId(0)).unwrap();
            c.crash(ProcessId(1)).unwrap();
        }
        assert_ne!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        for mask in [u64::MAX, 0] {
            // Intern both input vectors first, so `b` is probed against
            // `a`'s tuple rather than known new by its unseen inputs.
            let mut set = VisitedSet::with_fingerprint_mask(mask);
            assert!(set.insert(&init(&[1, 0])));
            assert!(set.insert(&a) && set.insert(&b), "mask {mask:#x}");
            assert!(!set.insert(&a) && !set.insert(&b), "mask {mask:#x}");
            assert_eq!(set.len(), 3);
        }
    }

    #[test]
    fn store_bytes_count_tuples_not_configurations() {
        // Every configuration of the two-process space, over and over: the
        // parts are interned once, so the store grows by one tuple (and
        // its slot) per new configuration and not at all on duplicates.
        let p = &TwoProcessSwapConsensus;
        let mut set = VisitedSet::new();
        let empty = set.bytes();
        let mut frontier = vec![init(&[0, 1]), init(&[1, 0])];
        while let Some(c) = frontier.pop() {
            if set.insert(&c) {
                for pid in c.running() {
                    let mut child = c.clone();
                    child.step(p, pid).unwrap();
                    frontier.push(child);
                }
            }
        }
        let full = set.bytes();
        assert!(full > empty);
        assert!(!set.insert(&init(&[0, 1])));
        assert_eq!(set.bytes(), full, "a duplicate allocates nothing");
    }

    #[test]
    fn arena_reconstructs_schedules() {
        let mut arena = ScheduleArena::new();
        assert!(arena.is_empty());
        let a = arena.child(ScheduleArena::ROOT, ProcessId(1));
        let b = arena.child(a, ProcessId(0));
        let c = arena.child(a, ProcessId(2)); // sibling branch
        assert_eq!(arena.depth(ScheduleArena::ROOT), 0);
        assert_eq!(arena.depth(b), 2);
        assert_eq!(arena.schedule(b), vec![ProcessId(1), ProcessId(0)]);
        assert_eq!(arena.schedule(c), vec![ProcessId(1), ProcessId(2)]);
        assert_eq!(arena.len(), 3);
    }

    #[test]
    fn arena_round_trips_crash_edges() {
        let mut arena = ScheduleArena::new();
        let a = arena.child_action(ScheduleArena::ROOT, Action::Crash(ProcessId(2)));
        let b = arena.child(a, ProcessId(0));
        assert_eq!(arena.action(a), Some(Action::Crash(ProcessId(2))));
        assert_eq!(arena.action(b), Some(Action::Step(ProcessId(0))));
        assert_eq!(arena.action(ScheduleArena::ROOT), None);
        assert_eq!(
            arena.actions(b),
            vec![Action::Crash(ProcessId(2)), Action::Step(ProcessId(0))]
        );
        // The pid projection keeps crash entries (as bare pids).
        assert_eq!(arena.schedule(b), vec![ProcessId(2), ProcessId(0)]);
        assert_eq!(arena.depth(b), 2);
    }

    #[test]
    fn arena_raw_round_trip_validates() {
        let mut arena = ScheduleArena::new();
        let a = arena.child(ScheduleArena::ROOT, ProcessId(0));
        let _ = arena.child_action(a, Action::Crash(ProcessId(1)));
        let rebuilt = ScheduleArena::from_raw_nodes(arena.raw_nodes().to_vec()).unwrap();
        assert_eq!(rebuilt.len(), 2);
        assert_eq!(rebuilt.actions(NodeId(1)), arena.actions(NodeId(1)));
        // Forward parent pointers and inconsistent depths are rejected.
        assert!(ScheduleArena::from_raw_nodes(vec![(NodeId(0), 0, 1)]).is_err());
        assert!(ScheduleArena::from_raw_nodes(vec![(NodeId(5), 0, 1)]).is_err());
        assert!(ScheduleArena::from_raw_nodes(vec![(ScheduleArena::ROOT, 0, 7)]).is_err());
    }
}
