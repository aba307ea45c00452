//! Lap counters: the racing state of Algorithm 1.
//!
//! Every process keeps a local lap counter `U[0..m-1]` recording the highest
//! lap it has observed for each input value; the shared swap objects each
//! hold a lap counter plus the identifier of the process that last swapped
//! (`⟨U, p⟩`). The correctness proofs are phrased in terms of the
//! **domination** partial order (`V ⪯ V'` iff `V[j] ≤ V'[j]` for all `j`,
//! Section 3), which [`LapVec`] implements together with the component-wise
//! max merge of lines 11–12 and the leader selection of lines 14–16.

use std::fmt;

use swapcons_sim::{ProcessId, SimValue};

/// Components held inline (no heap allocation) — covers every realistic
/// race: Algorithm 1 instances with `m ≤ 8` input values.
const LAP_INLINE: usize = 8;

/// Storage behind a [`LapVec`]: inline array for `m ≤ 8`, heap vector
/// beyond. The representation is canonical — a given length always uses the
/// same variant — so equality and hashing go through the slice view. (A
/// smaller inline variant for `m ≤ 4` would buy nothing: the enum is sized
/// by its largest variant.)
#[derive(Clone)]
enum LapStore {
    /// `m ≤ LAP_INLINE` components, stored inline.
    Inline {
        /// Number of live components.
        len: u8,
        /// Component storage; `buf[len..]` is unused and always zero.
        buf: [u64; LAP_INLINE],
    },
    /// `m > LAP_INLINE` components, heap-allocated.
    Heap(Vec<u64>),
}

/// A lap counter: one lap count per input value in `{0, …, m-1}`.
///
/// Every step of Algorithm 1 clones one of these into a swap operation and
/// merges one out of the response, so counters with `m ≤ 8` live entirely
/// inline: cloning is a memcpy and [`LapVec::merge_max`] allocates nothing.
///
/// # Example
///
/// ```
/// use swapcons_core::lap::LapVec;
///
/// let mut u = LapVec::zeros(3);
/// u.set(1, 1);                 // input 1 starts on lap 1 (line 3)
/// assert_eq!(u.leader(), (1, 1));
/// assert!(!u.leads_by(1, 2));  // not yet 2 laps ahead
/// u.increment(1);
/// u.increment(1);
/// assert!(u.leads_by(1, 2));   // line 16's decision condition
/// ```
#[derive(Clone)]
pub struct LapVec {
    laps: LapStore,
}

impl PartialEq for LapVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for LapVec {}

impl std::hash::Hash for LapVec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash the slice view (identical to the old `Vec<u64>` hashing), so
        // the representation split is invisible to hashed collections.
        self.as_slice().hash(state);
    }
}

impl LapVec {
    /// The all-zero lap counter of length `m` (line 2 of Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`; a race needs at least one value.
    pub fn zeros(m: usize) -> Self {
        assert!(m > 0, "lap counters need at least one component");
        LapVec {
            laps: if m <= LAP_INLINE {
                LapStore::Inline {
                    len: m as u8,
                    buf: [0; LAP_INLINE],
                }
            } else {
                LapStore::Heap(vec![0; m])
            },
        }
    }

    /// A lap counter holding the given components.
    ///
    /// # Panics
    ///
    /// Panics if `laps` is empty.
    pub fn from_slice(laps: &[u64]) -> Self {
        let mut u = LapVec::zeros(laps.len());
        u.as_mut_slice().copy_from_slice(laps);
        u
    }

    /// Whether the components live inline (no heap allocation) — true
    /// exactly when `m ≤ 8`. Exercised by the representation tests.
    #[cfg(test)]
    fn is_inline(&self) -> bool {
        !matches!(self.laps, LapStore::Heap(_))
    }

    fn as_mut_slice(&mut self) -> &mut [u64] {
        match &mut self.laps {
            LapStore::Inline { len, buf } => &mut buf[..*len as usize],
            LapStore::Heap(v) => v,
        }
    }

    /// The initial local lap counter of a process with input `v`: all zeros
    /// except `U[v] = 1` (lines 2–3).
    ///
    /// # Panics
    ///
    /// Panics if `v >= m`.
    pub fn initial(m: usize, v: u64) -> Self {
        let mut u = LapVec::zeros(m);
        u.set(v as usize, 1);
        u
    }

    /// Number of components (`m`).
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the counter has zero components (never true for constructed
    /// counters; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The lap count of value `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn get(&self, j: usize) -> u64 {
        self.as_slice()[j]
    }

    /// Set the lap count of value `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn set(&mut self, j: usize, laps: u64) {
        self.as_mut_slice()[j] = laps;
    }

    /// Increment the lap count of value `j` (line 20).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn increment(&mut self, j: usize) {
        self.as_mut_slice()[j] += 1;
    }

    /// Domination: `self ⪯ other` iff every component of `self` is at most
    /// the corresponding component of `other` (Section 3's `V ⪯ V'`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ (counters from different races).
    pub fn dominated_by(&self, other: &LapVec) -> bool {
        assert_eq!(self.len(), other.len(), "lap counters of different m");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .all(|(a, b)| a <= b)
    }

    /// Merge: set every component to the max of the two counters
    /// (lines 11–12). Allocation-free: the merge writes through the slice
    /// view whatever the representation.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn merge_max(&mut self, other: &LapVec) {
        assert_eq!(self.len(), other.len(), "lap counters of different m");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a = (*a).max(*b);
        }
    }

    /// The leading value and its lap: `c = max(U)`, `v = min{ j : U[j] = c }`
    /// (lines 14–15; ties broken toward the smallest value).
    pub fn leader(&self) -> (u64, u64) {
        let laps = self.as_slice();
        let c = *laps.iter().max().expect("nonempty");
        let v = laps.iter().position(|&x| x == c).expect("max exists") as u64;
        (v, c)
    }

    /// Line 16's decision test: does value `v` lead every other value by at
    /// least `margin` laps (`U[v] ≥ U[j] + margin` for all `j ≠ v`)?
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn leads_by(&self, v: usize, margin: u64) -> bool {
        let laps = self.as_slice();
        let lead = laps[v];
        laps.iter()
            .enumerate()
            .all(|(j, &x)| j == v || lead >= x.saturating_add(margin))
    }

    /// The raw components.
    pub fn as_slice(&self) -> &[u64] {
        match &self.laps {
            LapStore::Inline { len, buf } => &buf[..*len as usize],
            LapStore::Heap(v) => v,
        }
    }
}

impl fmt::Display for LapVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Debug for LapVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// The value stored in each of Algorithm 1's swap objects: a lap counter
/// plus the identifier of the last swapper — the paper's `⟨U, p⟩`, with
/// `id = None` playing the role of the initial `⊥`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SwapEntry {
    /// The lap-counter field (an array of `m` values, all initially 0).
    pub laps: LapVec,
    /// The identifier field (initially `⊥` = `None`).
    pub id: Option<ProcessId>,
}

impl SwapEntry {
    /// The initial object value `⟨[0,…,0], ⊥⟩`.
    pub fn bot(m: usize) -> Self {
        SwapEntry {
            laps: LapVec::zeros(m),
            id: None,
        }
    }

    /// The entry `⟨laps, p⟩` a process swaps in (line 7).
    pub fn of(laps: LapVec, pid: ProcessId) -> Self {
        SwapEntry {
            laps,
            id: Some(pid),
        }
    }
}

impl SimValue for SwapEntry {}

impl fmt::Debug for SwapEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.id {
            Some(p) => write!(f, "⟨{},{p}⟩", self.laps),
            None => write!(f, "⟨{},⊥⟩", self.laps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_initial() {
        let z = LapVec::zeros(3);
        assert_eq!(z.as_slice(), &[0, 0, 0]);
        let u = LapVec::initial(3, 2);
        assert_eq!(u.as_slice(), &[0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn zero_length_rejected() {
        let _ = LapVec::zeros(0);
    }

    #[test]
    fn small_counters_live_inline_large_spill() {
        for m in 1..=8 {
            assert!(LapVec::zeros(m).is_inline(), "m={m} must be heap-free");
        }
        assert!(!LapVec::zeros(9).is_inline());
        assert!(!LapVec::zeros(32).is_inline());
    }

    #[test]
    fn representations_agree_across_the_boundary() {
        // The same logical operations on an inline (m=8) and a heap (m=9)
        // counter behave identically; equality and hashing see only the
        // slice view.
        for m in [8usize, 9] {
            let mut u = LapVec::initial(m, 2);
            let mut w = LapVec::zeros(m);
            w.set(m - 1, 7);
            u.merge_max(&w);
            assert_eq!(u.get(2), 1);
            assert_eq!(u.get(m - 1), 7);
            assert_eq!(u.leader(), ((m - 1) as u64, 7));
            assert!(u.leads_by(m - 1, 2));
            assert_eq!(u, LapVec::from_slice(u.as_slice()), "round-trips");
        }
    }

    #[test]
    fn hash_matches_slice_hash() {
        // The manual Hash impl must keep hashing the slice view, or every
        // hashed collection of configurations would silently change.
        fn h<T: std::hash::Hash>(t: &T) -> u64 {
            use std::hash::Hasher;
            let mut s = std::collections::hash_map::DefaultHasher::new();
            t.hash(&mut s);
            s.finish()
        }
        let u = LapVec::from_slice(&[3, 1, 4]);
        assert_eq!(h(&u), h(&vec![3u64, 1, 4]), "same as Vec<u64> hashing");
        assert_eq!(h(&u), h(&u.clone()));
    }

    #[test]
    fn from_slice_copies_components() {
        let u = LapVec::from_slice(&[5, 0, 2]);
        assert_eq!(u.as_slice(), &[5, 0, 2]);
        let big: Vec<u64> = (0..12).collect();
        assert_eq!(LapVec::from_slice(&big).as_slice(), big.as_slice());
    }

    #[test]
    fn domination_is_a_partial_order() {
        let a = LapVec::from_slice(&[1, 2, 3]);
        let b = LapVec::from_slice(&[2, 2, 4]);
        let c = LapVec::from_slice(&[3, 1, 5]);
        // Reflexive.
        assert!(a.dominated_by(&a));
        // a ⪯ b but not b ⪯ a (antisymmetry on distinct elements).
        assert!(a.dominated_by(&b));
        assert!(!b.dominated_by(&a));
        // Incomparable pair.
        assert!(!b.dominated_by(&c));
        assert!(!c.dominated_by(&b));
    }

    #[test]
    fn merge_max_is_least_upper_bound() {
        let mut a = LapVec::from_slice(&[1, 5, 0]);
        let b = LapVec::from_slice(&[3, 2, 0]);
        a.merge_max(&b);
        assert_eq!(a.as_slice(), &[3, 5, 0]);
        // The merge dominates both operands.
        assert!(b.dominated_by(&a));
        assert!(LapVec::from_slice(&[1, 5, 0]).dominated_by(&a));
    }

    #[test]
    fn leader_breaks_ties_to_smallest_value() {
        let u = LapVec::from_slice(&[4, 7, 7]);
        assert_eq!(
            u.leader(),
            (1, 7),
            "value 1 beats value 2 on ties (line 15)"
        );
        let z = LapVec::zeros(2);
        assert_eq!(z.leader(), (0, 0));
    }

    #[test]
    fn leads_by_margin() {
        let u = LapVec::from_slice(&[5, 3, 2]);
        assert!(u.leads_by(0, 2));
        assert!(!u.leads_by(0, 3));
        assert!(!u.leads_by(1, 1), "value 1 is behind value 0");
        // Single-value race trivially leads.
        assert!(LapVec::zeros(1).leads_by(0, 2));
    }

    #[test]
    fn observation3_local_counters_only_grow() {
        // A process only modifies U via merge_max and increment; both are
        // monotone w.r.t. domination (Observation 3).
        let mut u = LapVec::initial(3, 0);
        let before = u.clone();
        u.merge_max(&LapVec::from_slice(&[0, 4, 1]));
        assert!(before.dominated_by(&u));
        let before = u.clone();
        u.increment(1);
        assert!(before.dominated_by(&u));
    }

    #[test]
    fn entry_initial_is_bot() {
        let e = SwapEntry::bot(2);
        assert_eq!(e.id, None);
        assert_eq!(e.laps, LapVec::zeros(2));
        assert_eq!(format!("{e:?}"), "⟨[0,0],⊥⟩");
    }

    #[test]
    fn entry_of_carries_identity() {
        let e = SwapEntry::of(LapVec::initial(2, 1), ProcessId(3));
        assert_eq!(e.id, Some(ProcessId(3)));
        assert_eq!(format!("{e:?}"), "⟨[0,1],p3⟩");
    }

    #[test]
    #[should_panic(expected = "different m")]
    fn mixing_lengths_panics() {
        let a = LapVec::zeros(2);
        let b = LapVec::zeros(3);
        let _ = a.dominated_by(&b);
    }
}
