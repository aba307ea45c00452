//! The operation/response alphabet of shared objects.
//!
//! The alphabet is layered: [`HistorylessOp`] is the machine-checked
//! historyless fragment (read/write/swap — exactly the operations the
//! paper's Table 1 space accounting is stated over), and [`ObjectOp`] is
//! the full hierarchy that additionally admits the read-modify-write kinds
//! needed by derived-object constructions (test-and-set, max-register
//! write/read, after Aspnes's one-bit-swap-from-TAS-and-max-register).
//! Every historyless operation embeds into the hierarchy via `From`, and
//! [`ObjectOp::as_historyless`] recovers the fragment, so space-accounting
//! code can statically refuse non-historyless operations.

use std::fmt;

/// An operation on a historyless object.
///
/// Following Section 2 of the paper, an operation is *trivial* if it can
/// never modify the value of the object ([`HistorylessOp::Read`]) and
/// *nontrivial* otherwise ([`HistorylessOp::Write`], [`HistorylessOp::Swap`]).
/// A historyless object's value is fully determined by the last nontrivial
/// operation applied to it, which is why both `Write(v)` and `Swap(v)` map the
/// object to value `v` regardless of its prior state.
///
/// The type parameter `V` is the object's value type. Protocols built on
/// integer-valued objects typically use `u64` so that bounded domains
/// ([`crate::Domain::Bounded`]) can be enforced.
///
/// # Example
///
/// ```
/// use swapcons_objects::HistorylessOp;
///
/// assert!(HistorylessOp::<u64>::Read.is_trivial());
/// assert!(!HistorylessOp::Swap(3u64).is_trivial());
/// assert_eq!(HistorylessOp::Write(9u64).next_value(&4), Some(9));
/// assert_eq!(HistorylessOp::<u64>::Read.next_value(&4), None);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum HistorylessOp<V> {
    /// Trivial operation: return the current value, leave it unchanged.
    Read,
    /// Nontrivial operation: set the value to the payload. The response is an
    /// acknowledgement carrying no information about the previous value.
    Write(V),
    /// Nontrivial operation: set the value to the payload and return the
    /// previous value atomically.
    Swap(V),
}

impl<V> HistorylessOp<V> {
    /// Returns `true` when the operation can never modify the object.
    pub fn is_trivial(&self) -> bool {
        matches!(self, HistorylessOp::Read)
    }

    /// Returns `true` when the operation always sets the object's value.
    pub fn is_nontrivial(&self) -> bool {
        !self.is_trivial()
    }

    /// The value the object holds after this operation is applied, or `None`
    /// if the operation is trivial (value unchanged).
    pub fn next_value(&self, _current: &V) -> Option<V>
    where
        V: Clone,
    {
        match self {
            HistorylessOp::Read => None,
            HistorylessOp::Write(v) | HistorylessOp::Swap(v) => Some(v.clone()),
        }
    }

    /// The response returned to the caller when the operation is applied to
    /// an object currently holding `current`.
    pub fn response(&self, current: &V) -> Response<V>
    where
        V: Clone,
    {
        match self {
            HistorylessOp::Read | HistorylessOp::Swap(_) => Response::Value(current.clone()),
            HistorylessOp::Write(_) => Response::Ack,
        }
    }

    /// The [`OpKind`] discriminant of this operation, independent of payload.
    pub fn kind(&self) -> OpKind {
        match self {
            HistorylessOp::Read => OpKind::Read,
            HistorylessOp::Write(_) => OpKind::Write,
            HistorylessOp::Swap(_) => OpKind::Swap,
        }
    }

    /// Borrow the payload of a nontrivial operation.
    pub fn payload(&self) -> Option<&V> {
        match self {
            HistorylessOp::Read => None,
            HistorylessOp::Write(v) | HistorylessOp::Swap(v) => Some(v),
        }
    }

    /// Consume the operation, yielding the payload of a nontrivial
    /// operation — the clone-free path for callers that apply the operation
    /// and do not keep it.
    pub fn into_payload(self) -> Option<V> {
        match self {
            HistorylessOp::Read => None,
            HistorylessOp::Write(v) | HistorylessOp::Swap(v) => Some(v),
        }
    }

    /// Map the payload type, preserving the operation kind.
    pub fn map<U>(self, f: impl FnOnce(V) -> U) -> HistorylessOp<U> {
        match self {
            HistorylessOp::Read => HistorylessOp::Read,
            HistorylessOp::Write(v) => HistorylessOp::Write(f(v)),
            HistorylessOp::Swap(v) => HistorylessOp::Swap(f(v)),
        }
    }
}

impl<V: fmt::Debug> fmt::Debug for HistorylessOp<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistorylessOp::Read => write!(f, "Read"),
            HistorylessOp::Write(v) => write!(f, "Write({v:?})"),
            HistorylessOp::Swap(v) => write!(f, "Swap({v:?})"),
        }
    }
}

/// An operation in the full object hierarchy.
///
/// [`ObjectOp::Historyless`] embeds the historyless fragment unchanged; the
/// remaining variants are the read-modify-write kinds used by derived-object
/// constructions:
///
/// * [`ObjectOp::TestAndSet`] installs its payload iff the object currently
///   holds the domain point `0`, and responds [`Response::Won`] with whether
///   it did — the one-shot test-and-set of Aspnes's construction.
/// * [`ObjectOp::MaxWrite`] installs its payload iff the payload's domain
///   point strictly exceeds the current value's, and responds
///   [`Response::Ack`] — a write to a max register.
/// * [`ObjectOp::MaxRead`] is trivial and returns the current value — a read
///   of a max register.
///
/// Unlike the historyless fragment, `MaxWrite`'s effect *depends on the
/// current value*, which is exactly why a max register falls outside the
/// paper's Table-1 classes and why the sub-enum split is machine-checked:
/// [`ObjectOp::as_historyless`] returns `None` for every RMW kind.
///
/// # Example
///
/// ```
/// use swapcons_objects::{HistorylessOp, ObjectOp, OpKind};
///
/// let op: ObjectOp<u64> = HistorylessOp::Swap(3).into();
/// assert_eq!(op.kind(), OpKind::Swap);
/// assert!(op.as_historyless().is_some());
/// assert!(ObjectOp::MaxWrite(5u64).as_historyless().is_none());
/// assert!(ObjectOp::<u64>::MaxRead.is_trivial());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum ObjectOp<V> {
    /// An operation from the historyless fragment (read / write / swap).
    Historyless(HistorylessOp<V>),
    /// Install the payload iff the current value sits at domain point `0`;
    /// respond with whether the installation happened ("won").
    TestAndSet(V),
    /// Install the payload iff its domain point strictly exceeds the current
    /// value's; respond with an uninformative acknowledgement.
    MaxWrite(V),
    /// Trivial operation: return the current value of a max register.
    MaxRead,
}

impl<V> From<HistorylessOp<V>> for ObjectOp<V> {
    fn from(op: HistorylessOp<V>) -> Self {
        ObjectOp::Historyless(op)
    }
}

impl<V> ObjectOp<V> {
    /// Shorthand for a historyless read.
    pub fn read() -> Self {
        ObjectOp::Historyless(HistorylessOp::Read)
    }

    /// Shorthand for a historyless write.
    pub fn write(v: V) -> Self {
        ObjectOp::Historyless(HistorylessOp::Write(v))
    }

    /// Shorthand for a historyless swap.
    pub fn swap(v: V) -> Self {
        ObjectOp::Historyless(HistorylessOp::Swap(v))
    }

    /// The historyless fragment of this operation, if it belongs to it.
    ///
    /// This is the machine-checked boundary of Table-1 space accounting:
    /// every RMW kind returns `None` here, so accounting code that insists
    /// on `as_historyless().is_some()` can never silently count a derived
    /// base object's max register as historyless.
    pub fn as_historyless(&self) -> Option<&HistorylessOp<V>> {
        match self {
            ObjectOp::Historyless(op) => Some(op),
            _ => None,
        }
    }

    /// Consume the operation, yielding the historyless fragment if any.
    pub fn into_historyless(self) -> Option<HistorylessOp<V>> {
        match self {
            ObjectOp::Historyless(op) => Some(op),
            _ => None,
        }
    }

    /// Returns `true` when the operation can never modify the object.
    pub fn is_trivial(&self) -> bool {
        self.kind().is_trivial()
    }

    /// Returns `true` when the operation may modify the object.
    pub fn is_nontrivial(&self) -> bool {
        !self.is_trivial()
    }

    /// The [`OpKind`] discriminant of this operation, independent of payload.
    pub fn kind(&self) -> OpKind {
        match self {
            ObjectOp::Historyless(op) => op.kind(),
            ObjectOp::TestAndSet(_) => OpKind::TestAndSet,
            ObjectOp::MaxWrite(_) => OpKind::MaxWrite,
            ObjectOp::MaxRead => OpKind::MaxRead,
        }
    }

    /// Borrow the payload the operation carries, if any.
    pub fn payload(&self) -> Option<&V> {
        match self {
            ObjectOp::Historyless(op) => op.payload(),
            ObjectOp::TestAndSet(v) | ObjectOp::MaxWrite(v) => Some(v),
            ObjectOp::MaxRead => None,
        }
    }

    /// Consume the operation, yielding its payload if any.
    pub fn into_payload(self) -> Option<V> {
        match self {
            ObjectOp::Historyless(op) => op.into_payload(),
            ObjectOp::TestAndSet(v) | ObjectOp::MaxWrite(v) => Some(v),
            ObjectOp::MaxRead => None,
        }
    }

    /// Map the payload type, preserving the operation kind.
    pub fn map<U>(self, f: impl FnOnce(V) -> U) -> ObjectOp<U> {
        match self {
            ObjectOp::Historyless(op) => ObjectOp::Historyless(op.map(f)),
            ObjectOp::TestAndSet(v) => ObjectOp::TestAndSet(f(v)),
            ObjectOp::MaxWrite(v) => ObjectOp::MaxWrite(f(v)),
            ObjectOp::MaxRead => ObjectOp::MaxRead,
        }
    }
}

impl<V: fmt::Debug> fmt::Debug for ObjectOp<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectOp::Historyless(op) => op.fmt(f),
            ObjectOp::TestAndSet(v) => write!(f, "TestAndSet({v:?})"),
            ObjectOp::MaxWrite(v) => write!(f, "MaxWrite({v:?})"),
            ObjectOp::MaxRead => write!(f, "MaxRead"),
        }
    }
}

/// The discriminant of an [`ObjectOp`], used for capability checks in
/// [`crate::ObjectSchema::permits_kind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A trivial read.
    Read,
    /// A blind write (nontrivial, uninformative response).
    Write,
    /// An atomic swap (nontrivial, returns the previous value).
    Swap,
    /// A one-shot test-and-set (nontrivial, returns whether it won).
    TestAndSet,
    /// A max-register write (nontrivial, uninformative response).
    MaxWrite,
    /// A max-register read (trivial, returns the current value).
    MaxRead,
}

impl OpKind {
    /// Whether operations of this kind are trivial.
    pub fn is_trivial(self) -> bool {
        matches!(self, OpKind::Read | OpKind::MaxRead)
    }

    /// Whether this kind belongs to the historyless fragment — the
    /// read/write/swap alphabet the paper's Table 1 is stated over. A
    /// `MaxWrite` is the canonical counterexample: the value it leaves
    /// behind depends on the value it found.
    pub fn is_historyless(self) -> bool {
        matches!(self, OpKind::Read | OpKind::Write | OpKind::Swap)
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Swap => "swap",
            OpKind::TestAndSet => "test-and-set",
            OpKind::MaxWrite => "max-write",
            OpKind::MaxRead => "max-read",
        };
        f.write_str(s)
    }
}

/// The response to an [`ObjectOp`].
///
/// `Read`, `Swap`, and `MaxRead` return the (previous) value of the object;
/// `Write` and `MaxWrite` return an uninformative acknowledgement; a
/// `TestAndSet` returns only whether it won. Keeping the acknowledgement as a
/// distinct variant (rather than echoing the written value) makes it
/// impossible for a protocol state machine to smuggle information out of a
/// write, which matters for the covering arguments in the paper: a block
/// *write* hides a preceding execution from the writers, while a block *swap*
/// does not (Section 2). Likewise a `TestAndSet` learns one bit, never the
/// displaced value.
///
/// Construct responses with the typed constructors — one per [`OpKind`] —
/// rather than the raw variants, so that a simulator applying an operation
/// of kind `k` visibly produces the response shape contracted for `k`:
/// [`Response::to_write`], [`Response::to_read`], [`Response::to_swap`],
/// [`Response::to_test_and_set`], [`Response::to_max_write`],
/// [`Response::to_max_read`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Response<V> {
    /// Acknowledgement of a write or max-write; carries no information.
    Ack,
    /// The value observed by a read/max-read or returned by a swap.
    Value(V),
    /// Whether a test-and-set won (found the object at domain point `0`).
    Won(bool),
}

impl<V> Response<V> {
    /// The response to a [`OpKind::Write`]: an acknowledgement.
    pub fn to_write() -> Self {
        Response::Ack
    }

    /// The response to a [`OpKind::Read`]: the value observed.
    pub fn to_read(observed: V) -> Self {
        Response::Value(observed)
    }

    /// The response to a [`OpKind::Swap`]: the value displaced.
    pub fn to_swap(displaced: V) -> Self {
        Response::Value(displaced)
    }

    /// The response to a [`OpKind::TestAndSet`]: whether it won.
    pub fn to_test_and_set(won: bool) -> Self {
        Response::Won(won)
    }

    /// The response to a [`OpKind::MaxWrite`]: an acknowledgement,
    /// regardless of whether the write raised the register.
    pub fn to_max_write() -> Self {
        Response::Ack
    }

    /// The response to a [`OpKind::MaxRead`]: the current value.
    pub fn to_max_read(current: V) -> Self {
        Response::Value(current)
    }

    /// Borrow the payload of a value-bearing response.
    pub fn value(&self) -> Option<&V> {
        match self {
            Response::Value(v) => Some(v),
            Response::Ack | Response::Won(_) => None,
        }
    }

    /// Consume the response, yielding the payload of a value-bearing
    /// response.
    pub fn into_value(self) -> Option<V> {
        match self {
            Response::Value(v) => Some(v),
            Response::Ack | Response::Won(_) => None,
        }
    }

    /// The verdict of a test-and-set response, if this is one.
    pub fn won(&self) -> Option<bool> {
        match self {
            Response::Won(w) => Some(*w),
            Response::Ack | Response::Value(_) => None,
        }
    }

    /// Consume the response, yielding the payload.
    ///
    /// # Panics
    ///
    /// Panics if the response carries no value. Intended for protocol code
    /// that has just issued a `Read`, `Swap`, or `MaxRead` and is therefore
    /// entitled to a value.
    pub fn expect_value(self, msg: &str) -> V {
        match self {
            Response::Value(v) => v,
            Response::Ack => panic!("expected value response, got Ack: {msg}"),
            Response::Won(_) => panic!("expected value response, got Won: {msg}"),
        }
    }

    /// Consume the response, yielding the test-and-set verdict.
    ///
    /// # Panics
    ///
    /// Panics if the response is not [`Response::Won`]. Intended for
    /// protocol code that has just issued a `TestAndSet`.
    pub fn expect_won(self, msg: &str) -> bool {
        match self {
            Response::Won(w) => w,
            Response::Ack => panic!("expected won response, got Ack: {msg}"),
            Response::Value(_) => panic!("expected won response, got Value: {msg}"),
        }
    }
}

impl<V: fmt::Debug> fmt::Debug for Response<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Ack => write!(f, "Ack"),
            Response::Value(v) => write!(f, "Value({v:?})"),
            Response::Won(w) => write!(f, "Won({w})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_is_trivial_and_preserves_value() {
        let op: HistorylessOp<u64> = HistorylessOp::Read;
        assert!(op.is_trivial());
        assert!(!op.is_nontrivial());
        assert_eq!(op.next_value(&42), None);
        assert_eq!(op.response(&42), Response::Value(42));
    }

    #[test]
    fn write_is_nontrivial_with_ack_response() {
        let op = HistorylessOp::Write(7u64);
        assert!(op.is_nontrivial());
        assert_eq!(op.next_value(&42), Some(7));
        assert_eq!(op.response(&42), Response::Ack);
    }

    #[test]
    fn swap_sets_value_and_returns_previous() {
        let op = HistorylessOp::Swap(7u64);
        assert!(op.is_nontrivial());
        assert_eq!(op.next_value(&42), Some(7));
        assert_eq!(op.response(&42), Response::Value(42));
    }

    #[test]
    fn historyless_property_next_value_ignores_current() {
        // The defining property of a historyless object: the value after a
        // nontrivial op does not depend on the value before.
        let op = HistorylessOp::Swap(5u64);
        for current in 0..100u64 {
            assert_eq!(op.next_value(&current), Some(5));
        }
        let op = HistorylessOp::Write(9u64);
        for current in 0..100u64 {
            assert_eq!(op.next_value(&current), Some(9));
        }
    }

    #[test]
    fn kind_discriminants() {
        assert_eq!(HistorylessOp::<u64>::Read.kind(), OpKind::Read);
        assert_eq!(HistorylessOp::Write(0u64).kind(), OpKind::Write);
        assert_eq!(HistorylessOp::Swap(0u64).kind(), OpKind::Swap);
        assert!(OpKind::Read.is_trivial());
        assert!(!OpKind::Write.is_trivial());
        assert!(!OpKind::Swap.is_trivial());
    }

    #[test]
    fn payload_borrowing() {
        assert_eq!(HistorylessOp::<u64>::Read.payload(), None);
        assert_eq!(HistorylessOp::Write(3u64).payload(), Some(&3));
        assert_eq!(HistorylessOp::Swap(4u64).payload(), Some(&4));
    }

    #[test]
    fn map_preserves_kind() {
        let op = HistorylessOp::Swap(3u64).map(|v| v * 2);
        assert_eq!(op, HistorylessOp::Swap(6u64));
        let op: HistorylessOp<u64> = HistorylessOp::Read.map(|v: u64| v * 2);
        assert_eq!(op, HistorylessOp::Read);
    }

    #[test]
    fn response_accessors() {
        let r = Response::Value(11u64);
        assert_eq!(r.value(), Some(&11));
        assert_eq!(r.clone().into_value(), Some(11));
        assert_eq!(r.expect_value("must hold"), 11);
        let a: Response<u64> = Response::Ack;
        assert_eq!(a.value(), None);
        assert_eq!(a.into_value(), None);
    }

    #[test]
    #[should_panic(expected = "expected value response")]
    fn expect_value_on_ack_panics() {
        let a: Response<u64> = Response::Ack;
        let _ = a.expect_value("boom");
    }

    #[test]
    fn debug_formatting_is_compact() {
        assert_eq!(format!("{:?}", HistorylessOp::Swap(2u64)), "Swap(2)");
        assert_eq!(format!("{:?}", Response::<u64>::Ack), "Ack");
        assert_eq!(format!("{}", OpKind::Swap), "swap");
        assert_eq!(
            format!("{:?}", ObjectOp::Historyless(HistorylessOp::Swap(2u64))),
            "Swap(2)"
        );
        assert_eq!(format!("{:?}", ObjectOp::MaxWrite(3u64)), "MaxWrite(3)");
        assert_eq!(format!("{:?}", Response::<u64>::Won(true)), "Won(true)");
        assert_eq!(format!("{}", OpKind::MaxWrite), "max-write");
        assert_eq!(format!("{}", OpKind::TestAndSet), "test-and-set");
    }

    #[test]
    fn object_op_embeds_the_historyless_fragment() {
        let op: ObjectOp<u64> = HistorylessOp::Swap(5).into();
        assert_eq!(op.kind(), OpKind::Swap);
        assert_eq!(op.payload(), Some(&5));
        assert!(op.is_nontrivial());
        assert_eq!(op.as_historyless(), Some(&HistorylessOp::Swap(5)));
        assert_eq!(op.into_historyless(), Some(HistorylessOp::Swap(5)));
        assert_eq!(ObjectOp::read(), ObjectOp::from(HistorylessOp::<u64>::Read));
        assert_eq!(ObjectOp::write(1u64), HistorylessOp::Write(1).into());
        assert_eq!(ObjectOp::swap(1u64), HistorylessOp::Swap(1).into());
    }

    #[test]
    fn rmw_kinds_are_outside_the_historyless_fragment() {
        for op in [
            ObjectOp::TestAndSet(1u64),
            ObjectOp::MaxWrite(4),
            ObjectOp::MaxRead,
        ] {
            assert!(op.as_historyless().is_none(), "{op:?}");
            assert!(!op.kind().is_historyless(), "{op:?}");
        }
        assert!(OpKind::Read.is_historyless());
        assert!(OpKind::Write.is_historyless());
        assert!(OpKind::Swap.is_historyless());
    }

    #[test]
    fn rmw_triviality_and_payloads() {
        assert!(ObjectOp::<u64>::MaxRead.is_trivial());
        assert!(ObjectOp::TestAndSet(1u64).is_nontrivial());
        assert!(ObjectOp::MaxWrite(1u64).is_nontrivial());
        assert_eq!(ObjectOp::TestAndSet(1u64).payload(), Some(&1));
        assert_eq!(ObjectOp::MaxWrite(7u64).into_payload(), Some(7));
        assert_eq!(ObjectOp::<u64>::MaxRead.payload(), None);
        assert_eq!(
            ObjectOp::MaxWrite(3u64).map(|v| v + 1),
            ObjectOp::MaxWrite(4)
        );
        assert_eq!(
            ObjectOp::TestAndSet(1u64).map(|v| v),
            ObjectOp::TestAndSet(1)
        );
    }

    #[test]
    fn typed_response_constructors_match_their_kinds() {
        assert_eq!(Response::<u64>::to_write(), Response::Ack);
        assert_eq!(Response::to_read(3u64), Response::Value(3));
        assert_eq!(Response::to_swap(4u64), Response::Value(4));
        assert_eq!(Response::<u64>::to_test_and_set(true), Response::Won(true));
        assert_eq!(Response::<u64>::to_max_write(), Response::Ack);
        assert_eq!(Response::to_max_read(9u64), Response::Value(9));
    }

    #[test]
    fn won_accessors() {
        let r: Response<u64> = Response::Won(true);
        assert_eq!(r.won(), Some(true));
        assert_eq!(r.value(), None);
        assert_eq!(r.clone().into_value(), None);
        assert!(r.expect_won("tas"));
        assert_eq!(Response::Value(1u64).won(), None);
    }

    #[test]
    #[should_panic(expected = "expected won response")]
    fn expect_won_on_value_panics() {
        let _ = Response::Value(1u64).expect_won("boom");
    }

    #[test]
    #[should_panic(expected = "expected value response, got Won")]
    fn expect_value_on_won_panics() {
        let _ = Response::<u64>::Won(false).expect_value("boom");
    }
}
