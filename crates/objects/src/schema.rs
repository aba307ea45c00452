//! Per-object capability descriptors.
//!
//! Every space-complexity claim in the paper is relative to an object *type*:
//! `n-1` **swap objects** for consensus (Theorem 10 / Algorithm 1), `n-2`
//! **readable binary swap objects** (Theorem 18), `(n-2)/(3b+1)` readable
//! swap objects with **domain size `b`** (Theorem 22), `n` **registers**
//! (Ellen–Gelashvili–Zhu). An implementation that quietly read a swap object
//! or wrote an out-of-domain value would invalidate the row of Table 1 it
//! claims to witness. [`ObjectSchema`] makes those capabilities explicit and
//! machine-checkable: the simulator rejects any step whose operation is not
//! permitted by the schema of the object it targets.

use std::fmt;

use crate::op::OpKind;

/// The kind of historyless object, determining which operations it supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// Supports `Read` and `Write` (trivial + nontrivial).
    Register,
    /// Supports only `Swap` — *not* `Read`. This is the object type of
    /// Algorithm 1 and Theorem 10; Section 3 of the paper emphasizes that a
    /// swap object does not support the `Read` operation.
    Swap,
    /// Supports `Read` and `Swap` (and `Write`, which is `Swap` with the
    /// response discarded).
    ReadableSwap,
    /// A test-and-set object: a binary object supporting the nontrivial
    /// operations `Swap(1)` (legacy test-and-set-by-swap) and the one-shot
    /// `TestAndSet`, plus `Read` in the readable variant used here. Modeled
    /// as a domain-2 readable swap object restricted to swapping in `1`.
    TestAndSet,
    /// A max register: holds the largest value written so far. Supports only
    /// `MaxRead` and `MaxWrite`. **Not historyless** — the value a
    /// `MaxWrite` leaves behind depends on the value it found — so this kind
    /// never participates in Table-1 space accounting
    /// ([`ObjectKind::is_historyless`] is the machine-checked boundary).
    MaxRegister,
}

impl ObjectKind {
    /// Whether an operation of kind `op` may be applied to objects of this
    /// kind.
    pub fn permits(self, op: OpKind) -> bool {
        match self {
            ObjectKind::Register => matches!(op, OpKind::Read | OpKind::Write),
            ObjectKind::Swap => matches!(op, OpKind::Swap),
            ObjectKind::ReadableSwap => {
                matches!(op, OpKind::Read | OpKind::Write | OpKind::Swap)
            }
            ObjectKind::TestAndSet => {
                matches!(op, OpKind::Read | OpKind::Swap | OpKind::TestAndSet)
            }
            ObjectKind::MaxRegister => matches!(op, OpKind::MaxRead | OpKind::MaxWrite),
        }
    }

    /// Whether this object kind supports any trivial operation. Lower bounds
    /// for objects that support only nontrivial operations (Theorem 10) rely
    /// on this distinction: overwriting is the only way to learn.
    pub fn supports_trivial(self) -> bool {
        match self {
            ObjectKind::Swap => false,
            ObjectKind::Register
            | ObjectKind::ReadableSwap
            | ObjectKind::TestAndSet
            | ObjectKind::MaxRegister => true,
        }
    }

    /// Whether this object kind is historyless (its value is determined by
    /// the last nontrivial operation alone). Every kind the paper's Table 1
    /// counts is; a max register is not. Space-accounting code gates on this
    /// so derived-object base sets are priced honestly.
    pub fn is_historyless(self) -> bool {
        match self {
            ObjectKind::Register
            | ObjectKind::Swap
            | ObjectKind::ReadableSwap
            | ObjectKind::TestAndSet => true,
            ObjectKind::MaxRegister => false,
        }
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjectKind::Register => "register",
            ObjectKind::Swap => "swap",
            ObjectKind::ReadableSwap => "readable-swap",
            ObjectKind::TestAndSet => "test-and-set",
            ObjectKind::MaxRegister => "max-register",
        };
        f.write_str(s)
    }
}

/// The value domain of an object.
///
/// Theorem 22's lower bound is parameterized by the domain size `b`; Table 1
/// distinguishes readable swap objects with domain size 2, domain size `b`,
/// and unbounded domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Values range over `{0, …, size-1}` (for integer-valued objects).
    Bounded(u64),
    /// No restriction on values.
    Unbounded,
}

impl Domain {
    /// Domain of a binary object.
    pub const BINARY: Domain = Domain::Bounded(2);

    /// Whether `value` is a member of the domain.
    pub fn contains(self, value: u64) -> bool {
        match self {
            Domain::Bounded(b) => value < b,
            Domain::Unbounded => true,
        }
    }

    /// The size of the domain, or `None` if unbounded.
    pub fn size(self) -> Option<u64> {
        match self {
            Domain::Bounded(b) => Some(b),
            Domain::Unbounded => None,
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Bounded(b) => write!(f, "domain {b}"),
            Domain::Unbounded => write!(f, "unbounded domain"),
        }
    }
}

/// Capability descriptor for one shared object: its kind and value domain.
///
/// # Example
///
/// ```
/// use swapcons_objects::{Domain, ObjectKind, ObjectSchema, OpKind};
///
/// let schema = ObjectSchema::readable_swap(Domain::BINARY);
/// assert!(schema.permits_kind(OpKind::Read));
/// assert!(schema.permits_kind(OpKind::Swap));
/// assert!(schema.check_value(1).is_ok());
/// assert!(schema.check_value(2).is_err());
///
/// let swap_only = ObjectSchema::swap();
/// assert!(!swap_only.permits_kind(OpKind::Read));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ObjectSchema {
    kind: ObjectKind,
    domain: Domain,
}

impl ObjectSchema {
    /// A register with unbounded domain.
    pub fn register() -> Self {
        ObjectSchema {
            kind: ObjectKind::Register,
            domain: Domain::Unbounded,
        }
    }

    /// A binary register (domain `{0,1}`).
    pub fn binary_register() -> Self {
        ObjectSchema {
            kind: ObjectKind::Register,
            domain: Domain::BINARY,
        }
    }

    /// A swap object (no `Read`) with unbounded domain — the object type of
    /// Algorithm 1 and Theorem 10.
    pub fn swap() -> Self {
        ObjectSchema {
            kind: ObjectKind::Swap,
            domain: Domain::Unbounded,
        }
    }

    /// A readable swap object with the given domain.
    pub fn readable_swap(domain: Domain) -> Self {
        ObjectSchema {
            kind: ObjectKind::ReadableSwap,
            domain,
        }
    }

    /// A readable binary swap object (Section 5.1, Theorem 18).
    pub fn readable_binary_swap() -> Self {
        ObjectSchema::readable_swap(Domain::BINARY)
    }

    /// A test-and-set object.
    pub fn test_and_set() -> Self {
        ObjectSchema {
            kind: ObjectKind::TestAndSet,
            domain: Domain::BINARY,
        }
    }

    /// A max register over the given domain. Aspnes's one-bit swap uses a
    /// single bounded max register to count alternations; unbounded max
    /// registers are admitted for completeness.
    pub fn max_register(domain: Domain) -> Self {
        ObjectSchema {
            kind: ObjectKind::MaxRegister,
            domain,
        }
    }

    /// The object kind.
    pub fn kind(&self) -> ObjectKind {
        self.kind
    }

    /// The value domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Whether operations of kind `op` are permitted on this object.
    pub fn permits_kind(&self, op: OpKind) -> bool {
        self.kind.permits(op)
    }

    /// Validate that an integer value lies within this object's domain.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::ValueOutOfDomain`] when the value is outside
    /// the configured domain.
    pub fn check_value(&self, value: u64) -> Result<(), SchemaError> {
        if self.domain.contains(value) {
            Ok(())
        } else {
            Err(SchemaError::ValueOutOfDomain {
                value,
                domain: self.domain,
            })
        }
    }

    /// Validate a value by its *domain point* — the integer a simulator
    /// value denotes, or `None` for composite values that embed into no
    /// integer domain. Bounded domains require an in-range point; unbounded
    /// domains admit everything. This is the one rule both the simulator's
    /// step validation and the canonicalization layer's relabeling checks
    /// enforce (a renamed value must still inhabit its destination object's
    /// domain).
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::ValueOutOfDomain`] when the point is outside a
    /// bounded domain, or when a composite value (`point == None`) is
    /// offered to a bounded-domain object (reported with the sentinel value
    /// `u64::MAX`).
    pub fn check_domain_point(&self, point: Option<u64>) -> Result<(), SchemaError> {
        match (self.domain, point) {
            (Domain::Unbounded, _) => Ok(()),
            (Domain::Bounded(_), Some(x)) => self.check_value(x),
            (domain @ Domain::Bounded(_), None) => Err(SchemaError::ValueOutOfDomain {
                value: u64::MAX,
                domain,
            }),
        }
    }

    /// Validate that an operation kind is permitted.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::OpNotPermitted`] when the object kind does not
    /// support the operation.
    pub fn check_op_kind(&self, op: OpKind) -> Result<(), SchemaError> {
        if self.permits_kind(op) {
            Ok(())
        } else {
            Err(SchemaError::OpNotPermitted {
                op,
                kind: self.kind,
            })
        }
    }
}

/// Error produced when an operation violates an [`ObjectSchema`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemaError {
    /// The operation kind is not supported by the object kind (for example a
    /// `Read` on a swap object).
    OpNotPermitted {
        /// The offending operation kind.
        op: OpKind,
        /// The object kind that rejected it.
        kind: ObjectKind,
    },
    /// The value written or swapped in is outside the object's domain.
    ValueOutOfDomain {
        /// The offending value.
        value: u64,
        /// The domain that rejected it.
        domain: Domain,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::OpNotPermitted { op, kind } => {
                write!(f, "operation {op} is not permitted on a {kind} object")
            }
            SchemaError::ValueOutOfDomain { value, domain } => {
                write!(f, "value {value} lies outside the object's {domain}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_objects_do_not_support_read() {
        let s = ObjectSchema::swap();
        assert!(!s.permits_kind(OpKind::Read));
        assert!(s.permits_kind(OpKind::Swap));
        assert!(!s.permits_kind(OpKind::Write));
        assert!(!s.kind().supports_trivial());
    }

    #[test]
    fn registers_do_not_support_swap() {
        let s = ObjectSchema::register();
        assert!(s.permits_kind(OpKind::Read));
        assert!(s.permits_kind(OpKind::Write));
        assert!(!s.permits_kind(OpKind::Swap));
        assert!(s.kind().supports_trivial());
    }

    #[test]
    fn readable_swap_supports_everything() {
        let s = ObjectSchema::readable_swap(Domain::Unbounded);
        assert!(s.permits_kind(OpKind::Read));
        assert!(s.permits_kind(OpKind::Write));
        assert!(s.permits_kind(OpKind::Swap));
    }

    #[test]
    fn binary_domain_rejects_large_values() {
        let s = ObjectSchema::readable_binary_swap();
        assert_eq!(s.check_value(0), Ok(()));
        assert_eq!(s.check_value(1), Ok(()));
        assert!(matches!(
            s.check_value(2),
            Err(SchemaError::ValueOutOfDomain { value: 2, .. })
        ));
    }

    #[test]
    fn unbounded_domain_accepts_everything() {
        let s = ObjectSchema::swap();
        assert!(s.check_value(u64::MAX).is_ok());
        assert_eq!(s.domain().size(), None);
        assert_eq!(Domain::Bounded(5).size(), Some(5));
    }

    #[test]
    fn domain_points_checked_per_schema() {
        let binary = ObjectSchema::readable_binary_swap();
        assert!(binary.check_domain_point(Some(1)).is_ok());
        assert!(matches!(
            binary.check_domain_point(Some(2)),
            Err(SchemaError::ValueOutOfDomain { value: 2, .. })
        ));
        // Composite values (no point) cannot inhabit bounded domains…
        assert!(binary.check_domain_point(None).is_err());
        // …but unbounded domains admit anything.
        let swap = ObjectSchema::swap();
        assert!(swap.check_domain_point(None).is_ok());
        assert!(swap.check_domain_point(Some(u64::MAX)).is_ok());
    }

    #[test]
    fn check_op_kind_reports_errors() {
        let s = ObjectSchema::swap();
        let err = s.check_op_kind(OpKind::Read).unwrap_err();
        assert_eq!(
            err,
            SchemaError::OpNotPermitted {
                op: OpKind::Read,
                kind: ObjectKind::Swap
            }
        );
        assert!(err.to_string().contains("not permitted"));
    }

    #[test]
    fn test_and_set_is_binary_and_readable() {
        let s = ObjectSchema::test_and_set();
        assert!(s.permits_kind(OpKind::Read));
        assert!(s.permits_kind(OpKind::Swap));
        assert!(!s.permits_kind(OpKind::Write));
        assert!(s.permits_kind(OpKind::TestAndSet));
        assert!(!s.permits_kind(OpKind::MaxRead));
        assert_eq!(s.domain(), Domain::BINARY);
    }

    #[test]
    fn max_register_permits_only_max_ops() {
        let s = ObjectSchema::max_register(Domain::Bounded(5));
        assert!(s.permits_kind(OpKind::MaxRead));
        assert!(s.permits_kind(OpKind::MaxWrite));
        assert!(!s.permits_kind(OpKind::Read));
        assert!(!s.permits_kind(OpKind::Write));
        assert!(!s.permits_kind(OpKind::Swap));
        assert!(!s.permits_kind(OpKind::TestAndSet));
        assert!(s.kind().supports_trivial());
        assert_eq!(s.domain(), Domain::Bounded(5));
        assert_eq!(s.kind().to_string(), "max-register");
    }

    #[test]
    fn historyless_boundary_excludes_exactly_the_max_register() {
        for kind in [
            ObjectKind::Register,
            ObjectKind::Swap,
            ObjectKind::ReadableSwap,
            ObjectKind::TestAndSet,
        ] {
            assert!(kind.is_historyless(), "{kind}");
        }
        assert!(!ObjectKind::MaxRegister.is_historyless());
    }

    #[test]
    fn rmw_kinds_are_rejected_on_historyless_objects() {
        for schema in [
            ObjectSchema::register(),
            ObjectSchema::swap(),
            ObjectSchema::readable_swap(Domain::Unbounded),
        ] {
            assert!(!schema.permits_kind(OpKind::MaxWrite), "{schema:?}");
            assert!(!schema.permits_kind(OpKind::MaxRead), "{schema:?}");
            assert!(!schema.permits_kind(OpKind::TestAndSet), "{schema:?}");
        }
    }

    #[test]
    fn display_formatting() {
        assert_eq!(ObjectKind::Swap.to_string(), "swap");
        assert_eq!(Domain::BINARY.to_string(), "domain 2");
        assert_eq!(Domain::Unbounded.to_string(), "unbounded domain");
        let err = SchemaError::ValueOutOfDomain {
            value: 9,
            domain: Domain::BINARY,
        };
        assert_eq!(
            err.to_string(),
            "value 9 lies outside the object's domain 2"
        );
    }
}
