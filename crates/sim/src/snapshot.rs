//! Crash-safe snapshot files for interrupted searches.
//!
//! A snapshot persists a [`SearchImage`] (arena + discovery order + pending
//! frontier + stats) plus a [`RunMeta`] describing the run's parameters, so
//! a killed process can resume with full parity
//! ([`crate::engine::Engine::run_min_depth`]). The file format is deliberately
//! paranoid — a checkpoint only matters when something already went wrong:
//!
//! ```text
//! magic "SWCK" (4) | version u32 | payload_len u64 | fxhash64(payload) | payload
//! ```
//!
//! * **versioned** — a snapshot written by a different format version is
//!   rejected with [`SnapshotError::VersionMismatch`], never misdecoded;
//! * **checksummed** — any flipped or truncated payload byte is rejected
//!   with [`SnapshotError::ChecksumMismatch`] before decoding begins;
//! * **atomic** — [`write_snapshot`] writes to a temporary sibling and
//!   renames over the destination, so a `SIGKILL` mid-write leaves either
//!   the old complete snapshot or the new complete snapshot, never a torn
//!   file;
//! * **validated** — the decoded arena re-checks its parent-pointer and
//!   depth invariants ([`SnapshotError::Corrupt`]), so no later accessor
//!   can panic or loop on hostile input.
//!
//! Every failure mode is a typed [`SnapshotError`] — corrupted checkpoints
//! are reported, never panicked on.
//!
//! Sharded searches ([`crate::shard`]) drain their per-worker arenas and
//! wave buffers into this same single-arena [`SearchImage`] shape at
//! checkpoint time, so snapshots carry no trace of the thread count that
//! wrote them: a file written by a sharded run resumes sequentially (and
//! vice versa) with no format change or version bump.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use codec::{Decode, DecodeError, Encode, Reader};

use crate::engine::{SearchImage, SearchStats};
use crate::search::{NodeId, ScheduleArena};

/// File magic: "SWapcons ChecKpoint".
pub const MAGIC: [u8; 4] = *b"SWCK";

/// Current snapshot format version. Bump on any payload layout change.
pub const FORMAT_VERSION: u32 = 1;

/// Typed failure of snapshot IO/decoding — the byte/file layer.
/// (Semantic resume failures are [`crate::engine::ResumeError`].)
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem error (message of the underlying `std::io::Error`).
    Io(String),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file's format version differs from [`FORMAT_VERSION`].
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The payload checksum does not match — bit rot, truncation, or a torn
    /// write by something other than [`write_snapshot`].
    ChecksumMismatch,
    /// The payload passed the checksum but failed structural decoding or
    /// arena validation.
    Corrupt(String),
    /// The snapshot's [`RunMeta`] does not match the resuming run's
    /// parameters (different protocol, inputs, budgets, or reduction mode).
    MetaMismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot format version {found}, expected {expected}")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot payload: {m}"),
            SnapshotError::MetaMismatch(m) => write!(f, "snapshot run mismatch: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Corrupt(e.to_string())
    }
}

/// Parameters identifying the run a snapshot belongs to. Resuming checks
/// the stored meta against the resuming run's and refuses on mismatch —
/// resuming a PairsKSet search into an Algorithm 1 checker would otherwise
/// silently produce garbage verdicts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// [`crate::Protocol::name`] of the checked protocol.
    pub protocol_name: String,
    /// The run's input vector.
    pub inputs: Vec<u64>,
    /// Depth budget.
    pub max_depth: u64,
    /// State budget.
    pub max_states: u64,
    /// Whether symmetry reduction was on.
    pub symmetry_reduction: bool,
    /// Solo-termination step budget of the checker.
    pub solo_budget: u64,
    /// Crash-injection failure budget (`f`).
    pub max_failures: u64,
}

impl RunMeta {
    /// Check that `self` (from the file) matches `current` (the resuming
    /// run), field by field, with a diagnostic naming the first mismatch.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MetaMismatch`] on the first differing field.
    pub fn ensure_matches(&self, current: &RunMeta) -> Result<(), SnapshotError> {
        macro_rules! check {
            ($field:ident) => {
                if self.$field != current.$field {
                    return Err(SnapshotError::MetaMismatch(format!(
                        "{}: snapshot has {:?}, resuming run has {:?}",
                        stringify!($field),
                        self.$field,
                        current.$field
                    )));
                }
            };
        }
        check!(protocol_name);
        check!(inputs);
        check!(max_depth);
        check!(max_states);
        check!(symmetry_reduction);
        check!(solo_budget);
        check!(max_failures);
        Ok(())
    }
}

impl Encode for RunMeta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.protocol_name.encode(out);
        self.inputs.encode(out);
        self.max_depth.encode(out);
        self.max_states.encode(out);
        self.symmetry_reduction.encode(out);
        self.solo_budget.encode(out);
        self.max_failures.encode(out);
    }
}

impl Decode for RunMeta {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(RunMeta {
            protocol_name: String::decode(r)?,
            inputs: Vec::decode(r)?,
            max_depth: u64::decode(r)?,
            max_states: u64::decode(r)?,
            symmetry_reduction: bool::decode(r)?,
            solo_budget: u64::decode(r)?,
            max_failures: u64::decode(r)?,
        })
    }
}

fn encode_stats(stats: &SearchStats, out: &mut Vec<u8>) {
    (stats.states as u64).encode(out);
    (stats.terminal_states as u64).encode(out);
    (stats.deepest as u64).encode(out);
    (stats.peak_frontier as u64).encode(out);
    stats.stopped.encode(out);
    stats.depth_truncated.encode(out);
    stats.budget_truncated.encode(out);
    stats.deadline_truncated.encode(out);
    stats.paused.encode(out);
}

fn decode_stats(r: &mut Reader<'_>) -> Result<SearchStats, DecodeError> {
    let as_usize = |v: u64| usize::try_from(v).map_err(|_| DecodeError::Invalid);
    Ok(SearchStats {
        states: as_usize(u64::decode(r)?)?,
        terminal_states: as_usize(u64::decode(r)?)?,
        deepest: as_usize(u64::decode(r)?)?,
        peak_frontier: as_usize(u64::decode(r)?)?,
        stopped: bool::decode(r)?,
        depth_truncated: bool::decode(r)?,
        budget_truncated: bool::decode(r)?,
        deadline_truncated: bool::decode(r)?,
        paused: bool::decode(r)?,
    })
}

fn encode_nodes(nodes: &[NodeId], out: &mut Vec<u8>) {
    nodes.len().encode(out);
    for n in nodes {
        n.to_raw().encode(out);
    }
}

fn decode_nodes(r: &mut Reader<'_>) -> Result<Vec<NodeId>, DecodeError> {
    let raw: Vec<u32> = Vec::decode(r)?;
    Ok(raw.into_iter().map(NodeId::from_raw).collect())
}

fn encode_image(image: &SearchImage, out: &mut Vec<u8>) {
    encode_stats(&image.stats, out);
    let raw = image.arena.raw_nodes();
    raw.len().encode(out);
    for &(parent, tagged, depth) in raw {
        parent.to_raw().encode(out);
        tagged.encode(out);
        depth.encode(out);
    }
    encode_nodes(&image.discovery, out);
    encode_nodes(&image.frontier, out);
}

fn decode_image(r: &mut Reader<'_>) -> Result<SearchImage, SnapshotError> {
    let stats = decode_stats(r)?;
    let len = usize::decode(r)?;
    if len
        .checked_mul(12)
        .is_none_or(|bytes| bytes > r.remaining())
    {
        return Err(SnapshotError::Corrupt(
            "arena length overflows input".into(),
        ));
    }
    let mut raw = Vec::with_capacity(len);
    for _ in 0..len {
        let parent = NodeId::from_raw(u32::decode(r)?);
        let tagged = u32::decode(r)?;
        let depth = u32::decode(r)?;
        raw.push((parent, tagged, depth));
    }
    let arena = ScheduleArena::from_raw_nodes(raw).map_err(SnapshotError::Corrupt)?;
    let discovery = decode_nodes(r)?;
    let frontier = decode_nodes(r)?;
    Ok(SearchImage {
        stats,
        arena,
        discovery,
        frontier,
    })
}

/// Serialize `(meta, image)` to the snapshot byte format (header included).
pub fn to_snapshot_bytes(meta: &RunMeta, image: &SearchImage) -> Vec<u8> {
    let mut payload = Vec::new();
    meta.encode(&mut payload);
    encode_image(image, &mut payload);
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fxhash::hash64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parse snapshot bytes, validating magic, version, length, and checksum
/// before any structural decoding.
///
/// # Errors
///
/// See [`SnapshotError`]; every malformed input is a typed error, never a
/// panic.
pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<(RunMeta, SearchImage), SnapshotError> {
    if bytes.len() < 24 {
        return Err(SnapshotError::BadMagic);
    }
    if bytes[0..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let payload = &bytes[24..];
    if payload_len != payload.len() as u64 {
        return Err(SnapshotError::ChecksumMismatch);
    }
    if fxhash::hash64(payload) != checksum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut r = Reader::new(payload);
    let meta = RunMeta::decode(&mut r)?;
    let image = decode_image(&mut r)?;
    if r.remaining() != 0 {
        return Err(SnapshotError::Corrupt("trailing payload bytes".into()));
    }
    Ok((meta, image))
}

/// Write a snapshot file **atomically**: the bytes go to a `.tmp` sibling
/// first and are renamed over `path`, so a kill at any instant leaves
/// either the previous complete snapshot or the new one.
///
/// # Errors
///
/// [`SnapshotError::Io`] on filesystem failure.
pub fn write_snapshot(
    path: &Path,
    meta: &RunMeta,
    image: &SearchImage,
) -> Result<(), SnapshotError> {
    let bytes = to_snapshot_bytes(meta, image);
    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Read and validate a snapshot file.
///
/// # Errors
///
/// See [`SnapshotError`].
pub fn read_snapshot(path: &Path) -> Result<(RunMeta, SearchImage), SnapshotError> {
    let bytes = fs::read(path)?;
    from_snapshot_bytes(&bytes)
}

/// The payload's binary encoding: little-endian fixed-width integers,
/// `usize` as `u64`, `bool` as one `0`/`1` byte, strings and vectors behind
/// a `u64` length prefix. Versioned by [`FORMAT_VERSION`].
mod codec {
    /// Decoding failure.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum DecodeError {
        /// Input ended mid-value.
        UnexpectedEof,
        /// A value was structurally invalid (bad bool tag, non-UTF-8
        /// string, length overflow).
        Invalid,
    }

    impl std::fmt::Display for DecodeError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
                DecodeError::Invalid => write!(f, "structurally invalid value"),
            }
        }
    }

    /// Cursor over a byte slice being decoded.
    pub struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// A reader at the start of `bytes`.
        pub fn new(bytes: &'a [u8]) -> Self {
            Reader { bytes, pos: 0 }
        }

        /// Bytes not yet consumed.
        pub fn remaining(&self) -> usize {
            self.bytes.len() - self.pos
        }

        /// Consume exactly `n` bytes.
        fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
            if self.remaining() < n {
                return Err(DecodeError::UnexpectedEof);
            }
            let out = &self.bytes[self.pos..self.pos + n];
            self.pos += n;
            Ok(out)
        }
    }

    /// Types encodable to the payload format.
    pub trait Encode {
        /// Append this value's encoding to `out`.
        fn encode(&self, out: &mut Vec<u8>);
    }

    /// Types decodable from the payload format.
    pub trait Decode: Sized {
        /// Decode one value, advancing the reader.
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
    }

    impl Encode for u32 {
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.to_le_bytes());
        }
    }

    impl Decode for u32 {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(u32::from_le_bytes(r.take(4)?.try_into().unwrap()))
        }
    }

    impl Encode for u64 {
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.to_le_bytes());
        }
    }

    impl Decode for u64 {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(u64::from_le_bytes(r.take(8)?.try_into().unwrap()))
        }
    }

    impl Encode for usize {
        fn encode(&self, out: &mut Vec<u8>) {
            (*self as u64).encode(out);
        }
    }

    impl Decode for usize {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            usize::try_from(u64::decode(r)?).map_err(|_| DecodeError::Invalid)
        }
    }

    impl Encode for bool {
        fn encode(&self, out: &mut Vec<u8>) {
            out.push(u8::from(*self));
        }
    }

    impl Decode for bool {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            match r.take(1)?[0] {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(DecodeError::Invalid),
            }
        }
    }

    impl Encode for String {
        fn encode(&self, out: &mut Vec<u8>) {
            self.len().encode(out);
            out.extend_from_slice(self.as_bytes());
        }
    }

    impl Decode for String {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let len = usize::decode(r)?;
            let bytes = r.take(len)?;
            String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Invalid)
        }
    }

    impl<T: Encode> Encode for Vec<T> {
        fn encode(&self, out: &mut Vec<u8>) {
            self.len().encode(out);
            for item in self {
                item.encode(out);
            }
        }
    }

    impl<T: Decode> Decode for Vec<T> {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let len = usize::decode(r)?;
            // Guard against adversarial length prefixes: never pre-reserve
            // more than the input could possibly hold (each element needs at
            // least one byte).
            if len > r.remaining() {
                return Err(DecodeError::Invalid);
            }
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                out.push(T::decode(r)?);
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Action, ProcessId};

    fn sample_meta() -> RunMeta {
        RunMeta {
            protocol_name: "pairs-kset(n=4,k=2)".into(),
            inputs: vec![3, 1, 4, 1],
            max_depth: 64,
            max_states: 100_000,
            symmetry_reduction: true,
            solo_budget: 32,
            max_failures: 2,
        }
    }

    fn sample_image() -> SearchImage {
        let mut arena = ScheduleArena::new();
        let a = arena.child(ScheduleArena::ROOT, ProcessId(0));
        let b = arena.child_action(a, Action::Crash(ProcessId(1)));
        let mut stats = SearchStats {
            states: 2,
            terminal_states: 0,
            deepest: 2,
            peak_frontier: 3,
            stopped: false,
            depth_truncated: false,
            budget_truncated: false,
            deadline_truncated: true,
            paused: false,
        };
        stats.deepest = 2;
        SearchImage {
            stats,
            arena,
            discovery: vec![ScheduleArena::ROOT, a, b],
            frontier: vec![b],
        }
    }

    #[test]
    fn snapshot_bytes_round_trip() {
        let bytes = to_snapshot_bytes(&sample_meta(), &sample_image());
        let (meta, image) = from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(meta, sample_meta());
        let original = sample_image();
        assert_eq!(image.stats, original.stats);
        assert_eq!(image.discovery, original.discovery);
        assert_eq!(image.frontier, original.frontier);
        assert_eq!(image.arena.raw_nodes(), original.arena.raw_nodes());
        assert_eq!(
            image.arena.actions(NodeId::from_raw(1)),
            vec![Action::Step(ProcessId(0)), Action::Crash(ProcessId(1)),]
        );
    }

    /// The format of `sample_meta` + `sample_image`, byte for byte. A
    /// change to any byte here is a format change and needs a
    /// [`FORMAT_VERSION`] bump.
    #[test]
    fn snapshot_bytes_are_pinned() {
        #[rustfmt::skip]
        let golden: &[&[u8]] = &[
            // Header: magic, version 1, payload length 201, fxhash64(payload).
            b"SWCK", &[1, 0, 0, 0],
            &[201, 0, 0, 0, 0, 0, 0, 0],
            &[155, 241, 80, 66, 236, 122, 139, 51],
            // RunMeta: protocol name (length-prefixed).
            &[19, 0, 0, 0, 0, 0, 0, 0], b"pairs-kset(n=4,k=2)",
            // Inputs [3, 1, 4, 1] (length-prefixed u64s).
            &[4, 0, 0, 0, 0, 0, 0, 0],
            &[3, 0, 0, 0, 0, 0, 0, 0], &[1, 0, 0, 0, 0, 0, 0, 0],
            &[4, 0, 0, 0, 0, 0, 0, 0], &[1, 0, 0, 0, 0, 0, 0, 0],
            // max_depth 64, max_states 100_000, symmetry_reduction true,
            // solo_budget 32, max_failures 2.
            &[64, 0, 0, 0, 0, 0, 0, 0], &[160, 134, 1, 0, 0, 0, 0, 0], &[1],
            &[32, 0, 0, 0, 0, 0, 0, 0], &[2, 0, 0, 0, 0, 0, 0, 0],
            // SearchStats: states 2, terminal 0, deepest 2, peak_frontier 3,
            // then stopped, depth/budget/deadline truncated, paused.
            &[2, 0, 0, 0, 0, 0, 0, 0], &[0, 0, 0, 0, 0, 0, 0, 0],
            &[2, 0, 0, 0, 0, 0, 0, 0], &[3, 0, 0, 0, 0, 0, 0, 0],
            &[0, 0, 0, 1, 0],
            // Arena: 2 nodes of (parent, tagged action, depth) u32 triples —
            // p0 steps from the root, then p1 crashes (tag bit 31).
            &[2, 0, 0, 0, 0, 0, 0, 0],
            &[255, 255, 255, 255], &[0, 0, 0, 0], &[1, 0, 0, 0],
            &[0, 0, 0, 0], &[1, 0, 0, 128], &[2, 0, 0, 0],
            // Discovery order [root, a, b], then frontier [b].
            &[3, 0, 0, 0, 0, 0, 0, 0],
            &[255, 255, 255, 255], &[0, 0, 0, 0], &[1, 0, 0, 0],
            &[1, 0, 0, 0, 0, 0, 0, 0], &[1, 0, 0, 0],
        ];
        let golden = golden.concat();
        assert_eq!(to_snapshot_bytes(&sample_meta(), &sample_image()), golden);
        let (meta, image) = from_snapshot_bytes(&golden).unwrap();
        assert_eq!(meta, sample_meta());
        assert_eq!(image.stats, sample_image().stats);
        assert_eq!(image.arena.raw_nodes(), sample_image().arena.raw_nodes());
        assert_eq!(image.discovery, sample_image().discovery);
        assert_eq!(image.frontier, sample_image().frontier);
    }

    #[test]
    fn every_corrupted_payload_byte_is_caught() {
        let bytes = to_snapshot_bytes(&sample_meta(), &sample_image());
        for i in 24..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x41;
            assert_eq!(
                from_snapshot_bytes(&bad).unwrap_err(),
                SnapshotError::ChecksumMismatch,
                "flipped payload byte {i} must fail the checksum"
            );
        }
    }

    #[test]
    fn header_corruption_is_typed() {
        let bytes = to_snapshot_bytes(&sample_meta(), &sample_image());
        // Magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            from_snapshot_bytes(&bad).unwrap_err(),
            SnapshotError::BadMagic
        );
        // Version.
        let mut bad = bytes.clone();
        bad[4] = FORMAT_VERSION as u8 + 1;
        assert_eq!(
            from_snapshot_bytes(&bad).unwrap_err(),
            SnapshotError::VersionMismatch {
                found: FORMAT_VERSION + 1,
                expected: FORMAT_VERSION
            }
        );
        // Truncation (any cut point).
        for cut in 0..bytes.len() {
            assert!(
                from_snapshot_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        // Trailing garbage changes the length check.
        let mut bad = bytes.clone();
        bad.push(0);
        assert_eq!(
            from_snapshot_bytes(&bad).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );
    }

    #[test]
    fn checksum_passes_but_bad_arena_is_corrupt() {
        // Build a payload whose arena violates the parent-pointer invariant
        // and wrap it in a *valid* header: decoding must reject it with
        // `Corrupt`, not panic.
        let mut image = sample_image();
        image.arena = ScheduleArena::new(); // empty, but discovery points at nodes 0/1
        let mut payload = Vec::new();
        sample_meta().encode(&mut payload);
        // stats
        encode_stats(&image.stats, &mut payload);
        // arena with a forward parent pointer
        1usize.encode(&mut payload);
        NodeId::from_raw(5).to_raw().encode(&mut payload);
        0u32.encode(&mut payload);
        1u32.encode(&mut payload);
        encode_nodes(&image.discovery, &mut payload);
        encode_nodes(&image.frontier, &mut payload);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fxhash::hash64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        match from_snapshot_bytes(&bytes).unwrap_err() {
            SnapshotError::Corrupt(m) => assert!(m.contains("parent"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn meta_mismatch_names_the_field() {
        let a = sample_meta();
        let mut b = sample_meta();
        b.max_failures = 0;
        let err = a.ensure_matches(&b).unwrap_err();
        match err {
            SnapshotError::MetaMismatch(m) => assert!(m.contains("max_failures"), "{m}"),
            other => panic!("expected MetaMismatch, got {other:?}"),
        }
        assert!(a.ensure_matches(&sample_meta()).is_ok());
    }

    #[test]
    fn file_round_trip_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("swck-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.swck");
        write_snapshot(&path, &sample_meta(), &sample_image()).unwrap();
        let (meta, image) = read_snapshot(&path).unwrap();
        assert_eq!(meta, sample_meta());
        assert_eq!(image.stats, sample_image().stats);
        // Overwrite goes through the same atomic path.
        write_snapshot(&path, &sample_meta(), &sample_image()).unwrap();
        assert!(read_snapshot(&path).is_ok());
        // A missing file is a typed Io error.
        assert!(matches!(
            read_snapshot(&dir.join("absent.swck")).unwrap_err(),
            SnapshotError::Io(_)
        ));
        fs::remove_dir_all(&dir).ok();
    }
}
