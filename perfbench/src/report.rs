//! Result records: a minimal JSON writer, the process memory readings, and
//! the provenance every record carries.

use std::fmt;
use std::path::Path;

/// A JSON value, written compactly on one line.
#[derive(Clone, Debug)]
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // `f64`'s `Display` prints every significant digit and never
            // uses exponent notation, so the output is valid JSON.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => write!(f, "null"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// A field of `/proc/self/status` in bytes (`VmHWM` is the peak resident
/// set, `VmRSS` the current one); `None` where procfs is unavailable.
pub fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: u64 = line[field.len()..]
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// What produced a number: enough to trace any result back to its source
/// revision, toolchain, build and host.
pub fn provenance(workload: &str, seed: u64, operations: u64, traced: bool) -> Json {
    Json::obj([
        ("git_rev", Json::str(git_rev(Path::new(".")))),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        ("profile", Json::str(env!("PERFBENCH_PROFILE"))),
        ("workload", Json::str(workload)),
        ("seed", Json::Int(seed)),
        ("operations", Json::Int(operations)),
        ("traced", Json::Bool(traced)),
    ])
}

/// The commit checked out under `root`, read from `.git` directly (no
/// subprocess); `"unknown"` outside a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_compact_and_escaped() {
        let j = Json::obj([
            ("a", Json::Num(1.25)),
            ("b", Json::str("x\"y")),
            ("c", Json::Arr(vec![Json::Int(3), Json::Bool(false)])),
            ("d", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a": 1.25, "b": "x\"y", "c": [3, false], "d": null}"#
        );
        assert_eq!(Json::Num(1e-7).to_string(), "0.0000001");
    }
}
