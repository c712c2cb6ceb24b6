//! Named results with units and sample counts, the provenance stamp, and
//! the final JSON line.

use std::fmt::Write as _;
use std::path::Path;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (`1` for a single measurement).
    pub n: usize,
}

/// Every number one workload run produced, in report order.
#[derive(Debug, Default)]
pub struct Report {
    entries: Vec<Entry>,
}

impl Report {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.entries.push(Entry { name: name.into(), value, unit, n });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Every entry, in insertion order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Prints the human-readable table.
    pub fn print(&self, title: &str) {
        println!("{title}");
        for e in &self.entries {
            println!("  {:<34} {:>16} {:<6} n={}", e.name, fmt_value(e.value), e.unit, e.n);
        }
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() && v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Commit of the checkout, or `unknown` outside a git work tree.
    pub git_rev: String,
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Filesystem type of the directory state dirs live in.
    pub state_fs: String,
}

impl Provenance {
    /// Gathers the stamp for a run rooted at the current directory.
    pub fn gather(seed: u64, state_root: &Path) -> Self {
        Provenance {
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            seed,
            state_fs: fs_type(state_root),
        }
    }

    /// One-line form for the report.
    pub fn line(&self) -> String {
        format!(
            "provenance: git_rev={} cores={} profile={} seed={} state_fs={} transport=loopback-tcp",
            self.git_rev, self.cores, self.profile, self.seed, self.state_fs
        )
    }
}

/// Resolves `HEAD` by reading the git directory's files (no subprocess).
fn git_rev(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

/// The filesystem type of `path`, from `statfs(2)`'s magic number.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
fn fs_type(path: &Path) -> String {
    use std::ffi::{c_char, c_int, CString};
    use std::os::unix::ffi::OsStrExt;

    extern "C" {
        fn statfs(path: *const c_char, buf: *mut i64) -> c_int;
    }
    let Ok(cpath) = CString::new(path.as_os_str().as_bytes()) else {
        return "unknown".into();
    };
    // `struct statfs` is 120 bytes on these targets and starts with the
    // `long f_type` magic; the buffer is larger than the struct.
    let mut buf = [0i64; 32];
    // SAFETY: `cpath` is a NUL-terminated string that outlives the call,
    // and `buf` is a writable, 8-byte aligned buffer of 256 bytes, larger
    // than the 120-byte `struct statfs` the call fills in.
    let rc = unsafe { statfs(cpath.as_ptr(), buf.as_mut_ptr()) };
    if rc != 0 {
        return "unknown".into();
    }
    let magic = buf[0] as u64 & 0xffff_ffff;
    match magic {
        0xEF53 => "ext4".into(),
        0x0102_1994 => "tmpfs".into(),
        0x5846_5342 => "xfs".into(),
        0x9123_683E => "btrfs".into(),
        0x794C_7630 => "overlayfs".into(),
        0x6969 => "nfs".into(),
        0x2FC1_2FC1 => "zfs".into(),
        0x0100_7E20 => "virtiofs".into(),
        0x6573_5546 => "fuse".into(),
        0x0102_1997 => "9p".into(),
        other => format!("0x{other:x}"),
    }
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn fs_type(_path: &Path) -> String {
    "unknown".into()
}

/// Formats the last line of the output: `correct`, `attempted`, `failed`
/// and the named metrics with their units.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Entry]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, e) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", e.name, e.value, e.unit);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys() {
        let m = [Entry { name: "setup_s".into(), value: 0.25, unit: "s", n: 3 }];
        assert_eq!(
            json_line(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
