//! The benchmark's boundary with its process environment: refusing
//! `ROAM_*` overrides, capping parallelism at the host's cores, fresh
//! scratch directories, peak memory, and output digests.

use std::path::{Path, PathBuf};

/// Threads or worker processes a workload asks for, before the cap.
pub const WANT_PARALLEL: usize = 2;

/// The `ROAM_*` variable names among `vars`, sorted. The library still
/// reads several of these mid-run (`Agent::new`, `Endpoint::probe`), so
/// any of them would silently change what a workload measures.
#[must_use]
pub fn roam_overrides<I, K, V>(vars: I) -> Vec<String>
where
    I: IntoIterator<Item = (K, V)>,
    K: AsRef<std::ffi::OsStr>,
{
    let mut names: Vec<String> = vars
        .into_iter()
        .map(|(k, _)| k.as_ref().to_string_lossy().into_owned())
        .filter(|k| k.starts_with("ROAM_"))
        .collect();
    names.sort();
    names
}

/// `Err` naming every `ROAM_*` variable in the process environment.
///
/// # Errors
/// When at least one is set.
pub fn refuse_roam_overrides() -> Result<(), String> {
    let names = roam_overrides(std::env::vars_os());
    if names.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with ROAM_* overrides set ({}); every knob is set through builder APIs",
            names.join(", ")
        ))
    }
}

/// Cores the host offers this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `want` threads or processes, never more than `nproc` (and at least 1).
#[must_use]
pub fn cap_parallel(want: usize, nproc: usize) -> usize {
    want.min(nproc).max(1)
}

/// An empty directory at `root/name`, removing whatever was there.
///
/// # Errors
/// Any I/O error removing or creating it.
pub fn fresh_dir(root: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host CPU ticks since boot, all CPUs: `(total, steal)`, where steal is
/// time the hypervisor ran something else while a CPU of this machine
/// had work (`/proc/stat`).
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields.iter().sum(), fields[7]))
}

/// FNV-1a 64 over a sequence of byte strings, each length-prefixed so
/// that moving bytes between parts changes the digest.
#[must_use]
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for part in parts {
        eat(&(part.len() as u64).to_le_bytes());
        eat(part);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roam_variables_are_found_and_others_ignored() {
        let env = [
            ("PATH", "/bin"),
            ("ROAM_FAULTS", "heavy"),
            ("XROAM_FAULTS", "x"),
            ("ROAM_PARALLEL", "4"),
            ("roam_lower", "1"),
        ];
        assert_eq!(roam_overrides(env), ["ROAM_FAULTS", "ROAM_PARALLEL"]);
        assert!(roam_overrides([("HOME", "/home/user")]).is_empty());
    }

    #[test]
    fn parallelism_never_exceeds_nproc() {
        assert_eq!(cap_parallel(2, 1), 1);
        assert_eq!(cap_parallel(2, 2), 2);
        assert_eq!(cap_parallel(2, 64), 2);
        assert_eq!(cap_parallel(0, 4), 1);
    }

    #[test]
    fn digest_separates_parts() {
        assert_ne!(digest([&b"ab"[..], b"c"]), digest([&b"a"[..], b"bc"]));
        assert_eq!(digest([&b"x"[..]]), digest([&b"x"[..]]));
    }
}
