//! Where a measurement came from: the commit and the host that produced
//! it, for the provenance fields of the BENCH reports.

/// Best-effort short commit hash, suffixed `-dirty` when tracked files
/// differ from that commit (the figures then describe uncommitted code
/// on top of it); `unknown` outside a git checkout.
#[must_use]
pub fn git_commit() -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty());
    let Some(commit) = commit else {
        return "unknown".to_owned();
    };
    let dirty = std::process::Command::new("git")
        .args(["diff", "--quiet", "HEAD", "--"])
        .status()
        .is_ok_and(|status| status.code() == Some(1));
    if dirty {
        format!("{commit}-dirty")
    } else {
        commit
    }
}

/// The measuring host: its name and core count.
#[must_use]
pub fn host() -> String {
    let name = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!("{name} nproc={nproc}")
}
