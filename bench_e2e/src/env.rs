//! What the benchmark ran on and with: the worker binary, the host, the
//! toolchain, the commit.

use crate::json::{obj, Json};
use std::path::PathBuf;
use std::process::Command;

/// The command that builds the worker binary next to this one.
pub const WORKER_BUILD: &str = "cargo build --release -p p2mdie-core --bin p2mdie-worker";

/// Resolves `p2mdie-worker` the way the product does
/// (`P2MDIE_WORKER_BIN`, then next to this executable) and refuses a binary
/// older than this harness: the TCP workloads would silently time code
/// from an earlier build.
pub fn worker_bin() -> Result<PathBuf, String> {
    let how = format!(
        "build it into the harness's target directory with `{WORKER_BUILD}` \
         (bench_e2e/run.sh does both builds)"
    );
    let bin = p2mdie_core::default_worker_bin()
        .ok_or_else(|| format!("p2mdie-worker not found next to this executable: {how}"))?;
    let modified = |p: &std::path::Path| std::fs::metadata(p).and_then(|m| m.modified());
    let harness = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    match (modified(&bin), modified(&harness)) {
        (Ok(worker), Ok(harness)) if worker < harness => Err(format!(
            "{} is older than this harness binary: {how}",
            bin.display()
        )),
        (Err(e), _) | (_, Err(e)) => Err(format!("cannot stat the binaries: {e}")),
        _ => Ok(bin),
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Host facts recorded with every suite result.
pub fn host_info(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj([
        ("seed", seed.into()),
        ("nproc", (nproc as u64).into()),
        // Every parallel workload runs two ranks; on one core their wall
        // times measure time-slicing, not the algorithm.
        ("oversubscribed", (nproc < crate::workloads::RANKS).into()),
        ("rustc", tool_line("rustc", &["--version"]).into()),
        (
            "git_commit",
            tool_line("git", &["rev-parse", "HEAD"]).into(),
        ),
    ])
}
