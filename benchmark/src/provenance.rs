//! Where a result came from: revision, host, toolchain. A result from a
//! dirty tree, an unknown revision or a 1-core host says so.

use std::path::Path;
use std::process::Command;

pub struct Provenance {
    /// `git rev-parse --short HEAD`, or `unknown` outside a repository.
    pub git_rev: String,
    /// Whether tracked files differ from `git_rev` (false when unknown).
    pub dirty: bool,
    pub nproc: usize,
    pub rustc: String,
}

fn stdout_of(command: &mut Command) -> Option<String> {
    let out = command.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Provenance {
    pub fn collect() -> Provenance {
        // Only a checkout that is itself a repository has a revision;
        // git is not left to go looking through parent directories.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let git = |args: &[&str]| {
            root.join(".git")
                .exists()
                .then(|| stdout_of(Command::new("git").arg("-C").arg(&root).args(args)))
                .flatten()
        };
        let git_rev = git(&["rev-parse", "--short", "HEAD"]);
        let dirty = git_rev.is_some() && git(&["status", "--porcelain"]).is_some();
        Provenance {
            git_rev: git_rev.unwrap_or_else(|| "unknown".to_string()),
            dirty,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: stdout_of(Command::new("rustc").arg("-V"))
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// Reasons this run's numbers are not a citable result, if any.
    pub fn caveats(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.git_rev == "unknown" {
            out.push("revision unknown (not a git checkout)");
        }
        if self.dirty {
            out.push("dirty tree");
        }
        if self.nproc < 2 {
            out.push("1-core host: parallel ratios are meaningless");
        }
        out
    }
}
