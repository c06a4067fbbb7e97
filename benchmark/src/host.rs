//! Host context stamped on every output, so that results from different
//! machines, toolchains and commits can be told apart.

use crate::Args;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub commit: String,
    pub features: &'static str,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Host {
    pub fn detect(args: &Args) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc: env!("BENCH_RUSTC_VERSION"),
            profile: env!("BENCH_PROFILE"),
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
            features: "noisy-oracle default features",
            workload: args.workload.clone(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"rustc\":\"{}\",\"profile\":\"{}\",\"commit\":\"{}\",\"features\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}",
            self.nproc,
            self.rustc,
            self.profile,
            self.commit,
            self.features,
            self.workload,
            self.seed,
            self.seconds,
            self.trace
        )
    }
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (a source checkout without history has none).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(String::from)
}
