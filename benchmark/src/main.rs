//! End-to-end and per-layer benchmark of the noisy-oracle facade.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <session_mix|hierarchy|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. With `--trace 0` the run
//! reports the end-to-end metrics; with `--trace 1` it records spans
//! around its calls into each layer and reports the per-layer metrics.
//! Earlier stdout lines carry the host context and a readable detail
//! report; the last line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The process exits
//! non-zero on a usage error or when any answer check fails.
//! `METRICS.md` beside this crate defines every workload and metric.

mod check;
mod hierarchy;
mod host;
mod layers;
mod loadgen;
mod serve;
mod session_mix;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_ms_p50", "ms"),
    ("task_ms_p90", "ms"),
    ("queries_per_task", "count"),
    ("rounds_per_task", "count"),
    ("valid_share", "ratio"),
    ("guarantee_share", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("serve_ms_p50", "ms"),
    ("serve_ms_p90", "ms"),
    ("max_rate_rps", "1/s"),
    ("backend_queries_per_request", "count"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("metric.dist_evals_per_task", "count"),
    ("metric.dist_ms_per_task", "ms"),
    ("metric.cache_hit_ratio", "ratio"),
    ("metric.engine_build_ms", "ms"),
    ("oracle.raw_ns_per_query", "ns"),
    ("oracle.chain_ns_per_query", "ns"),
    ("oracle.queries_per_round", "count"),
    ("core.maxfind.self_ms_per_task", "ms"),
    ("core.order.self_ms_per_task", "ms"),
    ("core.neighbor.self_ms_per_task", "ms"),
    ("core.kcenter.self_ms_per_task", "ms"),
    ("core.hier.full_sweeps_per_task", "count"),
    ("core.hier.dirty_candidates_per_task", "count"),
    ("core.hier.repaired_pointers_per_task", "count"),
    ("core.hier.bucket_duels_per_task", "count"),
    ("core.hier.pool_duels_per_task", "count"),
    ("core.hier.scaffold_hits_per_task", "count"),
    ("core.hier.repair_fallback_share", "ratio"),
    ("session.build_ms", "ms"),
    ("session.overhead_ms_per_task", "ms"),
    ("session.cache_scan_ms", "ms"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_p90", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.run_ms_p50_1worker", "ms"),
    ("serve.run_over_solo", "ratio"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.coalesced_round_share", "ratio"),
    ("serve.backend_rounds_per_request", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.open_ms_p90_8rps", "ms"),
    ("loadgen.max_rate_rps", "1/s"),
    ("trace.overhead_ratio", "ratio"),
];

pub const WORKLOADS: [&str; 3] = ["session_mix", "hierarchy", "serve"];

/// Fewest tasks a closed loop measures, whatever `--seconds` says: a
/// p90 needs ten samples beyond it.
pub const MIN_TASKS: usize = 100;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Counts of attempted tasks and their check outcomes.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Errors plus invalid answers.
    pub failed: u64,
    /// Valid answers outside the theorem's bound.
    pub missed: u64,
    /// Self-check failures of the traced run (replay mismatches).
    pub mismatched: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one checked task; keeps the first few failure notes.
    pub fn record(&mut self, what: &str, verdict: Result<check::Verdict, String>) {
        self.attempted += 1;
        let note = match verdict {
            Ok(check::Verdict::Met) => None,
            Ok(check::Verdict::Missed(why)) => {
                self.missed += 1;
                Some(format!("guarantee missed: {what}: {why}"))
            }
            Ok(check::Verdict::Invalid(why)) => {
                self.failed += 1;
                Some(format!("INVALID: {what}: {why}"))
            }
            Err(e) => {
                self.failed += 1;
                Some(format!("ERROR: {what}: {e}"))
            }
        };
        if let Some(n) = note {
            if self.notes.len() < 20 {
                self.notes.push(n);
            }
        }
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatched += 1;
        if self.notes.len() < 20 {
            self.notes.push(format!("REPLAY MISMATCH: {what}"));
        }
    }

    pub fn valid_share(&self) -> f64 {
        1.0 - stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// Share of valid answers within their theorem's bound.
    pub fn guarantee_share(&self) -> f64 {
        let valid = self.attempted - self.failed;
        1.0 - stats::ratio(self.missed as f64, valid as f64)
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.mismatched == 0
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
    pub detail: Vec<String>,
    pub tracer: Option<trace::Tracer>,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let host = host::Host::detect(&args);
    println!("host: {}", host.json());

    let mut report = match args.workload.as_str() {
        "session_mix" => session_mix::run(&args),
        "hierarchy" => hierarchy::run(&args),
        "serve" => serve::run(&args),
        _ => unreachable!("parse_args checked the name"),
    };
    report
        .metrics
        .insert("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN));

    for line in &report.detail {
        println!("detail: {line}");
    }
    for note in &report.tally.notes {
        println!("check: {note}");
    }
    let spec: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    let mut missing = Vec::new();
    for &(name, unit) in spec {
        let value = match report.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                missing.push(name);
                f64::NAN
            }
        };
        println!("metric: {name} = {value} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    if let Some(tracer) = &report.tracer {
        let path = PathBuf::from(".bench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path, &host.json()) {
            Ok(()) => println!(
                "detail: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    let tally = &report.tally;
    let correct = tally.correct() && missing.is_empty();
    if !missing.is_empty() {
        eprintln!("error: metrics not measured: {missing:?}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed + tally.mismatched,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload serve --seed 7 --seconds 25 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve".into(),
                seed: 7,
                seconds: 25.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 25 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload serve --seed 7 --seconds 0 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload serve --seed 7 --seconds 25")).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn shares_count_failures_against_attempts() {
        let mut t = Tally::default();
        t.record("a", Ok(check::Verdict::Met));
        t.record("b", Ok(check::Verdict::Missed("x".into())));
        t.record("c", Err("boom".into()));
        t.record("d", Ok(check::Verdict::Met));
        assert_eq!(t.valid_share(), 0.75);
        assert!((t.guarantee_share() - 2.0 / 3.0).abs() < 1e-12);
        assert!(!t.correct());
    }
}
