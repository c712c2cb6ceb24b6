//! Harmony benchmark: a load generator that drives an in-process
//! `harmony_proto::TcpServer` over loopback TCP.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady|churn|durable|all --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced;
//! `--trace 1` splits the run into untraced, traced-TCP and in-process
//! phases and reports the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md`.

mod churn;
mod client;
mod common;
mod durable;
mod report;
mod stats;
mod steady;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use common::RunCfg;
use report::{json_line, Entry, Provenance, Report};

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("rtt_p50_us", "us"),
    ("rtt_p90_us", "us"),
    ("cycle_p50_ms", "ms"),
    ("cycle_p90_ms", "ms"),
];

/// The per-layer metrics every workload reports with `--trace 1`. Metrics
/// of layers only `durable` reaches (`wal.*`, `loadgen.*`) are printed and
/// stored with the run's results but kept off this list, which every
/// workload must fill with measured values.
const PER_LAYER: [(&str, &str); 36] = [
    ("proto.req_encode_us", "us"),
    ("proto.req_parse_us", "us"),
    ("proto.resp_encode_us", "us"),
    ("proto.resp_parse_us", "us"),
    ("proto.dispatch_us.heartbeat", "us"),
    ("proto.dispatch_us.poll", "us"),
    ("proto.dispatch_us.metric", "us"),
    ("proto.stage_sum_us", "us"),
    ("proto.wire_us", "us"),
    ("proto.echo_us", "us"),
    ("proto.reconcile_gap_pct", "%"),
    ("proto.frame_bytes", "B"),
    ("metrics.record_us", "us"),
    ("metrics.observe_us", "us"),
    ("rsl.parse_us", "us"),
    ("analyze.lint_us", "us"),
    ("core.bundle_ms", "ms"),
    ("core.end_ms", "ms"),
    ("core.phase.candidates_ms", "ms"),
    ("core.phase.prediction_ms", "ms"),
    ("core.phase.optimization_ms", "ms"),
    ("core.phase.commit_ms", "ms"),
    ("core.phase.unattributed_ms", "ms"),
    ("core.decisions_per_arrival", "count"),
    ("core.reevals_per_arrival", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("core.objective_final", "score"),
    ("server.write_hold_ms", "ms"),
    ("server.write_share", "ratio"),
    ("trace.overhead.ops_per_s", "1/s"),
    ("trace.overhead.rtt_p50_us", "us"),
    ("trace.overhead.rtt_p90_us", "us"),
    ("trace.overhead.cycle_p50_ms", "ms"),
    ("trace.overhead.cycle_p90_ms", "ms"),
];

const WORKLOADS: [&str; 3] = ["steady", "churn", "durable"];

/// Where state dirs, trace files and result files go, relative to the
/// checkout root the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn run_one(cfg: &RunCfg, workload: &str, r: &mut Report) -> Result<client::Tally, String> {
    match workload {
        "steady" => steady::run(cfg, r),
        "churn" => churn::run(cfg, r),
        "durable" => durable::run(cfg, r),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

/// Picks the metrics `BENCHMARK.json` lists out of a report; a missing metric or a
/// non-finite value is an error.
fn select(r: &Report, trace: bool, prefix: &str) -> Result<Vec<Entry>, String> {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    list.iter()
        .map(|&(name, unit)| {
            let e = r.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !e.value.is_finite() {
                return Err(format!("metric {name} is not finite ({})", e.value));
            }
            Ok(Entry { name: format!("{prefix}{name}"), value: e.value, unit, n: e.n })
        })
        .collect()
}

fn write_result(path: &Path, prov: &Provenance, workload: &str, trace: bool, r: &Report) {
    let mut text = format!(
        "{{\"workload\": \"{workload}\", \"trace\": {trace}, \"git_rev\": \"{}\", \"cores\": {}, \
         \"profile\": \"{}\", \"seed\": {}, \"state_fs\": \"{}\", \"transport\": \"loopback-tcp\", \"metrics\": {{",
        prov.git_rev, prov.cores, prov.profile, prov.seed, prov.state_fs
    );
    for (i, e) in r.entries().iter().filter(|e| e.value.is_finite()).enumerate() {
        if i > 0 {
            text.push_str(", ");
        }
        let _ = write!(
            text,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}}}",
            e.name, e.value, e.unit, e.n
        );
    }
    text.push_str("}}\n");
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload steady|churn|durable|all --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let cfg = RunCfg { seed: args.seed, seconds: args.seconds, trace: args.trace, epoch, out_dir };
    let prov = Provenance::gather(args.seed, &cfg.out_dir);
    println!("{}", prov.line());

    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let (mut correct, mut attempted, mut failed, mut metrics) = (true, 0u64, 0u64, Vec::new());
    for name in &names {
        let mut r = Report::default();
        let result = run_one(&cfg, name, &mut r);
        let kind = if args.trace { "per-layer (traced run)" } else { "end-to-end" };
        r.print(&format!("{name} seed={} {kind}:", args.seed));
        let suffix = format!("{name}-seed{}-trace{}.json", args.seed, u8::from(args.trace));
        write_result(&cfg.out_dir.join(format!("result-{suffix}")), &prov, name, args.trace, &r);
        match result {
            Ok(tally) => {
                attempted += tally.attempted;
                failed += tally.failed;
                for e in &tally.errors {
                    eprintln!("perfbench: {name}: {e}");
                }
                correct &= tally.failed == 0;
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                correct = false;
                failed += 1;
                attempted += 1;
            }
        }
        let prefix = if names.len() > 1 { format!("{name}.") } else { String::new() };
        match select(&r, args.trace, &prefix) {
            Ok(mut m) => metrics.append(&mut m),
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                correct = false;
            }
        }
    }
    println!("{}", json_line(correct, attempted.max(1), failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this program reports.
    #[test]
    fn benchmark_json_matches_metric_lists() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .match_indices("\"name\": \"")
                .map(|(i, m)| {
                    let rest = &text[start + i + m.len()..];
                    rest[..rest.find('"').expect("name closes")].to_string()
                })
                .collect::<Vec<_>>()
        };
        let names =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(section("end_to_end"), names(&END_TO_END));
        assert_eq!(section("per_layer"), names(&PER_LAYER));
        assert_eq!(section("workloads"), WORKLOADS.map(String::from).to_vec());
    }
}
