//! Benchmark of the Nagano serving system: reads over real TCP, update
//! propagation, and both at once, with per-layer attribution.
//!
//! ```text
//! nagano-perfbench --workload <read_hot|update_storm|mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints what it measured, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! also writes its spans to `.bench_out/`. See `README.md`.

mod client;
mod layers;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use stats::median;

/// Spans written to the trace file; the statistics use all of them.
const SPAN_FILE_LIMIT: usize = 200_000;

/// Cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} out of range"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nagano-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "read_hot" => workloads::read_hot(args.seed, args.seconds, args.trace),
        "update_storm" => workloads::update_storm(args.seed, args.seconds, args.trace),
        "mixed" => workloads::mixed(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("nagano-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let (threads, conns) = run.clients;
    let cores = nproc();
    println!(
        "host: nproc {cores}, {}, profile {}, client threads {threads}, connections {conns}{}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        if threads > cores {
            " (MORE CLIENT THREADS THAN CORES)"
        } else {
            ""
        }
    );
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &run.notes {
        println!("  {note}");
    }
    for (name, value, unit) in &run.metrics {
        println!("e2e {name} = {value:.6} {unit}");
    }

    let mut reported = run.metrics.clone();
    if args.trace {
        let layers = layers::measure(args.seed);
        for note in &layers.notes {
            println!("  {note}");
        }
        for (name, value, unit) in run.extra.iter().filter(|m| m.0 != "trace.overhead_pct") {
            println!("layer {name} = {value:.6} {unit}");
        }
        let self_times = run.trace.self_times_us();
        for (name, v) in &self_times {
            println!(
                "self {name}: median {:.3} us over {} spans, total {:.1} ms",
                median(v),
                v.len(),
                v.iter().sum::<f64>() / 1e3
            );
        }
        if let Some(service) = run.extra.iter().find(|m| m.0 == "attr.service_us") {
            attribution(service.1, &layers.metrics, &self_times);
        }
        if let Some(lag) = run.extra.iter().find(|m| m.0 == "trigger.lag_p50_us") {
            queue_wait(lag.1, &layers.metrics);
        }
        let overhead = run
            .extra
            .iter()
            .find(|m| m.0 == "trace.overhead_pct")
            .map_or(0.0, |m| m.1);
        reported = layers.metrics;
        reported.push(("trace.overhead_pct".into(), overhead, "%"));
        for (name, value, unit) in &reported {
            println!("layer {name} = {value:.6} {unit}");
        }
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match run.trace.write_tsv(&path, SPAN_FILE_LIMIT) {
            Ok(n) => println!(
                "spans: {n} of {} written to {}",
                run.trace.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("nagano-perfbench: writing {}: {e}", path.display()),
        }
    }

    let ratio = run.failed as f64 / run.attempted.max(1) as f64;
    println!(
        "fail_ratio = {ratio} ({} of {} operations)",
        run.failed, run.attempted
    );
    let mut metrics = String::new();
    for (i, (name, value, unit)) in reported.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.failed == 0,
        run.attempted.max(1),
        run.failed
    );
    ExitCode::SUCCESS
}

/// Closed-loop service time per request against the sum of the parse,
/// respond and write medians; the residual is syscalls, loopback and
/// scheduling.
fn attribution(
    service_us: f64,
    layers: &[(String, f64, &'static str)],
    self_times: &std::collections::BTreeMap<&'static str, Vec<f64>>,
) {
    let get = |n: &str| layers.iter().find(|m| m.0 == n).map_or(0.0, |m| m.1);
    let respond_us = self_times.get("core.respond").map_or(0.0, |v| median(v));
    let parts = get("httpd.parse_ns") / 1e3 + respond_us + get("httpd.write_ns") / 1e3;
    let residual = service_us - parts;
    println!(
        "attribution: closed-loop service {service_us:.2} us/request = parse {:.3} + respond {respond_us:.3} + write {:.3} us + residual {residual:.2} us ({:.1}% of service)",
        get("httpd.parse_ns") / 1e3,
        get("httpd.write_ns") / 1e3,
        100.0 * residual / service_us
    );
}

/// Commit-to-fresh p50 under contention against the commit and
/// `process_txn` medians measured alone; the rest is queue wait.
fn queue_wait(lag_us: f64, layers: &[(String, f64, &'static str)]) {
    let get = |n: &str| layers.iter().find(|m| m.0 == n).map_or(0.0, |m| m.1);
    let (commit, process) = (get("db.commit_us"), get("trigger.process_txn_us"));
    println!(
        "layer trigger.queue_wait_us = {:.3} us (lag p50 {lag_us:.1} - commit {commit:.1} - process_txn {process:.1})",
        lag_us - commit - process
    );
}
