//! Real-TCP serving hot-path benchmark (DESIGN.md §13).
//!
//! Boots a prewarmed [`ServingSite`] behind `nagano-httpd` and drives it
//! with the open-loop load harness ([`crate::loadgen`]). The serving path
//! is zero-copy: preserialised heads computed once per cache fill,
//! `Arc`-backed bodies straight from the cache shard, and one vectored
//! write per response.
//!
//! The site gets a paced open-loop run (latency percentiles at a fixed
//! arrival rate) and a closed-loop run (capacity: every connection
//! issues its schedule back-to-back). Full mode adds a worker-count
//! sweep. The request **schedule** is seed-deterministic and
//! fingerprinted; the committed `BENCH_serving.json` carries it so CI
//! can check the benchmark still describes today's workload even though
//! the measured numbers are wall-clock.

use std::sync::Arc;

use serde_json::json;

use nagano::{ServingSite, SiteConfig};
use nagano_httpd::ServerConfig;
use nagano_workload::RequestModel;

use crate::fmt::TextTable;
use crate::loadgen::{execute, LoadPlan, PlanConfig, RunReport};
use crate::{ExpConfig, ExpResult};

/// Mid-Games day whose popularity table shapes the page mix.
const DAY: u32 = 8;

/// Fraction of requests that revalidate with `If-None-Match`.
const INM_FRACTION: f64 = 0.3;

/// Worker counts swept in full mode (closed loop).
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

struct ModeReports {
    latency: RunReport,
    capacity: RunReport,
}

/// Boot a site with `workers` server threads and run both plans against
/// it.
fn run_mode(
    config: &ExpConfig,
    workers: usize,
    warmup_plan: &LoadPlan,
    latency_plan: &LoadPlan,
    capacity_plan: &LoadPlan,
) -> ModeReports {
    let site = Arc::new(ServingSite::build(if config.quick {
        SiteConfig::small()
    } else {
        SiteConfig::full()
    }));
    let server_cfg = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let server = site
        .serve_http("127.0.0.1:0", 0, server_cfg)
        .expect("bind benchmark server");
    // Unmeasured warmup: fault in code paths, allocator arenas, and the
    // kernel's accept/connection state before the paced run.
    let _ = execute(warmup_plan, server.addr());
    let latency = execute(latency_plan, server.addr());
    let capacity = execute(capacity_plan, server.addr());
    server.shutdown();
    ModeReports { latency, capacity }
}

/// The servable-page popularity table for the benchmark day.
fn popularity_pages(config: &ExpConfig) -> Vec<(String, f64)> {
    let site = ServingSite::build(if config.quick {
        let mut c = SiteConfig::small();
        c.prewarm = false;
        c
    } else {
        let mut c = SiteConfig::full();
        c.prewarm = false;
        c
    });
    let model = RequestModel::new(
        site.db(),
        Arc::clone(site.registry()),
        config.scale.max(1.0),
    );
    model
        .popularity_weights(DAY)
        .into_iter()
        .map(|(key, w)| (key.to_url(), w))
        .collect()
}

/// Serving benchmark over real TCP.
pub fn serving(config: &ExpConfig) -> ExpResult {
    let pages = popularity_pages(config);
    // Connection count stays modest: the harness and server share the
    // machine, and drowning a small core count in client threads
    // measures the scheduler, not the serving path.
    let (connections, rate_rps, duration_secs) = if config.quick {
        (4, 2_000.0, 0.5)
    } else {
        (4, 4_000.0, 3.0)
    };
    let latency_plan = LoadPlan::generate(
        PlanConfig {
            seed: config.seed,
            connections,
            rate_rps,
            duration_secs,
            inm_fraction: INM_FRACTION,
            closed_loop: false,
        },
        &pages,
    );
    let capacity_plan = LoadPlan::generate(
        PlanConfig {
            closed_loop: true,
            ..latency_plan.config.clone()
        },
        &pages,
    );
    let warmup_plan = LoadPlan::generate(
        PlanConfig {
            seed: config.seed ^ 0x5743, // distinct stream, same shape
            duration_secs: 0.1,
            closed_loop: true,
            ..latency_plan.config.clone()
        },
        &pages,
    );
    let workers = ServerConfig::from_env().workers;

    let reports = run_mode(config, workers, &warmup_plan, &latency_plan, &capacity_plan);

    let mut table = TextTable::new([
        "run",
        "rps",
        "rps/core",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "p99.9 (ms)",
        "304 (%)",
        "shed (%)",
        "errors",
    ]);
    let mut row = |label: &str, r: &RunReport| {
        table.row([
            label.to_string(),
            format!("{:.0}", r.rps),
            format!("{:.0}", r.per_core_rps),
            format!("{:.3}", r.p50_ms),
            format!("{:.3}", r.p95_ms),
            format!("{:.3}", r.p99_ms),
            format!("{:.3}", r.p999_ms),
            format!("{:.1}", 100.0 * r.not_modified_ratio()),
            format!("{:.1}", 100.0 * r.shed_rate()),
            r.errors.to_string(),
        ]);
    };
    row("paced", &reports.latency);
    row("capacity", &reports.capacity);

    // Worker sweep: capacity as server threads scale (full mode only —
    // the quick CI run keeps to one server shape).
    let mut sweep_rows = Vec::new();
    if !config.quick {
        for w in WORKER_SWEEP {
            let m = run_mode(config, w, &warmup_plan, &latency_plan, &capacity_plan);
            row(&format!("capacity, {w} workers"), &m.capacity);
            sweep_rows.push(json!({
                "workers": w,
                "capacity": m.capacity.to_json(),
            }));
        }
    }

    // Both runs replay one schedule against a site with no updates, so
    // they must revalidate the same requests.
    let clean = reports.latency.errors == 0 && reports.capacity.errors == 0;
    let revalidated = reports.latency.not_modified > 0
        && reports.latency.not_modified == reports.capacity.not_modified;
    let verdict = format!(
        "Paper §3.2: the serving path must sustain Olympic request rates from the cache \
         without touching the page-generation machinery.\n\
         Measured: the zero-copy cached path sustains {:.0} rps with paced p99 {:.3} ms; \
         304 ratio {:.1}% never touched the render pool — acceptance checks {}.",
        reports.capacity.rps,
        reports.latency.p99_ms,
        100.0 * reports.latency.not_modified_ratio(),
        if clean && revalidated {
            "hold"
        } else {
            "FAILED"
        }
    );

    ExpResult {
        id: "serving",
        title: "Serving hot path over real TCP: zero-copy",
        rendered: table.render(),
        json: json!({
            // Everything under `schedule` is seed-deterministic: CI
            // recomputes it and compares against the committed
            // BENCH_serving.json even though `measured` is wall-clock.
            "schedule": json!({
                "seed": config.seed,
                "day": DAY,
                "connections": connections,
                "rate_rps": rate_rps,
                "duration_secs": duration_secs,
                "inm_fraction": INM_FRACTION,
                "pages": pages.len(),
                "requests": latency_plan.requests.len(),
                "digest": format!("{:016x}", latency_plan.digest()),
                "capacity_digest": format!("{:016x}", capacity_plan.digest()),
            }),
            "measured": json!({
                "workers": workers,
                "latency": reports.latency.to_json(),
                "capacity": reports.capacity.to_json(),
                "thread_sweep": sweep_rows,
            }),
        }),
        verdict,
    }
}
