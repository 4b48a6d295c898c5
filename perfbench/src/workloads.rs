//! The three workloads. Each builds the site as shipped
//! (`SiteConfig::full()`), measures for the given seconds and checks the
//! program's outputs. A traced run repeats the measured phases with spans
//! on, and reports the difference as the tracing overhead.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use nagano::{ServingSite, SiteConfig};
use nagano_httpd::{Request, Response, Server, ServerConfig};
use nagano_pagegen::Renderer;
use nagano_simcore::DeterministicRng;
use nagano_workload::{RequestModel, ScheduledUpdate, UpdateSchedule};

use crate::client::{self, Closed, Conn, Expect, Mix, Paced};
use crate::stats::{fnv1a, median, peak_rss_mb, quantile};
use crate::trace::{now_ns, SharedSpans, Span, Trace, ROOT};

/// Site builds per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 9;
/// Day of the Games whose popularity mix the readers follow.
const DAY: u32 = 8;
/// Client connections of `read_hot`, capped at the host's cores.
const READ_HOT_CONNS: usize = 2;
/// Aggregate paced rate of `read_hot`, well below where the client
/// falls behind its schedule on two cores.
const READ_HOT_RPS: f64 = 5_000.0;
/// Paced rate of the single `mixed` read connection.
const MIXED_RPS: f64 = 2_000.0;
/// Update rate of `mixed`, about a third of a core of regeneration.
const MIXED_TXN_PER_S: f64 = 100.0;
/// How long `mixed` waits for the trigger runner to catch up after its
/// phases; a transaction still unprocessed then counts as failed. The
/// closed-loop reader can leave the runner seconds behind (more so when
/// traced), and a traced 20 s run with two full drains still ends within
/// three minutes.
const DRAIN_LIMIT: Duration = Duration::from_secs(45);
/// Serving node the HTTP server answers as.
const NODE: usize = 0;
/// Unmeasured closed-loop warm-up before the measured phases, seconds.
const WARMUP_SECS: f64 = 0.3;
/// Share of the run given to the closed-loop phase; the paced phase
/// gets the rest.
const CLOSED_SHARE: f64 = 0.6;

/// What one workload run measured.
#[derive(Default)]
pub struct Run {
    /// End-to-end `(name, value, unit)`, measured with tracing off.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Workload-specific per-layer values of a traced run.
    pub extra: Vec<(String, f64, &'static str)>,
    /// Operations attempted: requests, transactions and cache entries checked.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of a traced run.
    pub trace: Trace,
    /// Client threads and connections the run used.
    pub clients: (usize, usize),
}

impl Run {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push((name.to_string(), value, unit));
    }

    fn count(&mut self, t: &client::Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
    }
}

/// Build the site `SETUP_BUILDS` times and keep the last one; returns it
/// with the median build time in seconds.
pub fn setup() -> (Arc<ServingSite>, f64) {
    let mut times = Vec::with_capacity(SETUP_BUILDS);
    let mut site = None;
    for _ in 0..SETUP_BUILDS {
        drop(site.take());
        let t = Instant::now();
        let built = ServingSite::build(SiteConfig::full());
        times.push(t.elapsed().as_secs_f64());
        site = Some(built);
    }
    (Arc::new(site.expect("at least one build")), median(&times))
}

/// The day-8 popularity mix over the site's pages.
pub fn day_mix(site: &ServingSite) -> Mix {
    let model = RequestModel::new(site.db(), Arc::clone(site.registry()), 1.0);
    Mix::new(
        model
            .popularity_weights(DAY)
            .into_iter()
            .map(|(k, w)| (k.to_url(), w))
            .collect(),
    )
}

/// The 16-day update schedule for the site's Games.
pub fn schedule(site: &ServingSite, seed: u64) -> Vec<ScheduledUpdate> {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    UpdateSchedule::generate(site.db(), &mut rng)
        .updates()
        .to_vec()
}

/// The update stream of replay pass `pass`.
pub fn pass_rng(seed: u64, pass: u64) -> DeterministicRng {
    DeterministicRng::seed_from_u64(seed ^ (pass + 1).wrapping_mul(0xd1b5_4a32_d192_ed03))
}

/// One seeded request stream per client connection.
fn client_rngs(seed: u64, salt: u64, n: usize) -> Vec<DeterministicRng> {
    (0..n as u64)
        .map(|c| DeterministicRng::seed_from_u64(seed ^ salt.wrapping_mul(c + 1)))
        .collect()
}

/// Compare every (page, node) cache entry with a fresh render from the
/// final database; returns `(entries checked, entries that differ)`.
pub fn check_fleet(site: &ServingSite) -> (u64, u64) {
    let renderer = Renderer::new(Arc::clone(site.db()));
    let mut checked = 0;
    let mut wrong = 0;
    for (key, _) in site.registry().pages() {
        let want = renderer.render(*key).body;
        let url = key.to_url();
        for member in site.fleet().members() {
            checked += 1;
            match member.peek(&url) {
                Some(page) if page.body == want => {}
                _ => wrong += 1,
            }
        }
    }
    (checked, wrong)
}

/// Bind the HTTP server for node `NODE`. With `spans`, every
/// `ServingSite::respond` call is wrapped in a span named by its outcome.
fn serve(site: &Arc<ServingSite>, spans: Option<&Arc<SharedSpans>>) -> Server {
    let Some(spans) = spans else {
        return site
            .serve_http("127.0.0.1:0", NODE, ServerConfig::default())
            .expect("bind benchmark server");
    };
    let (site, spans) = (Arc::clone(site), Arc::clone(spans));
    let handler = Arc::new(move |req: &Request| -> Response {
        let start = now_ns();
        let resp = site.respond(NODE, req);
        let end = now_ns();
        let name = if resp.status.code() == 304 {
            "core.respond_304"
        } else {
            "core.respond"
        };
        spans.push(Span {
            name,
            start,
            end,
            parent: ROOT,
            req: 0,
            tag: fnv1a(req.path.as_bytes()),
        });
        resp
    });
    Server::bind("127.0.0.1:0", handler, ServerConfig::default()).expect("bind benchmark server")
}

fn connect(server: &Server, mix: &Mix, n: usize) -> Vec<Conn> {
    (0..n)
        .map(|_| {
            Conn::connect(server.addr(), mix.pages.len()).expect("connect to benchmark server")
        })
        .collect()
}

/// Merge client and server spans of a read phase and link each server
/// span to the client request it answered.
fn read_trace(closed: Closed, paced: Paced, server: &SharedSpans) -> Trace {
    let mut trace = closed.trace;
    trace.absorb(paced.trace);
    trace.absorb(server.take());
    trace.link_by_containment("core.respond", "loadgen.request");
    trace.link_by_containment("core.respond_304", "loadgen.request");
    trace
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// p50 and p99 in ms of `ns`.
fn p50_p99_ms(ns: &[f64]) -> (f64, f64) {
    let mut v = ns.to_vec();
    (ms(quantile(&mut v, 0.5)), ms(quantile(&mut v, 0.99)))
}

/// Describe a paced phase with its generator lateness; flag it when the
/// generator ran late by as much as half the latency p99. Returns the
/// lateness p50 and p99 in ms.
fn paced_note(run: &mut Run, label: &str, p: &Paced) -> (f64, f64) {
    let (p50, p99) = p50_p99_ms(&p.latency_ns);
    let (late50, late99) = p50_p99_ms(&p.late_ns);
    let flag = if late99 >= 0.5 * p99 {
        " FLAG: the generator ran late by the order of p99, so this measures the client"
    } else {
        ""
    };
    run.notes.push(format!(
        "{label}, open loop: {} samples, from due time p50 {p50:.4} ms, p99 {p99:.4} ms; generator late p50 {late50:.4} ms, p99 {late99:.4} ms{flag}",
        p.latency_ns.len(),
    ));
    (late50, late99)
}

/// Describe a closed-loop phase and record its end-to-end metrics:
/// throughput, and latency p50 and p99 as the median over windows.
fn closed_metrics(run: &mut Run, label: &str, c: &Closed) {
    run.put("ops_per_s", c.rate(), "1/s");
    run.put("p50_ms", c.windowed_ms(0.5), "ms");
    run.put("p99_ms", c.windowed_ms(0.99), "ms");
    run.notes.push(format!(
        "{label}, closed loop: {} requests ({} answered 304), {:.0} req/s (mean of the middle half of {} windows); latency p50 {:.4} ms, p99 {:.4} ms over the phase",
        c.tally.attempted,
        c.tally.not_modified,
        c.rate(),
        c.windows.len(),
        c.pooled_ms(0.5),
        c.pooled_ms(0.99),
    ));
}

fn rate_overhead_pct(untraced: f64, traced: f64) -> f64 {
    100.0 * (untraced - traced) / untraced
}

/// `read_hot`: closed-loop capacity, then a paced phase, over keep-alive
/// connections, with no updates.
pub fn read_hot(seed: u64, secs: f64, traced: bool) -> Run {
    let conns_n = READ_HOT_CONNS.min(crate::nproc());
    let mut run = Run {
        clients: (conns_n, conns_n),
        ..Run::default()
    };
    let (site, setup_s) = setup();
    let rss_setup = peak_rss_mb();
    let mix = day_mix(&site);
    let expected: Vec<(Bytes, u64)> = mix
        .pages
        .iter()
        .map(|p| {
            let page = site
                .fleet()
                .member(NODE)
                .peek(&p.path)
                .expect("prewarmed page is cached");
            (page.body, page.version)
        })
        .collect();
    let expect = Expect::Fixed(&expected);
    let mut rngs = client_rngs(seed, 0x9e37_79b9_7f4a_7c15, conns_n);

    let mut phases = |run: &mut Run, spans: Option<&Arc<SharedSpans>>| {
        let server = serve(&site, spans);
        let mut conns = connect(&server, &mix, conns_n);
        let warm = client::closed_loop(&mut conns, &mix, &mut rngs, &expect, WARMUP_SECS, false);
        let before = site.fleet().aggregate_stats();
        let closed = client::closed_loop(
            &mut conns,
            &mix,
            &mut rngs,
            &expect,
            CLOSED_SHARE * secs,
            spans.is_some(),
        );
        let paced = client::paced(
            &mut conns,
            &mix,
            &mut rngs,
            &expect,
            READ_HOT_RPS,
            (1.0 - CLOSED_SHARE) * secs,
            spans.is_some(),
        );
        let after = site.fleet().aggregate_stats();
        drop(conns);
        server.shutdown();
        for t in [&warm.tally, &closed.tally, &paced.tally] {
            run.count(t);
        }
        (
            closed,
            paced,
            after.hits - before.hits,
            after.misses - before.misses,
        )
    };

    let (closed, paced, hits, misses) = phases(&mut run, None);
    run.put("setup_s", setup_s, "s");
    closed_metrics(
        &mut run,
        &format!("capacity over {conns_n} connections"),
        &closed,
    );
    let (late50, late99) = paced_note(
        &mut run,
        &format!("paced at {READ_HOT_RPS:.0} req/s"),
        &paced,
    );
    run.notes.push(format!(
        "cache: {hits} hits, {misses} misses in the measured phases"
    ));

    if traced {
        let spans = Arc::new(SharedSpans::default());
        let (closed_t, paced_t, _, _) = phases(&mut run, Some(&spans));
        let overhead = rate_overhead_pct(closed.rate(), closed_t.rate());
        let service_us = 1e6 * conns_n as f64 / closed_t.rate();
        run.trace = read_trace(closed_t, paced_t, &spans);
        run.extra("loadgen.late_p50_ms", late50, "ms");
        run.extra("loadgen.late_p99_ms", late99, "ms");
        run.extra(
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        run.extra("core.miss_count", misses as f64, "count");
        run.extra("trace.overhead_pct", overhead, "%");
        run.extra("attr.service_us", service_us, "us");
    }
    run.put("rss_mb", peak_rss_mb(), "MiB");
    run.notes
        .push(format!("peak rss after setup {rss_setup:.1} MiB"));
    run
}

/// Replay passes of `updates` until `secs` have passed (at least one),
/// each on a freshly built site with its own update seed; every commit is
/// processed synchronously. Returns the overall transaction rate, the
/// per-pass rates, per-transaction commit-to-fresh times in ns, and
/// regenerations.
fn storm_passes(
    run: &mut Run,
    mut site: Option<Arc<ServingSite>>,
    updates: &[ScheduledUpdate],
    seed: u64,
    secs: f64,
    traced: bool,
) -> (f64, Vec<f64>, Vec<f64>, u64) {
    let mut rates = Vec::new();
    let mut fresh_ns = Vec::new();
    let mut regenerated = 0u64;
    let mut total_busy = 0.0;
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut pass = 0u64;
    while pass == 0 || Instant::now() < deadline {
        let s = site
            .take()
            .unwrap_or_else(|| Arc::new(ServingSite::build(SiteConfig::full())));
        let mut rng = pass_rng(seed, pass);
        let mut busy = 0.0;
        for u in updates {
            let t0 = Instant::now();
            let start = if traced { now_ns() } else { 0 };
            let txn = UpdateSchedule::apply(u, s.db(), &mut rng);
            let committed = if traced { now_ns() } else { 0 };
            let out = s.monitor().process_txn(&txn);
            let dt = t0.elapsed();
            if traced {
                let end = now_ns();
                let root = run.trace.record("txn", start, end, ROOT, txn.id.0, 0);
                run.trace
                    .record("db.commit", start, committed, root, txn.id.0, 0);
                run.trace
                    .record("trigger.process_txn", committed, end, root, txn.id.0, 0);
            }
            busy += dt.as_secs_f64();
            fresh_ns.push(dt.as_nanos() as f64);
            regenerated += out.regenerated.len() as u64;
        }
        rates.push(updates.len() as f64 / busy);
        total_busy += busy;
        run.attempted += updates.len() as u64;
        let (checked, wrong) = check_fleet(&s);
        run.attempted += checked;
        run.failed += wrong;
        pass += 1;
    }
    let rate = fresh_ns.len() as f64 / total_busy;
    (rate, rates, fresh_ns, regenerated)
}

/// `update_storm`: one thread replays the schedule in passes, committing
/// each update and processing it synchronously; no HTTP.
pub fn update_storm(seed: u64, secs: f64, traced: bool) -> Run {
    let mut run = Run {
        clients: (1, 0),
        ..Run::default()
    };
    let (site, setup_s) = setup();
    let rss_setup = peak_rss_mb();
    let updates = schedule(&site, seed);
    let (rate, rates, fresh_ns, regenerated) =
        storm_passes(&mut run, Some(site), &updates, seed, secs, false);
    let (p50, p99) = p50_p99_ms(&fresh_ns);
    run.put("setup_s", setup_s, "s");
    run.put("ops_per_s", rate, "1/s");
    run.put("p50_ms", p50, "ms");
    run.put("p99_ms", p99, "ms");
    run.notes.push(format!(
        "{} passes x {} txns, {regenerated} page regenerations; txn/s per pass median {:.1} (min {:.1}, max {:.1}); {} commit-to-fresh samples",
        rates.len(),
        updates.len(),
        median(&rates),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        rates.iter().copied().fold(0.0, f64::max),
        fresh_ns.len()
    ));
    if traced {
        let (rate_t, _, _, _) = storm_passes(&mut run, None, &updates, seed, secs, true);
        run.extra("trace.overhead_pct", rate_overhead_pct(rate, rate_t), "%");
    }
    run.put("rss_mb", peak_rss_mb(), "MiB");
    run.notes
        .push(format!("peak rss after setup {rss_setup:.1} MiB"));
    run
}

/// What the `mixed` update thread saw.
struct UpdateLog {
    /// Commit start minus due time, per transaction, ns.
    late_ns: Vec<f64>,
    /// Commit start to processed by the trigger monitor, per transaction, ns.
    fresh_ns: Vec<f64>,
    /// Transactions committed.
    committed: u64,
}

/// Commit the schedule at `MIXED_TXN_PER_S` until `stop`, then wait for
/// the monitor to drain. A transaction counts as processed once the
/// monitor's processed-transaction counter covers it: the runner handles
/// commits in order, and the counter moves only after a transaction's
/// pages are regenerated on every node. (`TriggerMonitor::watermark`
/// moves when processing starts, so it cannot time freshness.)
fn update_thread(
    site: &ServingSite,
    updates: &[ScheduledUpdate],
    seed: u64,
    stop: &AtomicBool,
    traced: bool,
) -> (UpdateLog, Trace) {
    crate::sys::tight_timer_slack();
    let mut trace = Trace::default();
    let stats = site.monitor().stats();
    let base = stats.snapshot().txns;
    let mut log = UpdateLog {
        late_ns: Vec::new(),
        fresh_ns: Vec::new(),
        committed: 0,
    };
    let mut started: Vec<(Instant, u64, u32)> = Vec::new();
    let mut seen = 0usize;
    let poll = |seen: &mut usize,
                started: &[(Instant, u64, u32)],
                log: &mut UpdateLog,
                trace: &mut Trace| {
        let done = (stats.snapshot().txns - base) as usize;
        let now = Instant::now();
        let now_span = if traced { now_ns() } else { 0 };
        while *seen < done.min(started.len()) {
            let (t, span_start, root) = started[*seen];
            log.fresh_ns.push((now - t).as_nanos() as f64);
            if traced {
                // The transaction's root span ends when it is fresh.
                trace.spans[root as usize].end = now_span.max(span_start);
            }
            *seen += 1;
        }
    };
    let t0 = Instant::now();
    let mut pass = 0u64;
    let mut rng = pass_rng(seed, pass);
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let due = t0 + Duration::from_secs_f64(log.committed as f64 / MIXED_TXN_PER_S);
        loop {
            poll(&mut seen, &started, &mut log, &mut trace);
            let now = Instant::now();
            if now >= due || stop.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_micros(200)));
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let start = Instant::now();
        let span_start = if traced { now_ns() } else { 0 };
        log.late_ns.push((start - due).as_nanos() as f64);
        let txn = UpdateSchedule::apply(&updates[i], site.db(), &mut rng);
        let root = if traced {
            let end = now_ns();
            let root = trace.record("txn", span_start, end, ROOT, txn.id.0, 0);
            trace.record("db.commit", span_start, end, root, txn.id.0, 0);
            root
        } else {
            0
        };
        started.push((start, span_start, root));
        log.committed += 1;
        i += 1;
        if i == updates.len() {
            i = 0;
            pass += 1;
            rng = pass_rng(seed, pass);
        }
    }
    let limit = Instant::now() + DRAIN_LIMIT;
    while seen < started.len() && Instant::now() < limit {
        poll(&mut seen, &started, &mut log, &mut trace);
        std::thread::sleep(Duration::from_micros(200));
    }
    (log, trace)
}

/// `mixed`: one read connection (closed loop, then paced) while an update
/// thread commits at a fixed rate and the site's trigger runner applies
/// the updates in place.
pub fn mixed(seed: u64, secs: f64, traced: bool) -> Run {
    let mut run = Run {
        clients: (2, 1),
        ..Run::default()
    };
    let (site, setup_s) = setup();
    let rss_setup = peak_rss_mb();
    let mix = day_mix(&site);
    let updates = schedule(&site, seed);
    let mut rngs = client_rngs(seed, 0x94d0_49bb_1331_11eb, 1);

    let mut phases = |run: &mut Run, spans: Option<&Arc<SharedSpans>>| {
        let runner = site.spawn_trigger_runner();
        let server = serve(&site, spans);
        let mut conns = connect(&server, &mix, 1);
        let stop = AtomicBool::new(false);
        let rngs = &mut rngs;
        let (warm, closed, paced, (log, writer_trace)) = std::thread::scope(|s| {
            let writer = s.spawn(|| update_thread(&site, &updates, seed, &stop, spans.is_some()));
            let expect = Expect::Evolving;
            let warm = client::closed_loop(&mut conns, &mix, rngs, &expect, WARMUP_SECS, false);
            let closed = client::closed_loop(
                &mut conns,
                &mix,
                rngs,
                &expect,
                CLOSED_SHARE * secs,
                spans.is_some(),
            );
            let paced = client::paced(
                &mut conns,
                &mix,
                rngs,
                &expect,
                MIXED_RPS,
                (1.0 - CLOSED_SHARE) * secs,
                spans.is_some(),
            );
            stop.store(true, Ordering::Relaxed);
            (
                warm,
                closed,
                paced,
                writer.join().expect("update thread panicked"),
            )
        });
        drop(conns);
        server.shutdown();
        runner.stop();
        for t in [&warm.tally, &closed.tally, &paced.tally] {
            run.count(t);
        }
        run.attempted += log.committed;
        run.failed += log.committed - log.fresh_ns.len() as u64;
        (closed, paced, log, writer_trace)
    };

    let (closed, paced, log, _) = phases(&mut run, None);
    run.put("setup_s", setup_s, "s");
    closed_metrics(&mut run, "capacity of 1 connection under updates", &closed);
    let (late50, late99) = paced_note(
        &mut run,
        &format!("paced at {MIXED_RPS:.0} req/s under updates"),
        &paced,
    );
    let (fresh50, fresh99) = p50_p99_ms(&log.fresh_ns);
    let (_, upd_late99) = p50_p99_ms(&log.late_ns);
    run.notes.push(format!(
        "updates: {} txns at {MIXED_TXN_PER_S:.0}/s; commit-to-fresh p50 {fresh50:.3} ms, p99 {fresh99:.3} ms over {} samples; update thread late p99 {upd_late99:.3} ms",
        log.committed,
        log.fresh_ns.len()
    ));

    if traced {
        let spans = Arc::new(SharedSpans::default());
        let (closed_t, paced_t, log_t, writer_trace) = phases(&mut run, Some(&spans));
        let overhead = rate_overhead_pct(closed.rate(), closed_t.rate());
        let (lag50, lag99) = p50_p99_ms(&log_t.fresh_ns);
        run.trace = read_trace(closed_t, paced_t, &spans);
        run.trace.absorb(writer_trace);
        run.extra("loadgen.late_p50_ms", late50, "ms");
        run.extra("loadgen.late_p99_ms", late99, "ms");
        run.extra("trigger.lag_p50_us", lag50 * 1e3, "us");
        run.extra("trigger.lag_p99_us", lag99 * 1e3, "us");
        run.extra("trace.overhead_pct", overhead, "%");
    }
    let (checked, wrong) = check_fleet(&site);
    run.attempted += checked;
    run.failed += wrong;
    run.notes.push(format!(
        "fleet after drain: {wrong} of {checked} (page, node) entries differ from a fresh render"
    ));
    run.put("rss_mb", peak_rss_mb(), "MiB");
    run.notes
        .push(format!("peak rss after setup {rss_setup:.1} MiB"));
    run
}
