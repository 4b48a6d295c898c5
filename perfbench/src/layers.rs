//! Per-layer kernels of a traced run: each layer's public call timed on
//! inputs made from the run's seed, on private sites so the workload's own
//! site is not disturbed. Every traced run measures the same kernels, so
//! the per-layer metrics exist on every workload.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, IoSlice, Write};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use nagano::{ServingSite, SiteConfig};
use nagano_cache::{CacheConfig, CacheFleet, PrebuiltHead};
use nagano_httpd::{prebuilt_html_head, Request, RequestReader, Response};
use nagano_odg::{DupEngine, Interner, NodeKind, StalenessPolicy};
use nagano_pagegen::{CostModel, FragmentKey, PageKey, Renderer};
use nagano_simcore::DeterministicRng;
use nagano_workload::UpdateSchedule;

use crate::stats::{mean, median};
use crate::workloads::{check_fleet, day_mix, pass_rng, schedule};

/// Requests in the parse / lookup / respond / write sample.
const SAMPLE: usize = 20_000;
/// Repetitions of each batch-timed kernel; the median is reported.
const REPS: usize = 5;

/// Page classes, one render metric each.
pub const CLASSES: [&str; 12] = [
    "home",
    "medals",
    "sport",
    "event",
    "country",
    "athlete",
    "news",
    "news_index",
    "frag_results",
    "frag_medals",
    "frag_headlines",
    "static",
];

/// The class of `key` in [`CLASSES`].
pub fn class(key: PageKey) -> &'static str {
    match key {
        PageKey::Home(_) => "home",
        PageKey::Medals => "medals",
        PageKey::Sport(_) => "sport",
        PageKey::Event(_) => "event",
        PageKey::Country(_) => "country",
        PageKey::Athlete(_) => "athlete",
        PageKey::News(_) => "news",
        PageKey::NewsIndex(_) => "news_index",
        PageKey::Fragment(FragmentKey::ResultTable(_)) => "frag_results",
        PageKey::Fragment(FragmentKey::MedalTable) => "frag_medals",
        PageKey::Fragment(FragmentKey::Headlines(_)) => "frag_headlines",
        PageKey::Welcome | PageKey::Nagano | PageKey::Fun | PageKey::Venue(_) => "static",
    }
}

/// A writer that only counts bytes, standing in for a socket.
#[derive(Default)]
struct CountingSink(u64);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let n: usize = bufs.iter().map(|b| b.len()).sum();
        self.0 += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Mean ns per item of `f` over `items`, median of [`REPS`] repetitions.
fn batch_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for it in items {
                f(it);
            }
            t.elapsed().as_nanos() as f64 / items.len().max(1) as f64
        })
        .collect();
    median(&reps)
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Per-layer values and the lines that explain them.
pub struct Layers {
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines.
    pub notes: Vec<String>,
}

impl Layers {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

/// Run every kernel. Returns the metrics in a fixed order.
pub fn measure(seed: u64) -> Layers {
    let mut l = Layers {
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    serving_kernels(&mut l, seed);
    update_kernels(&mut l, seed);
    render_kernels(&mut l, seed);
    propagation_modes(&mut l, seed);
    l
}

/// httpd parse and write, `ServingSite::respond` by outcome, and the
/// cache lookup, on a seeded day-8 request sample.
fn serving_kernels(l: &mut Layers, seed: u64) {
    let site = ServingSite::build(SiteConfig::full());
    let mix = day_mix(&site);
    let mut rng = DeterministicRng::seed_from_u64(seed ^ 0x5eed_0001);
    let mut plain_bytes = Vec::new();
    let mut cond_bytes = Vec::new();
    let mut urls = Vec::with_capacity(SAMPLE);
    for _ in 0..SAMPLE {
        let (idx, conditional) = mix.draw(&mut rng);
        let path = &mix.pages[idx].path;
        urls.push(path.clone());
        if conditional {
            let version = site.fleet().member(0).peek(path).map_or(1, |p| p.version);
            cond_bytes.push(
                format!(
                    "GET {path} HTTP/1.1\r\nHost: nagano\r\nIf-None-Match: \"v{version}\"\r\n\r\n"
                )
                .into_bytes(),
            );
        } else {
            plain_bytes.push(format!("GET {path} HTTP/1.1\r\nHost: nagano\r\n\r\n").into_bytes());
        }
    }
    let all_bytes: Vec<&Vec<u8>> = plain_bytes.iter().chain(cond_bytes.iter()).collect();
    let mut reader = RequestReader::new();
    let mut req = Request::empty();
    let parse_ns = batch_ns(&all_bytes, |b| {
        let mut r: &[u8] = b;
        reader
            .read_into(&mut r, &mut req)
            .expect("sample request parses");
        std::hint::black_box(&req);
    });
    let parse = |bytes: &[Vec<u8>]| -> Vec<Request> {
        bytes
            .iter()
            .map(|b| {
                let mut r: &[u8] = b;
                nagano_httpd::http::read_request(&mut r).expect("sample request parses")
            })
            .collect()
    };
    let plain = parse(&plain_bytes);
    let cond = parse(&cond_bytes);
    let hit_ns = batch_ns(&plain, |r| {
        std::hint::black_box(site.respond(0, r));
    });
    let not_modified_ns = batch_ns(&cond, |r| {
        std::hint::black_box(site.respond(0, r));
    });
    let responses: Vec<Response> = plain
        .iter()
        .chain(cond.iter())
        .map(|r| site.respond(0, r))
        .collect();
    let wrong_304 = cond
        .iter()
        .zip(&responses[plain.len()..])
        .filter(|(_, r)| r.status.code() != 304)
        .count();
    let mut scratch = Vec::with_capacity(256);
    let mut sink = CountingSink::default();
    let write_ns = batch_ns(&responses, |r| {
        r.write_with_scratch(&mut sink, true, &mut scratch)
            .expect("sink write");
    });
    let resp_bytes = sink.0 as f64 / (REPS * responses.len()) as f64;
    let get_ns = batch_ns(&urls, |u| {
        std::hint::black_box(site.fleet().get_from(0, u));
    });
    l.put("httpd.parse_ns", parse_ns, "ns");
    l.put("httpd.write_ns", write_ns, "ns");
    l.put("httpd.resp_bytes", resp_bytes, "bytes");
    l.put("core.respond_hit_ns", hit_ns, "ns");
    l.put("core.respond_304_ns", not_modified_ns, "ns");
    l.put("cache.get_ns", get_ns, "ns");
    l.notes.push(format!(
        "serving kernels over {SAMPLE} day-8 requests ({} conditional, {wrong_304} not answered 304): parse {parse_ns:.0} ns, respond hit {hit_ns:.0} ns, respond 304 {not_modified_ns:.0} ns, write {write_ns:.0} ns ({resp_bytes:.0} B), cache get {get_ns:.0} ns",
        cond.len()
    ));
}

/// A DUP engine holding the dependencies of every rendered page, as the
/// trigger monitor registers them.
struct Odg {
    dup: DupEngine,
    names: Interner,
}

impl Odg {
    fn register(&mut self, key: PageKey, deps: &[nagano_pagegen::Dependency]) {
        let object = self.names.intern(&key.object_key());
        self.dup.graph_mut().ensure_node(object, NodeKind::Object);
        for dep in deps {
            let data = self.names.intern(&dep.data_key);
            if self.dup.add_dependency(data, object, dep.weight).is_err() {
                let _ = self.dup.add_dependency(data, object, 1.0);
            }
        }
    }
}

/// One seeded pass of the update schedule through the site's commit and
/// `process_txn`, then the same transaction's layers replayed one by one:
/// DUP over an ODG built from the rendered dependencies, a render of each
/// regenerated page and its distribution to eight fresh caches.
fn update_kernels(l: &mut Layers, seed: u64) {
    let site = ServingSite::build(SiteConfig::full());
    let renderer = Renderer::new(Arc::clone(site.db()));
    let mut odg = Odg {
        dup: DupEngine::new(),
        names: Interner::new(),
    };
    odg.dup.set_policy(StalenessPolicy::Strict);
    for (key, _) in site.registry().pages() {
        let out = renderer.render(*key);
        odg.register(*key, &out.deps);
    }
    let fleet = CacheFleet::new(8, CacheConfig::default());
    fleet.set_head_builder(Arc::new(|body: &Bytes, version: u64| {
        let (pre, post) = prebuilt_html_head(body.len(), version);
        PrebuiltHead { pre, post }
    }));
    let updates = schedule(&site, seed);
    let mut rng = pass_rng(seed, 0);
    let (mut commit, mut process, mut residual, mut propagate, mut distribute) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut changes, mut regen, mut visited, mut stale, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for u in &updates {
        let t = Instant::now();
        let txn = UpdateSchedule::apply(u, site.db(), &mut rng);
        commit.push(us(t));
        let t = Instant::now();
        let out = site.monitor().process_txn(&txn);
        let process_us = us(t);
        process.push(process_us);
        changes.push(txn.changes.len() as f64);
        regen.push(out.regenerated.len() as f64);

        let ids: Vec<_> = txn
            .changes
            .iter()
            .filter_map(|c| odg.names.get(&c.data_key))
            .collect();
        let t = Instant::now();
        let prop = odg.dup.propagate_ids(&ids);
        let prop_us = us(t);
        propagate.push(prop_us);
        visited.push(prop.visited as f64);
        stale.push(prop.stale.len() as f64);
        let mut parts_us = prop_us;
        for key in &out.regenerated {
            let t = Instant::now();
            let rendered = renderer.render(*key);
            parts_us += us(t);
            bytes.push(rendered.body.len() as f64);
            let url = key.to_url();
            let t = Instant::now();
            fleet.distribute(&url, rendered.body.clone(), rendered.cost_ms);
            let d = us(t);
            parts_us += d;
            distribute.push(d);
            odg.register(*key, &rendered.deps);
        }
        residual.push(process_us - parts_us);
    }
    l.put("db.commit_us", median(&commit), "us");
    l.put("db.changes_per_txn", mean(&changes), "count");
    l.put("trigger.process_txn_us", median(&process), "us");
    l.put("trigger.regen_per_txn", mean(&regen), "count");
    l.put("trigger.residual_us", median(&residual), "us");
    l.put("odg.propagate_us", median(&propagate), "us");
    l.put("odg.visited_per_txn", mean(&visited), "count");
    l.put("odg.stale_per_txn", mean(&stale), "count");
    l.put("cache.distribute_us", median(&distribute), "us");
    l.put("pagegen.render_bytes", mean(&bytes), "bytes");
    l.notes.push(format!(
        "update kernels over {} txns: commit {:.1} us, process_txn {:.1} us = DUP {:.1} us + renders + distributes + residual {:.1} us (medians); {:.1} regenerated and {:.1} DUP-stale pages per txn",
        updates.len(),
        median(&commit),
        median(&process),
        median(&propagate),
        median(&residual),
        mean(&regen),
        mean(&stale)
    ));
}

/// Render time per page class over every registry page and every news
/// article of one committed seeded pass, plus the fragment plan and
/// compose calls; printed next to the cost model.
fn render_kernels(l: &mut Layers, seed: u64) {
    let site = ServingSite::build(SiteConfig {
        prewarm: false,
        ..SiteConfig::full()
    });
    let mut rng = pass_rng(seed, 0);
    for u in &schedule(&site, seed) {
        UpdateSchedule::apply(u, site.db(), &mut rng);
    }
    let renderer = Renderer::new(Arc::clone(site.db()));
    let model = CostModel::new();
    let mut keys: Vec<PageKey> = site.registry().pages().iter().map(|(k, _)| *k).collect();
    for day in 1..=site.registry().days() {
        keys.extend(
            site.db()
                .news_on_day(day)
                .iter()
                .map(|n| PageKey::News(n.id)),
        );
    }
    keys.sort();
    keys.dedup();
    let mut per_class: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for _ in 0..3 {
        for &key in &keys {
            let t = Instant::now();
            std::hint::black_box(renderer.render(key));
            let e = per_class.entry(class(key)).or_default();
            e.0.push(us(t));
            e.1.push(model.cost_ms(key));
        }
    }
    for c in CLASSES {
        let (measured, modelled) = per_class.get(c).cloned().unwrap_or_default();
        l.put(&format!("pagegen.render_us.{c}"), median(&measured), "us");
        l.notes.push(format!(
            "render {c:>14}: measured {:8.2} us (n={}), modelled {:7.1} ms",
            median(&measured),
            measured.len(),
            mean(&modelled)
        ));
    }
    let fragments: HashMap<FragmentKey, Bytes> = keys
        .iter()
        .filter_map(|k| match k {
            PageKey::Fragment(f) => Some((*f, renderer.render_fragment(*f).body)),
            _ => None,
        })
        .collect();
    let mut plan_us = Vec::new();
    let mut compose_us = Vec::new();
    for &key in &keys {
        let t = Instant::now();
        let plan = renderer.plan(key);
        plan_us.push(us(t));
        if plan.has_slots() {
            let t = Instant::now();
            let composed = plan.compose_parts(|f| fragments.get(&f).cloned());
            compose_us.push(us(t));
            std::hint::black_box(composed);
        }
    }
    l.put("pagegen.plan_us", median(&plan_us), "us");
    l.put("pagegen.compose_us", median(&compose_us), "us");
    l.notes.push(format!(
        "plan {:.2} us over {} pages, compose_parts {:.2} us over {} composed pages (medians)",
        median(&plan_us),
        plan_us.len(),
        median(&compose_us),
        compose_us.len()
    ));
}

/// One seeded pass in whole-page mode and one in fragment mode, measured
/// on the wall clock next to the modelled regeneration CPU, and the
/// freshness check after each.
fn propagation_modes(l: &mut Layers, seed: u64) {
    for fragment_mode in [false, true] {
        let site = ServingSite::build(SiteConfig {
            fragment_mode,
            ..SiteConfig::full()
        });
        let updates = schedule(&site, seed);
        let mut rng = pass_rng(seed, 0);
        let t = Instant::now();
        for u in &updates {
            let txn = UpdateSchedule::apply(u, site.db(), &mut rng);
            site.monitor().process_txn(&txn);
        }
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let (checked, stale) = check_fleet(&site);
        let modelled = site.monitor().stats().snapshot().regen_cpu_ms;
        let mode = if fragment_mode { "fragment" } else { "whole" };
        l.put(&format!("fragment.pass_ms_{mode}"), wall_ms, "ms");
        if fragment_mode {
            l.put("fragment.stale_entries", stale as f64, "count");
        }
        l.notes.push(format!(
            "{mode}-page pass of {} txns: measured {wall_ms:.1} ms wall, modelled regeneration {modelled} ms; {stale} of {checked} (page, node) entries differ from a fresh render",
            updates.len()
        ));
    }
}
