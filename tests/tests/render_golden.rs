//! Golden digests of every rendered page over a full-Games replay.
//!
//! Builds the full Games (2,300 athletes, 68 events, 16 days), prewarms
//! a one-node fleet, then replays one seeded 16-day `UpdateSchedule`
//! through `TriggerMonitor::process_txn`. At five prefixes of the
//! schedule it renders every registered page (plus every published news
//! story) three ways — whole page, composition plan, fragment body — and
//! folds the bodies and dependency lists into one FNV-1a digest.
//!
//! The constants were last computed when event pages gained their
//! `data:photos:<event>` edge; any change to a served byte, a dependency
//! edge, an edge weight or the order either is listed in fails here.

use std::sync::Arc;

use nagano_cache::{CacheConfig, CacheFleet};
use nagano_db::{seed_games, GamesConfig, OlympicDb};
use nagano_pagegen::{Dependency, PageKey, PageRegistry, Renderer};
use nagano_simcore::DeterministicRng;
use nagano_trigger::{ConsistencyPolicy, TriggerMonitor};
use nagano_workload::UpdateSchedule;

/// Expected `(prefix length, digest)` pairs; prefixes are quarters of
/// the 304-transaction schedule.
const GOLDEN: [(usize, u64); 5] = [
    (0, 0xe35252f284dc01e1),
    (76, 0xc021e40155b6dbf8),
    (152, 0x7b52adf335bba552),
    (228, 0x9ca89bf7e3df1aec),
    (304, 0x34d6ac528d6d8fdc),
];

const SCHEDULE_SEED: u64 = 1998;
const APPLY_SEED: u64 = 7;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length-delimit so adjacent fields cannot alias.
        for x in (b.len() as u64).to_le_bytes() {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn deps(&mut self, deps: &[Dependency]) {
        self.bytes(&(deps.len() as u64).to_le_bytes());
        for d in deps {
            self.bytes(d.data_key.as_bytes());
            self.bytes(&d.weight.to_bits().to_le_bytes());
        }
    }
}

/// Every page the site can serve right now: the registry plus the news
/// stories published so far.
fn all_pages(db: &OlympicDb, registry: &PageRegistry) -> Vec<PageKey> {
    let mut keys: Vec<PageKey> = registry.pages().iter().map(|(k, _)| *k).collect();
    for day in 1..=registry.days() {
        keys.extend(db.news_on_day(day).iter().map(|n| PageKey::News(n.id)));
    }
    keys.sort();
    keys.dedup();
    keys
}

/// Digest every page's whole-page render, plan and fragment body, and
/// check that the fleet serves exactly the fresh whole-page render.
fn digest(db: &OlympicDb, registry: &PageRegistry, renderer: &Renderer, fleet: &CacheFleet) -> u64 {
    let mut h = Fnv::new();
    for key in all_pages(db, registry) {
        let url = key.to_url();
        h.bytes(url.as_bytes());
        let out = renderer.render(key);
        h.bytes(&out.body);
        h.deps(&out.deps);
        if registry.meta(key).is_some() {
            let cached = fleet.member(0).peek(&url).expect("registered page cached");
            assert!(cached.body == out.body, "{url}: fleet differs from render");
        }
        let plan = renderer.plan(key);
        h.bytes(plan.title().as_bytes());
        h.deps(plan.deps());
        for f in plan.slots() {
            h.bytes(PageKey::Fragment(*f).to_url().as_bytes());
        }
        let composed = plan
            .compose(|f| Some(renderer.render_fragment(f).body))
            .expect("every slot resolves");
        assert!(composed == out.body, "{url}: composed plan differs");
        if let PageKey::Fragment(f) = key {
            let frag = renderer.render_fragment(f);
            h.bytes(&frag.body);
            h.deps(&frag.deps);
        }
    }
    h.0
}

#[test]
fn full_games_replay_renders_are_pinned() {
    let db = Arc::new(OlympicDb::new());
    let games = GamesConfig::full();
    seed_games(&db, &games);
    let registry = Arc::new(PageRegistry::build(&db, games.days));
    let renderer = Renderer::new(Arc::clone(&db));
    let fleet = Arc::new(CacheFleet::new(1, CacheConfig::default()));
    let monitor = TriggerMonitor::new(
        renderer.clone(),
        Arc::clone(&fleet),
        Arc::clone(&registry),
        ConsistencyPolicy::UpdateInPlace,
    );
    monitor.prewarm();
    let schedule =
        UpdateSchedule::generate(&db, &mut DeterministicRng::seed_from_u64(SCHEDULE_SEED));
    assert_eq!(
        schedule.len(),
        GOLDEN[GOLDEN.len() - 1].0,
        "schedule length"
    );
    let mut rng = DeterministicRng::seed_from_u64(APPLY_SEED);
    let mut applied = 0usize;
    let mut got = Vec::new();
    for &(prefix, _) in &GOLDEN {
        while applied < prefix {
            let txn = UpdateSchedule::apply(&schedule.updates()[applied], &db, &mut rng);
            monitor.process_txn(&txn);
            applied += 1;
        }
        got.push((prefix, digest(&db, &registry, &renderer, &fleet)));
    }
    assert_eq!(got, GOLDEN, "render digests drifted: {got:#x?}");
}
