//! The page renderer.
//!
//! Rendering a page produces three things:
//!
//! 1. the HTML **body** (deterministic, built from live database rows,
//!    padded to a realistic transfer size — the paper's pages averaged
//!    ~10 KB per hit including images, with the Day-N home pages around
//!    55 KB with inline previews);
//! 2. the **dependency list** — the underlying data and embedded fragments
//!    this page's content was derived from. The paper: "An application
//!    program is responsible for communicating data dependencies between
//!    underlying data and objects to the cache." Here the list is not
//!    written by hand: every read goes through the recording view in
//!    [`crate::reads`], which turns each read into its ODG edge, so the
//!    list is exactly what the render read. The trigger monitor registers
//!    these edges after every (re)generation, so the graph tracks the
//!    page space as it evolves;
//! 3. the modelled CPU **cost** (used for accounting).
//!
//! Composed pages (home, sport, event) embed fragments by *reference to
//! the fragment object*, which makes fragments hybrid vertices: data
//! changes propagate data → fragment → page exactly as in Figure 15.

use std::fmt::Write as _;
use std::sync::Arc;

use bytes::Bytes;
use nagano_db::{EventPhase, OlympicDb};

use crate::cost::{spin_for, CostModel};
use crate::key::{FragmentKey, PageKey};
use crate::plan::{filler_repeats, page_head, CompositionPlan, FILLER, PAGE_CLOSE};
use crate::reads::Reads;

/// One dependency edge to register with DUP: `data_key → this page`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dependency {
    /// The underlying-data (or hybrid fragment) vertex name.
    pub data_key: String,
    /// Importance weight for the edge.
    pub weight: f64,
}

/// The result of rendering one page.
#[derive(Debug, Clone)]
pub struct RenderOutput {
    /// Rendered HTML.
    pub body: Bytes,
    /// Dependencies to register in the ODG: the render's recorded reads.
    pub deps: Vec<Dependency>,
    /// Modelled CPU cost in milliseconds.
    pub cost_ms: f64,
}

/// Renders pages from a database.
#[derive(Debug, Clone)]
pub struct Renderer {
    db: Arc<OlympicDb>,
    cost: CostModel,
    /// When `Some(scale)`, rendering burns `cost_ms * scale` of real CPU
    /// (throughput experiments). `None` (default) renders at full speed.
    cpu_scale: Option<f64>,
}

impl Renderer {
    /// New renderer over `db` with the default cost model.
    pub fn new(db: Arc<OlympicDb>) -> Self {
        Renderer {
            db,
            cost: CostModel::new(),
            cpu_scale: None,
        }
    }

    /// Use a custom cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Burn real CPU proportional to the modelled cost (scale 1.0 =
    /// model-accurate; tests use small scales).
    pub fn with_simulated_cpu(mut self, scale: f64) -> Self {
        self.cpu_scale = Some(scale);
        self
    }

    /// The database handle.
    pub fn db(&self) -> &Arc<OlympicDb> {
        &self.db
    }

    /// The cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Render `key`.
    pub fn render(&self, key: PageKey) -> RenderOutput {
        let mut html = String::with_capacity(4096);
        let db = Reads::open(&self.db, key);
        let title = self.compose(&db, key, &mut html, None);
        // Release the read lock before padding and burning simulated CPU.
        let deps = db.finish();
        let body = finalize(key, &title, html);
        let cost_ms = self.cost.cost_ms(key);
        if let Some(scale) = self.cpu_scale {
            spin_for(cost_ms, scale);
        }
        RenderOutput {
            body,
            deps,
            cost_ms,
        }
    }

    /// Render just the fragment's inner HTML — the bytes a composition
    /// plan splices into its slots. The body is *not* a servable page
    /// (no chrome, no padding; compose the owning [`CompositionPlan`]
    /// for that). The dependency list is identical to the one a legacy
    /// whole-page render of `PageKey::Fragment(f)` registers: the page
    /// and the fragment share one ODG vertex.
    pub fn render_fragment(&self, f: FragmentKey) -> RenderOutput {
        let mut html = String::with_capacity(1024);
        let db = Reads::open(&self.db, PageKey::Fragment(f));
        self.compose_fragment(&db, f, &mut html);
        let deps = db.finish();
        let cost_ms = self.cost.cost_ms(PageKey::Fragment(f));
        if let Some(scale) = self.cpu_scale {
            spin_for(cost_ms, scale);
        }
        RenderOutput {
            body: Bytes::from(html),
            deps,
            cost_ms,
        }
    }

    /// Build the page's composition plan: the same `compose` pass as
    /// [`Renderer::render`], but every `inline_fragment` records a slot
    /// instead of rendering — so composing the plan with fresh fragment
    /// bodies is byte-identical to the whole-page render by construction.
    pub fn plan(&self, key: PageKey) -> CompositionPlan {
        let mut html = String::with_capacity(4096);
        let mut slots: Vec<(usize, FragmentKey)> = Vec::new();
        let db = Reads::open(&self.db, key);
        let title = self.compose(&db, key, &mut html, Some(&mut slots));
        let deps = db.finish();
        let skeleton_cost_ms = match key {
            // The fragment page's render cost is carried by the fragment
            // itself ([`Renderer::render_fragment`]).
            PageKey::Fragment(_) => 0.0,
            _ if slots.is_empty() => self.cost.cost_ms(key),
            _ => self.cost.skeleton_cost_ms(key),
        };
        if let Some(scale) = self.cpu_scale {
            spin_for(skeleton_cost_ms, scale);
        }
        let compose_cost_ms = self.cost.compose_cost_ms(slots.len());
        CompositionPlan::assemble(
            key,
            title,
            html,
            slots,
            deps,
            skeleton_cost_ms,
            compose_cost_ms,
        )
    }

    /// Build the page's inner HTML; returns the title. With `slots` set
    /// (composition-plan mode), fragments record slots instead of
    /// rendering inline and the returned HTML is the bare skeleton. Every
    /// read goes through `db`, the one recording view this render holds,
    /// and becomes one of the page's edges.
    fn compose(
        &self,
        db: &Reads<'_>,
        key: PageKey,
        html: &mut String,
        mut slots: Option<&mut Vec<(usize, FragmentKey)>>,
    ) -> String {
        match key {
            PageKey::Home(day) => {
                // Embedded fragments: medal table, headlines, and the
                // result tables of every event concluding today. The
                // events are read first so the day's `today` edge leads
                // the edge list (edges register in list order).
                let events = db.events_on_day(day);
                let _ = writeln!(html, "<h2>Day {day} at the Games</h2>");
                self.inline_fragment(db, FragmentKey::MedalTable, html, slots.as_deref_mut());
                self.inline_fragment(db, FragmentKey::Headlines(day), html, slots.as_deref_mut());
                for event in events {
                    self.inline_fragment(
                        db,
                        FragmentKey::ResultTable(event.id()),
                        html,
                        slots.as_deref_mut(),
                    );
                    // The *skeleton* also reads the event's phase and, for
                    // a final, its results (the gold-winner line below).
                    let phase = db.phase(event);
                    let _ = writeln!(
                        html,
                        "<section class=\"event\"><a href=\"{}\">{}</a> — {}</section>",
                        PageKey::Event(event.id()).to_url(),
                        event.name(),
                        phase_label(phase),
                    );
                    // Inline the top line of finished finals: this is what
                    // lets >25% of visitors stop at the home page.
                    if phase == EventPhase::Final {
                        if let Some(winner) = db
                            .results_for_event(event.id())
                            .find(|r| r.is_final && r.rank == 1)
                        {
                            if let Some(a) = db.athlete(winner.athlete) {
                                let _ = writeln!(html, "<p>Gold: {}</p>", a.name);
                            }
                        }
                    }
                }
                format!("Nagano 1998 — Day {day}")
            }
            PageKey::Medals => {
                let _ = writeln!(html, "<h2>Medal Standings</h2>");
                self.inline_fragment(db, FragmentKey::MedalTable, html, slots.as_deref_mut());
                "Medal Standings".to_string()
            }
            PageKey::Sport(s) => {
                let name = db
                    .sport(s)
                    .map(|x| x.name.clone())
                    .unwrap_or_else(|| "Unknown sport".into());
                let _ = writeln!(html, "<h2>{name}</h2>");
                for event in db.events_of_sport(s) {
                    self.inline_fragment(
                        db,
                        FragmentKey::ResultTable(event.id()),
                        html,
                        slots.as_deref_mut(),
                    );
                    let _ = writeln!(
                        html,
                        "<div><a href=\"{}\">{}</a> (day {})</div>",
                        PageKey::Event(event.id()).to_url(),
                        event.name(),
                        event.day()
                    );
                }
                name
            }
            PageKey::Event(e) => {
                self.inline_fragment(db, FragmentKey::ResultTable(e), html, slots.as_deref_mut());
                let event = db.event(e);
                let name = event
                    .map(|x| x.name().to_string())
                    .unwrap_or_else(|| "Unknown event".into());
                let _ = writeln!(html, "<h2>{name}</h2>");
                for photo in db.photos_for_event(e) {
                    let _ = writeln!(html, "<img alt=\"photo {}\"/>", photo.id.0);
                }
                // Cross-links per the 1998 redesign: every page links to
                // pertinent information in other sections.
                if let Some(ev) = event {
                    let _ = writeln!(
                        html,
                        "<nav><a href=\"{}\">All {} results</a> <a href=\"/medals\">Medals</a></nav>",
                        PageKey::Sport(ev.sport()).to_url(),
                        ev.sport()
                    );
                }
                name
            }
            PageKey::Country(c) => {
                // The country page shows its medal box: a change to the
                // standings slightly affects every country page. The
                // athletes are read first so the country's own edge leads
                // the list.
                let athletes = db.athletes_of_country(c);
                let name = db
                    .country(c)
                    .map(|x| x.name.clone())
                    .unwrap_or_else(|| "Unknown".into());
                let _ = writeln!(html, "<h2>{name}</h2>");
                if let Some(m) = db.medal_count(c) {
                    let _ = writeln!(
                        html,
                        "<p class=\"medal-box\">Gold {} · Silver {} · Bronze {}</p>",
                        m.gold, m.silver, m.bronze
                    );
                }
                for a in athletes.take(50) {
                    let _ = writeln!(
                        html,
                        "<div><a href=\"{}\">{}</a></div>",
                        PageKey::Athlete(a.id).to_url(),
                        a.name
                    );
                }
                name
            }
            PageKey::Athlete(a) => {
                let athlete = db.athlete(a);
                let name = athlete
                    .map(|x| x.name.clone())
                    .unwrap_or_else(|| "Unknown".into());
                let _ = writeln!(html, "<h2>{name}</h2>");
                for r in db.results_for_athlete(a) {
                    let _ = writeln!(
                        html,
                        "<div>Event <a href=\"{}\">{}</a>: rank {} ({:.2})</div>",
                        PageKey::Event(r.event).to_url(),
                        r.event.0,
                        r.rank,
                        r.score
                    );
                }
                if let Some(at) = athlete {
                    let _ = writeln!(
                        html,
                        "<nav><a href=\"{}\">Team page</a></nav>",
                        PageKey::Country(at.country).to_url()
                    );
                }
                name
            }
            PageKey::News(n) => match db.news(n) {
                Some(article) => {
                    let _ = writeln!(
                        html,
                        "<h2>{}</h2><article>{}</article>",
                        article.title, article.body
                    );
                    if let Some(ev) = article.about_event {
                        let _ = writeln!(
                            html,
                            "<nav><a href=\"{}\">Event results</a></nav>",
                            PageKey::Event(ev).to_url()
                        );
                    }
                    article.title.clone()
                }
                None => "Story not found".to_string(),
            },
            PageKey::NewsIndex(day) => {
                let _ = writeln!(html, "<h2>News — Day {day}</h2>");
                for article in db.news_on_day(day) {
                    let _ = writeln!(
                        html,
                        "<div><a href=\"{}\">{}</a></div>",
                        PageKey::News(article.id).to_url(),
                        article.title
                    );
                }
                format!("News for Day {day}")
            }
            PageKey::Venue(s) => {
                let venue = db.sport(s).map(|x| x.venue.clone()).unwrap_or_default();
                let _ = writeln!(html, "<h2>{venue}</h2><p>Venue guide and transport.</p>");
                venue
            }
            PageKey::Welcome => {
                let _ = writeln!(html, "<h2>Welcome</h2><p>How to use this site.</p>");
                "Welcome".into()
            }
            PageKey::Nagano => {
                let _ = writeln!(html, "<h2>Nagano, Japan</h2><p>Host city guide.</p>");
                "Nagano".into()
            }
            PageKey::Fun => {
                let _ = writeln!(
                    html,
                    "<h2>Fun &amp; Games</h2><p>Activities for children.</p>"
                );
                "Fun".into()
            }
            PageKey::Fragment(f) => match slots {
                // Plan mode: the fragment page is pure slot — its data deps
                // live on the shared fragment vertex, registered when the
                // fragment itself regenerates.
                Some(slots) => {
                    slots.push((html.len(), f));
                    fragment_title(f)
                }
                None => self.compose_fragment(db, f, html),
            },
        }
    }

    /// Embed fragment `f` in a composed page: the page records an edge on
    /// the fragment *object*, and the fragment's own reads stay off the
    /// page (the fragment depends on the raw data — Figure 15's two-level
    /// composition). In plan mode (`slots` set) nothing is rendered: the
    /// current skeleton offset is recorded as a cached-fragment slot.
    fn inline_fragment(
        &self,
        db: &Reads<'_>,
        f: FragmentKey,
        html: &mut String,
        slots: Option<&mut Vec<(usize, FragmentKey)>>,
    ) {
        db.embed(f);
        match slots {
            Some(slots) => slots.push((html.len(), f)),
            None => {
                db.unrecorded(|| self.compose_fragment(db, f, html));
            }
        }
    }

    fn compose_fragment(&self, db: &Reads<'_>, f: FragmentKey, html: &mut String) -> String {
        match f {
            FragmentKey::ResultTable(e) => {
                let _ = writeln!(html, "<table class=\"results\">");
                for r in db.results_for_event(e) {
                    let _ = write!(html, "<tr><td>{}</td><td>", r.rank);
                    match db.athlete(r.athlete) {
                        Some(a) => html.push_str(&a.name),
                        None => {
                            let _ = write!(html, "athlete {}", r.athlete.0);
                        }
                    }
                    let _ = writeln!(html, "</td><td>{:.2}</td></tr>", r.score);
                }
                let _ = writeln!(html, "</table>");
            }
            FragmentKey::MedalTable => {
                let _ = writeln!(html, "<table class=\"medals\">");
                for (c, m) in db.medal_standings().iter().take(15) {
                    let _ = write!(html, "<tr><td>");
                    match db.country(*c) {
                        Some(x) => html.push_str(&x.code),
                        None => {
                            let _ = write!(html, "{c}");
                        }
                    }
                    let _ = writeln!(
                        html,
                        "</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                        m.gold, m.silver, m.bronze
                    );
                }
                let _ = writeln!(html, "</table>");
            }
            FragmentKey::Headlines(day) => {
                let _ = writeln!(html, "<ul class=\"headlines\">");
                for article in db.news_on_day(day).take(8) {
                    let _ = writeln!(html, "<li>{}</li>", article.title);
                }
                let _ = writeln!(html, "</ul>");
            }
        }
        fragment_title(f)
    }
}

/// The fragment page's title, computable without touching the database —
/// plan mode needs it even when the fragment body comes from the cache.
fn fragment_title(f: FragmentKey) -> String {
    match f {
        FragmentKey::ResultTable(e) => format!("Results {}", e.0),
        FragmentKey::MedalTable => "Medal Table".into(),
        FragmentKey::Headlines(day) => format!("Headlines Day {day}"),
    }
}

fn phase_label(p: EventPhase) -> &'static str {
    match p {
        EventPhase::Scheduled => "scheduled",
        EventPhase::InProgress => "in progress",
        EventPhase::Final => "final",
    }
}

/// Nominal transfer size per page family — bodies are padded up to this so
/// the link model sees realistic byte counts (home pages carried ~55 KB of
/// markup + inline previews; the site-wide mean request was ~10 KB).
pub fn target_bytes(key: PageKey) -> usize {
    match key {
        PageKey::Home(_) => 55_000,
        PageKey::Sport(_) => 15_000,
        PageKey::Event(_) => 12_000,
        PageKey::Country(_) => 10_000,
        PageKey::Medals => 10_000,
        PageKey::Athlete(_) => 8_000,
        PageKey::NewsIndex(_) => 8_000,
        PageKey::News(_) => 6_000,
        PageKey::Welcome | PageKey::Nagano | PageKey::Fun | PageKey::Venue(_) => 5_000,
        PageKey::Fragment(FragmentKey::ResultTable(_)) => 3_000,
        PageKey::Fragment(FragmentKey::MedalTable) => 3_000,
        PageKey::Fragment(FragmentKey::Headlines(_)) => 2_000,
    }
}

fn finalize(key: PageKey, title: &str, inner: String) -> Bytes {
    let mut page = page_head(title);
    page.push_str(&inner);
    page.push('\n');
    // Pad with content filler to the family's nominal size (stands in for
    // the inline imagery the real pages carried).
    for _ in 0..filler_repeats(page.len(), target_bytes(key)) {
        page.push_str(FILLER);
    }
    page.push_str(PAGE_CLOSE);
    Bytes::from(page)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nagano_db::{seed_games, AthleteId, CountryId, GamesConfig, NewsArticle, NewsId};

    fn seeded() -> (Arc<OlympicDb>, nagano_db::EventId) {
        let db = Arc::new(OlympicDb::new());
        let (fs, _) = seed_games(&db, &GamesConfig::small());
        (db, fs)
    }

    #[test]
    fn result_fragment_depends_on_event_data() {
        let (db, _) = seeded();
        let r = Renderer::new(db);
        let ev = nagano_db::EventId(1);
        let out = r.render(PageKey::Fragment(FragmentKey::ResultTable(ev)));
        assert!(out
            .deps
            .iter()
            .any(|d| d.data_key == "data:event:1" && d.weight == 1.0));
        assert!(out.cost_ms > 10.0);
    }

    #[test]
    fn home_page_embeds_fragments_for_the_day() {
        let (db, fs) = seeded();
        let day = db.event(fs).unwrap().day;
        let r = Renderer::new(db);
        let out = r.render(PageKey::Home(day));
        let keys: Vec<&str> = out.deps.iter().map(|d| d.data_key.as_str()).collect();
        assert!(keys.contains(&format!("data:today:{day}").as_str()));
        assert!(keys.contains(&"page:/fragments/medals"));
        assert!(keys
            .iter()
            .any(|k| k.starts_with("page:/fragments/results/")));
        // Home page is padded to its nominal ~55 KB size.
        assert!(out.body.len() >= 50_000, "body {} bytes", out.body.len());
    }

    #[test]
    fn final_results_appear_on_home_page() {
        let (db, _) = seeded();
        let ev = db.events().into_iter().next().unwrap();
        let athletes = db.athletes_of_sport(ev.sport);
        let podium: Vec<(AthleteId, f64)> = athletes
            .iter()
            .take(3)
            .enumerate()
            .map(|(i, a)| (a.id, 100.0 - i as f64))
            .collect();
        db.record_results(ev.id, &podium, true, ev.day);
        let winner = db.athlete(podium[0].0).unwrap().name;
        let r = Renderer::new(db);
        let out = r.render(PageKey::Home(ev.day));
        let html = String::from_utf8(out.body.to_vec()).unwrap();
        assert!(html.contains(&format!("Gold: {winner}")), "missing winner");
    }

    #[test]
    fn country_page_softly_depends_on_medals() {
        let (db, _) = seeded();
        let r = Renderer::new(db);
        let out = r.render(PageKey::Country(CountryId(1)));
        let medal_dep = out
            .deps
            .iter()
            .find(|d| d.data_key == "data:medals:standings")
            .expect("medal dependency");
        assert!(medal_dep.weight < 1.0, "soft weight expected");
        assert!(out.deps.iter().any(|d| d.data_key == "data:country:1"));
    }

    #[test]
    fn static_pages_have_no_deps_and_low_cost() {
        let (db, _) = seeded();
        let r = Renderer::new(db);
        for key in [PageKey::Welcome, PageKey::Nagano, PageKey::Fun] {
            let out = r.render(key);
            assert!(out.deps.is_empty(), "{key} should be static");
            assert!(out.cost_ms < 10.0);
        }
    }

    #[test]
    fn news_pages_depend_on_their_article() {
        let (db, _) = seeded();
        db.publish_news(NewsArticle {
            id: NewsId(1),
            day: 2,
            title: "Opening day".into(),
            body: "The Games begin.".into(),
            about_event: None,
        });
        let r = Renderer::new(db);
        let out = r.render(PageKey::News(NewsId(1)));
        assert!(out.deps.iter().any(|d| d.data_key == "data:news:1"));
        let html = String::from_utf8(out.body.to_vec()).unwrap();
        assert!(html.contains("Opening day"));
        // Index page softly depends on each article.
        let idx = r.render(PageKey::NewsIndex(2));
        assert!(idx
            .deps
            .iter()
            .any(|d| d.data_key == "data:news:1" && d.weight < 1.0));
    }

    #[test]
    fn rendering_is_deterministic() {
        let (db, _) = seeded();
        let r = Renderer::new(db);
        let a = r.render(PageKey::Medals);
        let b = r.render(PageKey::Medals);
        assert_eq!(a.body, b.body);
        assert_eq!(a.deps, b.deps);
        assert_eq!(a.cost_ms, b.cost_ms);
    }

    #[test]
    fn bodies_meet_their_size_targets() {
        let (db, _) = seeded();
        let r = Renderer::new(db);
        for key in [
            PageKey::Home(2),
            PageKey::Event(nagano_db::EventId(1)),
            PageKey::Athlete(AthleteId(1)),
            PageKey::Medals,
        ] {
            let out = r.render(key);
            let target = target_bytes(key);
            assert!(
                out.body.len() >= target - 100 && out.body.len() <= target + 2048,
                "{key}: {} vs target {target}",
                out.body.len()
            );
        }
    }

    #[test]
    fn unknown_entities_render_gracefully() {
        let (db, _) = seeded();
        let r = Renderer::new(db);
        let out = r.render(PageKey::Athlete(AthleteId(9999)));
        let html = String::from_utf8(out.body.to_vec()).unwrap();
        assert!(html.contains("Unknown"));
    }

    #[test]
    fn simulated_cpu_burns_time() {
        let (db, _) = seeded();
        // Scale 0.1: a 120ms athlete page burns ~12ms.
        let r = Renderer::new(db).with_simulated_cpu(0.1);
        let start = std::time::Instant::now();
        r.render(PageKey::Athlete(AthleteId(1)));
        assert!(start.elapsed().as_millis() >= 8);
    }

    /// One render holds one database view. A second read taken while the
    /// view is alive queues behind any waiting writer (std's `RwLock`
    /// blocks new readers once a writer waits) and deadlocks. Every page
    /// class renders, plans and renders its fragments while a writer
    /// commits in a tight loop, under a deadline; in debug builds the
    /// view also panics on a nested read, so the test fails every time.
    #[test]
    fn renders_hold_one_view_while_commits_race() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc;
        use std::time::Duration;

        let (db, _) = seeded();
        db.publish_news(NewsArticle {
            id: NewsId(1),
            day: 2,
            title: "Opening day".into(),
            body: "The Games begin.".into(),
            about_event: Some(nagano_db::EventId(1)),
        });
        let mut keys: Vec<PageKey> = crate::PageRegistry::build(&db, 16)
            .pages()
            .iter()
            .map(|(k, _)| *k)
            .collect();
        keys.push(PageKey::News(NewsId(1)));
        let events = db.events();
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (db, stop) = (Arc::clone(&db), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let ev = &events[i % events.len()];
                    let field = db.athletes_of_sport(ev.sport);
                    let podium: Vec<(AthleteId, f64)> =
                        field.iter().take(3).map(|a| (a.id, i as f64)).collect();
                    db.record_results(ev.id, &podium, i.is_multiple_of(4), ev.day);
                    i += 1;
                }
                i
            })
        };
        let (done_tx, done_rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let r = Renderer::new(db);
            for _ in 0..5 {
                for &key in &keys {
                    r.render(key);
                    r.plan(key);
                    if let PageKey::Fragment(f) = key {
                        r.render_fragment(f);
                    }
                }
            }
            let _ = done_tx.send(());
        });
        let outcome = done_rx.recv_timeout(Duration::from_secs(60));
        stop.store(true, Ordering::Relaxed);
        assert!(
            !matches!(outcome, Err(mpsc::RecvTimeoutError::Timeout)),
            "renders did not finish within 60 s: a render took a second read \
             lock while holding its view"
        );
        // Debug builds turn a nested read into a panic on the reader.
        if let Err(panic) = reader.join() {
            std::panic::resume_unwind(panic);
        }
        assert!(writer.join().expect("writer") > 0, "writer committed");
    }
}
