//! The renderer's only way into the database: a recording view.
//!
//! [`Reads`] owns the one [`DbView`](nagano_db::DbView) a render holds
//! and has no `Deref` to it. Every accessor records the data keys whose
//! change can alter what it returned, so a page's ODG edges are exactly
//! the reads its render made — an edge cannot be forgotten, because no
//! unrecorded read of changeable data can be written:
//!
//! * collection keys are recorded when the accessor is called
//!   (`events_on_day` records the day's `today` key, `results_for_event`
//!   the event's key, `medal_standings` the standings key, …);
//! * per-row keys are recorded as rows are yielded, so
//!   `news_on_day(day).take(8)` records exactly eight articles;
//! * rows whose fields are all fixed at seeding (athletes, countries,
//!   sports, and an event's name, day and sport) come back as
//!   [`Seeded`] and record nothing; an event's phase, which results
//!   change, is read through the recorded [`Reads::phase`].
//!
//! Embedding a fragment records only the fragment object
//! ([`Reads::embed`]); the fragment's own reads run under
//! [`Reads::unrecorded`] and stay on the fragment's vertex (Figure 15's
//! two-level composition). Edge weights come from one table,
//! [`weight`], keyed by page class and key family. The recorded list is
//! de-duplicated, first record winning, and is what
//! [`RenderOutput::deps`](crate::RenderOutput) and
//! [`CompositionPlan::deps`](crate::CompositionPlan::deps) carry.

use std::cell::{Cell, RefCell};
use std::ops::Deref;

use nagano_db::{
    schema, Athlete, AthleteId, Country, CountryId, DbView, Event, EventId, EventPhase, MedalCount,
    NewsArticle, NewsId, OlympicDb, Photo, PhotoId, ResultRow, Sport, SportId,
};

use crate::key::{FragmentKey, PageKey};
use crate::render::Dependency;

/// A vertex a render can depend on: an underlying-data record or an
/// embedded fragment object (a hybrid vertex).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Key {
    Today(u32),
    Sport(SportId),
    Event(EventId),
    Athlete(AthleteId),
    Country(CountryId),
    News(NewsId),
    Photo(PhotoId),
    Photos(EventId),
    Medals,
    Fragment(FragmentKey),
}

impl Key {
    fn vertex_name(self) -> String {
        match self {
            Key::Today(day) => schema::today_data_key(day),
            Key::Sport(s) => s.data_key(),
            Key::Event(e) => e.data_key(),
            Key::Athlete(a) => a.data_key(),
            Key::Country(c) => c.data_key(),
            Key::News(n) => n.data_key(),
            Key::Photo(p) => p.data_key(),
            Key::Photos(e) => schema::photos_data_key(e),
            Key::Medals => schema::medals_data_key(),
            Key::Fragment(f) => PageKey::Fragment(f).object_key(),
        }
    }
}

/// The importance of a `key` edge into a page of `page`'s class; every
/// pair not listed is a unit edge. A weight above 1 makes the page go
/// stale sooner under a threshold policy, below 1 lets it tolerate the
/// change a while (the country page's medal box, the news index's list).
fn weight(page: PageKey, key: Key) -> f64 {
    use FragmentKey::{Headlines, ResultTable};
    match (page, key) {
        (PageKey::Home(_), Key::Today(_) | Key::Fragment(ResultTable(_))) => 2.0,
        (PageKey::Home(_), Key::Fragment(Headlines(_))) => 0.5,
        (PageKey::Event(_), Key::Photos(_) | Key::Photo(_)) => 0.5,
        (PageKey::Country(_), Key::Medals) => 0.25,
        (PageKey::NewsIndex(_), Key::News(_)) => 0.5,
        (PageKey::Fragment(Headlines(_)), Key::Today(_)) => 0.5,
        _ => 1.0,
    }
}

/// A row whose fields are all fixed at seeding: no logged mutation
/// changes them, so reading one records nothing. Athlete, country and
/// sport rows deref to the row; an event exposes only its fixed fields
/// (its phase goes through [`Reads::phase`]).
pub(crate) struct Seeded<'r, T>(&'r T);

impl<T> Clone for Seeded<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Seeded<'_, T> {}

impl Deref for Seeded<'_, Athlete> {
    type Target = Athlete;
    fn deref(&self) -> &Athlete {
        self.0
    }
}

impl Deref for Seeded<'_, Country> {
    type Target = Country;
    fn deref(&self) -> &Country {
        self.0
    }
}

impl Deref for Seeded<'_, Sport> {
    type Target = Sport;
    fn deref(&self) -> &Sport {
        self.0
    }
}

impl<'r> Seeded<'r, Event> {
    pub(crate) fn id(self) -> EventId {
        self.0.id
    }

    pub(crate) fn name(self) -> &'r str {
        &self.0.name
    }

    pub(crate) fn day(self) -> u32 {
        self.0.day
    }

    pub(crate) fn sport(self) -> SportId {
        self.0.sport
    }
}

/// A recording read view for one render of `page` (see the module docs).
pub(crate) struct Reads<'a> {
    view: DbView<'a>,
    page: PageKey,
    recorded: RefCell<Vec<Key>>,
    muted: Cell<bool>,
}

impl<'a> Reads<'a> {
    /// Take `db`'s read view for a render of `page`.
    pub(crate) fn open(db: &'a OlympicDb, page: PageKey) -> Self {
        Reads {
            view: db.view(),
            page,
            recorded: RefCell::new(Vec::new()),
            muted: Cell::new(false),
        }
    }

    /// Release the view and return the recorded edges, in first-record
    /// order.
    pub(crate) fn finish(self) -> Vec<Dependency> {
        let Reads {
            view,
            page,
            recorded,
            ..
        } = self;
        drop(view);
        recorded
            .into_inner()
            .into_iter()
            .map(|key| Dependency {
                data_key: key.vertex_name(),
                weight: weight(page, key),
            })
            .collect()
    }

    fn record(&self, key: Key) {
        if self.muted.get() {
            return;
        }
        let mut recorded = self.recorded.borrow_mut();
        if !recorded.contains(&key) {
            recorded.push(key);
        }
    }

    /// Run `f` without recording: an embedded fragment's reads belong to
    /// the fragment's vertex, not to the embedding page.
    pub(crate) fn unrecorded<R>(&self, f: impl FnOnce() -> R) -> R {
        let was = self.muted.replace(true);
        let out = f();
        self.muted.set(was);
        out
    }

    /// Record an edge on the embedded fragment `f`'s object vertex.
    pub(crate) fn embed(&self, f: FragmentKey) {
        self.record(Key::Fragment(f));
    }

    /// A sport (fixed at seeding).
    pub(crate) fn sport(&self, id: SportId) -> Option<Seeded<'_, Sport>> {
        self.view.sport(id).map(Seeded)
    }

    /// An event's fixed fields.
    pub(crate) fn event(&self, id: EventId) -> Option<Seeded<'_, Event>> {
        self.view.event(id).map(Seeded)
    }

    /// An event's phase; records the event.
    pub(crate) fn phase(&self, event: Seeded<'_, Event>) -> EventPhase {
        self.record(Key::Event(event.id()));
        event.0.phase
    }

    /// An athlete (fixed at seeding).
    pub(crate) fn athlete(&self, id: AthleteId) -> Option<Seeded<'_, Athlete>> {
        self.view.athlete(id).map(Seeded)
    }

    /// A country (fixed at seeding).
    pub(crate) fn country(&self, id: CountryId) -> Option<Seeded<'_, Country>> {
        self.view.country(id).map(Seeded)
    }

    /// A news article; records it.
    pub(crate) fn news(&self, id: NewsId) -> Option<&NewsArticle> {
        self.record(Key::News(id));
        self.view.news(id)
    }

    /// One country's medal tally; records the standings.
    pub(crate) fn medal_count(&self, id: CountryId) -> Option<&MedalCount> {
        self.record(Key::Medals);
        self.view.medal_count(id)
    }

    /// The medal standings; records them.
    pub(crate) fn medal_standings(&self) -> &[(CountryId, MedalCount)] {
        self.record(Key::Medals);
        self.view.medal_standings()
    }

    /// Events concluding on `day`; records the day's `today` key.
    pub(crate) fn events_on_day(&self, day: u32) -> impl Iterator<Item = Seeded<'_, Event>> + '_ {
        self.record(Key::Today(day));
        self.view.events_on_day(day).map(Seeded)
    }

    /// Events of a sport; records the sport.
    pub(crate) fn events_of_sport(
        &self,
        sport: SportId,
    ) -> impl Iterator<Item = Seeded<'_, Event>> + '_ {
        self.record(Key::Sport(sport));
        self.view.events_of_sport(sport).map(Seeded)
    }

    /// Athletes of a country; records the country.
    pub(crate) fn athletes_of_country(
        &self,
        country: CountryId,
    ) -> impl Iterator<Item = Seeded<'_, Athlete>> + '_ {
        self.record(Key::Country(country));
        self.view.athletes_of_country(country).map(Seeded)
    }

    /// Results recorded for an event; records the event.
    pub(crate) fn results_for_event(
        &self,
        event: EventId,
    ) -> impl Iterator<Item = &ResultRow> + '_ {
        self.record(Key::Event(event));
        self.view.results_for_event(event)
    }

    /// Results involving an athlete; records the athlete.
    pub(crate) fn results_for_athlete(
        &self,
        athlete: AthleteId,
    ) -> impl Iterator<Item = &ResultRow> + '_ {
        self.record(Key::Athlete(athlete));
        self.view.results_for_athlete(athlete)
    }

    /// News published on `day`; records the day's `today` key, then each
    /// article as it is yielded.
    pub(crate) fn news_on_day(&self, day: u32) -> impl Iterator<Item = &NewsArticle> + '_ {
        self.record(Key::Today(day));
        self.view
            .news_on_day(day)
            .inspect(|a| self.record(Key::News(a.id)))
    }

    /// Photos about an event; records the event's photo set, then each
    /// photo as it is yielded.
    pub(crate) fn photos_for_event(&self, event: EventId) -> impl Iterator<Item = &Photo> + '_ {
        self.record(Key::Photos(event));
        self.view
            .photos_for_event(event)
            .inspect(|p| self.record(Key::Photo(p.id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Renderer;
    use nagano_db::{seed_games, GamesConfig};
    use std::sync::Arc;

    fn seeded() -> Arc<OlympicDb> {
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &GamesConfig::small());
        db
    }

    fn keys(deps: &[Dependency]) -> Vec<&str> {
        deps.iter().map(|d| d.data_key.as_str()).collect()
    }

    #[test]
    fn rows_are_recorded_as_they_are_yielded() {
        let db = seeded();
        for n in 0..12 {
            db.publish_news(NewsArticle {
                id: NewsId(500 + n),
                day: 3,
                title: format!("Story {n}"),
                body: String::new(),
                about_event: None,
            });
        }
        // The headline strip shows eight of the twelve stories, so it
        // depends on exactly those eight.
        let out = Renderer::new(db).render_fragment(FragmentKey::Headlines(3));
        let mut want = vec!["data:today:3".to_string()];
        want.extend((500..508).map(|n| format!("data:news:{n}")));
        assert_eq!(keys(&out.deps), want);
    }

    #[test]
    fn an_embedded_fragments_reads_stay_off_the_page() {
        let db = seeded();
        let out = Renderer::new(db).render(PageKey::Medals);
        assert_eq!(keys(&out.deps), ["page:/fragments/medals"]);
    }

    #[test]
    fn a_repeated_read_keeps_its_first_edge() {
        let db = seeded();
        let reads = Reads::open(&db, PageKey::Home(2));
        let event = reads.event(EventId(1)).expect("seeded event");
        reads.embed(FragmentKey::ResultTable(EventId(1)));
        reads.phase(event);
        let _ = reads.results_for_event(EventId(1)).count();
        reads.embed(FragmentKey::ResultTable(EventId(1)));
        let deps = reads.finish();
        assert_eq!(
            keys(&deps),
            ["page:/fragments/results/1", "data:event:1"],
            "one edge per vertex, in first-read order"
        );
        assert_eq!(deps[0].weight, 2.0);
        assert_eq!(deps[1].weight, 1.0);
    }

    #[test]
    fn seeded_rows_record_nothing() {
        let db = seeded();
        let reads = Reads::open(&db, PageKey::Athlete(AthleteId(1)));
        let _ = reads.athlete(AthleteId(1));
        let _ = reads.country(CountryId(1));
        let _ = reads.sport(SportId(1));
        let _ = reads
            .event(EventId(1))
            .map(|e| (e.name().len(), e.day(), e.sport()));
        assert!(reads.finish().is_empty());
    }
}
