//! Borrowed, consistent reads: [`DbView`].
//!
//! A view holds the database's shared lock for its whole life, so every
//! read through it sees one committed state, and its accessors hand out
//! references into the tables instead of cloned rows. The renderer takes
//! exactly one view per page; the owned-row queries on
//! [`OlympicDb`](crate::OlympicDb) are one-line collects over a
//! short-lived view, so each query has exactly one implementation.
//!
//! Per-athlete results, per-country athletes and the medal standings are
//! served from secondary indexes the logged mutations keep in id order;
//! the small tables (events, news, photos) and the per-sport athlete list
//! read by the workload generator stay scans.

use parking_lot::RwLockReadGuard;

use crate::database::Tables;
use crate::schema::{
    Athlete, AthleteId, Country, CountryId, Event, EventId, MedalCount, NewsArticle, NewsId, Photo,
    ResultId, ResultRow, Sport, SportId,
};

/// A read view of the database (see the module docs). Drop it before
/// blocking or committing: a writer waits for every live view.
pub struct DbView<'a> {
    t: RwLockReadGuard<'a, Tables>,
}

#[cfg(debug_assertions)]
thread_local! {
    /// Whether this thread holds a view (debug builds only).
    static VIEW_HELD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl Drop for DbView<'_> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        VIEW_HELD.with(|held| held.set(false));
    }
}

impl<'a> DbView<'a> {
    /// Wrap a read guard. `lock` takes it, after debug builds have checked
    /// that this thread holds no other view: std's `RwLock` queues a new
    /// reader behind a waiting writer, so a nested read can deadlock, and
    /// only rarely does in a test. The check makes it fail every time.
    pub(crate) fn new(lock: impl FnOnce() -> RwLockReadGuard<'a, Tables>) -> Self {
        #[cfg(debug_assertions)]
        VIEW_HELD.with(|held| {
            assert!(
                !held.replace(true),
                "a second database read on a thread that holds a DbView \
                 deadlocks once a writer waits; pass the view down instead"
            );
        });
        DbView { t: lock() }
    }

    /// A sport.
    pub fn sport(&self, id: SportId) -> Option<&Sport> {
        self.t.sports.get(id)
    }

    /// An event.
    pub fn event(&self, id: EventId) -> Option<&Event> {
        self.t.events.get(id)
    }

    /// An athlete.
    pub fn athlete(&self, id: AthleteId) -> Option<&Athlete> {
        self.t.athletes.get(id)
    }

    /// A country.
    pub fn country(&self, id: CountryId) -> Option<&Country> {
        self.t.countries.get(id)
    }

    /// A news article.
    pub fn news(&self, id: NewsId) -> Option<&NewsArticle> {
        self.t.news.get(id)
    }

    /// One country's medal tally.
    pub fn medal_count(&self, id: CountryId) -> Option<&MedalCount> {
        self.t.medals.get(id)
    }

    /// All sports, id order.
    pub fn sports(&self) -> impl Iterator<Item = &Sport> + '_ {
        self.t.sports.iter().map(|(_, s)| s)
    }

    /// All events, id order.
    pub fn events(&self) -> impl Iterator<Item = &Event> + '_ {
        self.t.events.iter().map(|(_, e)| e)
    }

    /// All countries, id order.
    pub fn countries(&self) -> impl Iterator<Item = &Country> + '_ {
        self.t.countries.iter().map(|(_, c)| c)
    }

    /// All athletes, id order.
    pub fn athletes(&self) -> impl Iterator<Item = &Athlete> + '_ {
        self.t.athletes.iter().map(|(_, a)| a)
    }

    /// Events concluding on `day`, id order (scan of the small events
    /// table).
    pub fn events_on_day(&self, day: u32) -> impl Iterator<Item = &Event> + '_ {
        self.t.events.select(move |e| e.day == day)
    }

    /// Events of a sport, id order (scan).
    pub fn events_of_sport(&self, sport: SportId) -> impl Iterator<Item = &Event> + '_ {
        self.t.events.select(move |e| e.sport == sport)
    }

    /// Athletes of a country, id order (indexed).
    pub fn athletes_of_country(&self, country: CountryId) -> impl Iterator<Item = &Athlete> + '_ {
        let ids = self.t.athletes_by_country.get(&country);
        ids.into_iter()
            .flatten()
            .filter_map(|&id| self.t.athletes.get(id))
    }

    /// Athletes competing in a sport, id order (scan; read only when the
    /// workload picks a podium, never by the renderer).
    pub fn athletes_of_sport(&self, sport: SportId) -> impl Iterator<Item = &Athlete> + '_ {
        self.t.athletes.select(move |a| a.sport == sport)
    }

    /// Results recorded for an event, insertion (= id) order (indexed).
    pub fn results_for_event(&self, event: EventId) -> impl Iterator<Item = &ResultRow> + '_ {
        self.results(self.t.results_by_event.get(&event))
    }

    /// Results involving an athlete, id order (indexed).
    pub fn results_for_athlete(&self, athlete: AthleteId) -> impl Iterator<Item = &ResultRow> + '_ {
        self.results(self.t.results_by_athlete.get(&athlete))
    }

    fn results<'s>(
        &'s self,
        ids: Option<&'s Vec<ResultId>>,
    ) -> impl Iterator<Item = &'s ResultRow> + 's {
        ids.into_iter()
            .flatten()
            .filter_map(|&id| self.t.results.get(id))
    }

    /// Medal standings sorted by gold, then total, then id (kept sorted
    /// by the mutations that change a tally).
    pub fn medal_standings(&self) -> &[(CountryId, MedalCount)] {
        &self.t.standings
    }

    /// News published on `day`, id order (scan).
    pub fn news_on_day(&self, day: u32) -> impl Iterator<Item = &NewsArticle> + '_ {
        self.t.news.select(move |n| n.day == day)
    }

    /// Photos about an event, id order (scan).
    pub fn photos_for_event(&self, event: EventId) -> impl Iterator<Item = &Photo> + '_ {
        self.t.photos.select(move |p| p.about_event == Some(event))
    }

    /// Row counts: (sports, events, athletes, countries, results, news,
    /// photos).
    pub fn counts(&self) -> (usize, usize, usize, usize, usize, usize, usize) {
        let t = &self.t;
        (
            t.sports.len(),
            t.events.len(),
            t.athletes.len(),
            t.countries.len(),
            t.results.len(),
            t.news.len(),
            t.photos.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{EventPhase, PhotoId};
    use crate::OlympicDb;
    use proptest::prelude::*;

    /// Full-scan oracle: the query code from before the indexes, reading
    /// the base tables only.
    mod oracle {
        use crate::database::Tables;
        use crate::schema::*;

        pub fn athletes_of_country(t: &Tables, country: CountryId) -> Vec<&Athlete> {
            t.athletes.select(move |a| a.country == country).collect()
        }

        pub fn athletes_of_sport(t: &Tables, sport: SportId) -> Vec<&Athlete> {
            t.athletes.select(move |a| a.sport == sport).collect()
        }

        pub fn results_for_event(t: &Tables, event: EventId) -> Vec<&ResultRow> {
            t.results.select(move |r| r.event == event).collect()
        }

        pub fn results_for_athlete(t: &Tables, athlete: AthleteId) -> Vec<&ResultRow> {
            t.results.select(move |r| r.athlete == athlete).collect()
        }

        pub fn medal_standings(t: &Tables) -> Vec<(CountryId, MedalCount)> {
            let mut rows: Vec<(CountryId, MedalCount)> =
                t.medals.iter().map(|(id, m)| (id, *m)).collect();
            rows.sort_by(|a, b| {
                b.1.gold
                    .cmp(&a.1.gold)
                    .then(b.1.total().cmp(&a.1.total()))
                    .then(a.0.cmp(&b.0))
            });
            rows
        }

        pub fn medal_count(t: &Tables, country: CountryId) -> Option<&MedalCount> {
            t.medals
                .iter()
                .find(|(id, _)| *id == country)
                .map(|(_, m)| m)
        }

        pub fn events_on_day(t: &Tables, day: u32) -> Vec<&Event> {
            t.events.select(move |e| e.day == day).collect()
        }

        pub fn events_of_sport(t: &Tables, sport: SportId) -> Vec<&Event> {
            t.events.select(move |e| e.sport == sport).collect()
        }

        pub fn news_on_day(t: &Tables, day: u32) -> Vec<&NewsArticle> {
            t.news.select(move |n| n.day == day).collect()
        }

        pub fn photos_for_event(t: &Tables, event: EventId) -> Vec<&Photo> {
            t.photos
                .select(move |p| p.about_event == Some(event))
                .collect()
        }
    }

    const COUNTRIES: u32 = 5;
    const SPORTS: u32 = 3;
    const EVENTS: u32 = 6;
    const ATHLETES: u32 = 24;
    const DAYS: u32 = 4;

    #[derive(Debug, Clone)]
    enum Op {
        Country(u32),
        Sport(u32),
        /// (id, sport, day)
        Event(u32, u32, u32),
        /// (id, country, sport): reloading an athlete may move it to
        /// another country.
        Athlete(u32, u32, u32),
        /// (event, athletes in placement order, is_final, day)
        Results(u32, Vec<u32>, bool, u32),
        /// (id, day, about: 0 = no event, n = event n - 1)
        News(u32, u32, u32),
        /// (id, day, about: as for news)
        Photo(u32, u32, u32),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..COUNTRIES).prop_map(Op::Country),
            (0..SPORTS).prop_map(Op::Sport),
            (0..EVENTS, 0..SPORTS, 1..DAYS + 1).prop_map(|(e, s, d)| Op::Event(e, s, d)),
            (0..ATHLETES, 0..COUNTRIES, 0..SPORTS).prop_map(|(a, c, s)| Op::Athlete(a, c, s)),
            (
                0..EVENTS,
                proptest::collection::vec(0..ATHLETES + 1, 1..8),
                any::<bool>(),
                1..DAYS + 1,
            )
                .prop_map(|(e, athletes, is_final, day)| Op::Results(e, athletes, is_final, day)),
            (0..40u32, 1..DAYS + 1, 0..EVENTS + 1).prop_map(|(n, d, e)| Op::News(n, d, e)),
            (0..40u32, 1..DAYS + 1, 0..EVENTS + 1).prop_map(|(p, d, e)| Op::Photo(p, d, e)),
        ]
    }

    fn about(e: u32) -> Option<EventId> {
        e.checked_sub(1).map(EventId)
    }

    /// Apply `op`, skipping the ones the database rejects by contract (an
    /// unknown event, a medal for an athlete whose country is unloaded).
    fn apply(db: &OlympicDb, op: &Op) {
        match op {
            Op::Country(c) => db.load_country(Country {
                id: CountryId(*c),
                code: format!("C{c}"),
                name: format!("Country {c}"),
            }),
            Op::Sport(s) => db.load_sport(Sport {
                id: SportId(*s),
                name: format!("Sport {s}"),
                venue: format!("Venue {s}"),
            }),
            Op::Event(e, s, day) => db.load_event(Event {
                id: EventId(*e),
                sport: SportId(*s),
                name: format!("Event {e}"),
                day: *day,
                hour: 10,
                popularity: 1.0,
                phase: EventPhase::Scheduled,
            }),
            Op::Athlete(a, c, s) => {
                if db.country(CountryId(*c)).is_some() {
                    db.load_athlete(Athlete {
                        id: AthleteId(*a),
                        name: format!("Athlete {a}"),
                        country: CountryId(*c),
                        sport: SportId(*s),
                    });
                }
            }
            Op::Results(e, athletes, is_final, day) => {
                if db.event(EventId(*e)).is_none() {
                    return;
                }
                let placements: Vec<(AthleteId, f64)> = athletes
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| (AthleteId(a), 100.0 - i as f64))
                    .collect();
                db.record_results(EventId(*e), &placements, *is_final, *day);
            }
            Op::News(n, day, e) => {
                db.publish_news(NewsArticle {
                    id: NewsId(*n),
                    day: *day,
                    title: format!("Story {n}"),
                    body: "…".into(),
                    about_event: about(*e),
                });
            }
            Op::Photo(p, day, e) => {
                db.add_photo(Photo {
                    id: PhotoId(*p),
                    day: *day,
                    about_event: about(*e),
                    bytes: 1_000,
                });
            }
        }
    }

    /// Every view accessor against the full-scan oracle, then every
    /// owned-row query against the view. Ids run one past each generated
    /// range so absent keys are checked too.
    fn check(db: &OlympicDb) {
        let v = db.view();
        let t: &Tables = &v.t;
        let mut owned_athletes = Vec::new();
        for c in (0..=COUNTRIES).map(CountryId) {
            let got: Vec<&Athlete> = v.athletes_of_country(c).collect();
            assert_eq!(
                got,
                oracle::athletes_of_country(t, c),
                "athletes_of_country({c})"
            );
            assert_eq!(
                v.medal_count(c),
                oracle::medal_count(t, c),
                "medal_count({c})"
            );
            owned_athletes.push(v.athletes_of_country(c).cloned().collect::<Vec<_>>());
        }
        assert_eq!(v.medal_standings(), &oracle::medal_standings(t)[..]);
        for s in (0..=SPORTS).map(SportId) {
            let got: Vec<&Athlete> = v.athletes_of_sport(s).collect();
            assert_eq!(
                got,
                oracle::athletes_of_sport(t, s),
                "athletes_of_sport({s})"
            );
            let got: Vec<&Event> = v.events_of_sport(s).collect();
            assert_eq!(got, oracle::events_of_sport(t, s), "events_of_sport({s})");
        }
        for e in (0..=EVENTS).map(EventId) {
            let got: Vec<&ResultRow> = v.results_for_event(e).collect();
            assert_eq!(
                got,
                oracle::results_for_event(t, e),
                "results_for_event({e})"
            );
            let got: Vec<&Photo> = v.photos_for_event(e).collect();
            assert_eq!(got, oracle::photos_for_event(t, e), "photos_for_event({e})");
        }
        for a in (0..=ATHLETES).map(AthleteId) {
            let got: Vec<&ResultRow> = v.results_for_athlete(a).collect();
            assert_eq!(
                got,
                oracle::results_for_athlete(t, a),
                "results_for_athlete({a})"
            );
        }
        for day in 0..=DAYS + 1 {
            let got: Vec<&Event> = v.events_on_day(day).collect();
            assert_eq!(got, oracle::events_on_day(t, day), "events_on_day({day})");
            let got: Vec<&NewsArticle> = v.news_on_day(day).collect();
            assert_eq!(got, oracle::news_on_day(t, day), "news_on_day({day})");
        }
        let standings = v.medal_standings().to_vec();
        let results: Vec<Vec<ResultRow>> = (0..=ATHLETES)
            .map(|a| v.results_for_athlete(AthleteId(a)).cloned().collect())
            .collect();
        drop(v);
        for (c, want) in owned_athletes.iter().enumerate() {
            assert_eq!(&db.athletes_of_country(CountryId(c as u32)), want);
        }
        for (a, want) in results.iter().enumerate() {
            assert_eq!(&db.results_for_athlete(AthleteId(a as u32)), want);
        }
        assert_eq!(db.medal_standings(), standings);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The indexes never drift from the tables they index: after every
        /// mutation of a random sequence, each accessor returns exactly the
        /// oracle's rows in the oracle's order.
        #[test]
        fn view_accessors_match_the_full_scan_oracle(
            ops in proptest::collection::vec(op(), 1..80)
        ) {
            let db = OlympicDb::new();
            for op in &ops {
                apply(&db, op);
                check(&db);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "second database read")]
    fn a_read_under_a_live_view_panics_in_debug_builds() {
        let db = OlympicDb::new();
        let _view = db.view();
        db.counts();
    }

    #[test]
    fn views_taken_one_after_another_are_fine() {
        let db = OlympicDb::new();
        drop(db.view());
        assert_eq!(db.counts(), (0, 0, 0, 0, 0, 0, 0));
    }

    #[test]
    fn reloading_an_athlete_moves_it_between_country_indexes() {
        let db = OlympicDb::new();
        for op in [
            Op::Country(1),
            Op::Country(2),
            Op::Athlete(7, 1, 0),
            Op::Athlete(3, 1, 0),
            Op::Athlete(7, 2, 0),
        ] {
            apply(&db, &op);
        }
        let ids = |c| {
            db.athletes_of_country(CountryId(c))
                .iter()
                .map(|a| a.id.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(1), vec![3]);
        assert_eq!(ids(2), vec![7]);
        check(&db);
    }
}
