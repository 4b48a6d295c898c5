//! The site database: typed tables + transaction log.
//!
//! Mirrors the paper's master results database. Initial content (sports,
//! events, athletes, countries compiled "over the preceding year") is
//! *loaded* without logging; everything that changes during the Games —
//! results arriving from venues, medal tallies, news, photos — goes
//! through logged mutation methods so the trigger monitor sees precisely
//! which records changed.

use parking_lot::RwLock;
use rustc_hash::FxHashMap;
use std::cmp::Ordering;
use std::sync::Arc;

use crate::schema::{
    medals_data_key, photos_data_key, today_data_key, Athlete, AthleteId, Country, CountryId,
    Event, EventId, EventPhase, MedalCount, NewsArticle, NewsId, Photo, PhotoId, ResultId,
    ResultRow, Sport, SportId,
};
use crate::table::Table;
use crate::txn::{RecordChange, Transaction, TxnLog};
use crate::view::DbView;

/// The tables plus the secondary indexes the mutations maintain. Each
/// `*_by_*` index lists ids in id order, so an indexed read returns
/// exactly the rows, in exactly the order, of a full scan.
#[derive(Debug, Default)]
pub(crate) struct Tables {
    pub(crate) sports: Table<SportId, Sport>,
    pub(crate) events: Table<EventId, Event>,
    pub(crate) athletes: Table<AthleteId, Athlete>,
    pub(crate) countries: Table<CountryId, Country>,
    pub(crate) results: Table<ResultId, ResultRow>,
    pub(crate) results_by_event: FxHashMap<EventId, Vec<ResultId>>,
    pub(crate) results_by_athlete: FxHashMap<AthleteId, Vec<ResultId>>,
    pub(crate) athletes_by_country: FxHashMap<CountryId, Vec<AthleteId>>,
    pub(crate) medals: Table<CountryId, MedalCount>,
    /// `medals` in standings order, re-sorted whenever a tally changes.
    pub(crate) standings: Vec<(CountryId, MedalCount)>,
    pub(crate) news: Table<NewsId, NewsArticle>,
    pub(crate) photos: Table<PhotoId, Photo>,
    next_result: u32,
}

/// Standings order: gold, then total medals (both descending), then id.
fn standings_order(a: &(CountryId, MedalCount), b: &(CountryId, MedalCount)) -> Ordering {
    b.1.gold
        .cmp(&a.1.gold)
        .then(b.1.total().cmp(&a.1.total()))
        .then(a.0.cmp(&b.0))
}

impl Tables {
    fn resort_standings(&mut self) {
        self.standings = self.medals.iter().map(|(id, m)| (id, *m)).collect();
        self.standings.sort_by(standings_order);
    }
}

/// The Olympic site database.
#[derive(Debug, Default)]
pub struct OlympicDb {
    tables: RwLock<Tables>,
    log: TxnLog,
}

impl OlympicDb {
    /// New empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The transaction log.
    pub fn log(&self) -> &TxnLog {
        &self.log
    }

    /// Subscribe to committed transactions.
    pub fn subscribe(&self) -> crossbeam::channel::Receiver<Arc<Transaction>> {
        self.log.subscribe()
    }

    /// A consistent read view: one shared lock held until the view drops.
    /// Its accessors borrow rows instead of cloning them. While a view is
    /// alive its thread must take no other lock on this database — a
    /// second read queues behind any waiting writer and deadlocks.
    pub fn view(&self) -> DbView<'_> {
        DbView::new(|| self.tables.read())
    }

    // ----- unlogged initial loading -------------------------------------

    /// Load a sport (seeding; not logged).
    pub fn load_sport(&self, s: Sport) {
        self.tables.write().sports.upsert(s.id, s);
    }

    /// Load an event (seeding; not logged).
    pub fn load_event(&self, e: Event) {
        self.tables.write().events.upsert(e.id, e);
    }

    /// Load an athlete (seeding; not logged).
    pub fn load_athlete(&self, a: Athlete) {
        let mut t = self.tables.write();
        let (id, country) = (a.id, a.country);
        if let Some(old) = t.athletes.upsert(id, a) {
            if let Some(ids) = t.athletes_by_country.get_mut(&old.country) {
                ids.retain(|&x| x != id);
            }
        }
        let ids = t.athletes_by_country.entry(country).or_default();
        if let Err(at) = ids.binary_search(&id) {
            ids.insert(at, id);
        }
    }

    /// Load a country (seeding; not logged). Starts its medal tally at 0.
    pub fn load_country(&self, c: Country) {
        let mut t = self.tables.write();
        t.medals.upsert(c.id, MedalCount::default());
        t.countries.upsert(c.id, c);
        t.resort_standings();
    }

    // ----- logged mutations ----------------------------------------------

    /// Record a batch of results for `event`, in placement order (first
    /// element = rank 1). When `is_final`, medals are awarded to the top
    /// three and the event moves to [`EventPhase::Final`].
    ///
    /// This is the hot mutation of the Games: one call corresponds to one
    /// "new results received" moment in Figure 15, and its transaction
    /// names every underlying datum the change touches.
    pub fn record_results(
        &self,
        event: EventId,
        placements: &[(AthleteId, f64)],
        is_final: bool,
        day: u32,
    ) -> Arc<Transaction> {
        let mut changes: Vec<RecordChange> = Vec::new();
        let label;
        {
            let mut t = self.tables.write();
            assert!(t.events.contains(event), "unknown event {event}");
            label = format!(
                "{} results for {}",
                if is_final { "final" } else { "partial" },
                t.events
                    .get(event)
                    .map(|e| e.name.clone())
                    .unwrap_or_default()
            );
            for (rank0, &(athlete, score)) in placements.iter().enumerate() {
                t.next_result += 1;
                let id = ResultId(t.next_result);
                t.results.upsert(
                    id,
                    ResultRow {
                        id,
                        event,
                        athlete,
                        rank: rank0 as u32 + 1,
                        score,
                        is_final,
                    },
                );
                t.results_by_event.entry(event).or_default().push(id);
                t.results_by_athlete.entry(athlete).or_default().push(id);
                changes.push(RecordChange::update(athlete.data_key()));
                if let Some(a) = t.athletes.get(athlete) {
                    changes.push(RecordChange::update(a.country.data_key()));
                }
            }
            changes.push(RecordChange::update(event.data_key()));
            if let Some(e) = t.events.get(event) {
                changes.push(RecordChange::update(e.sport.data_key()));
            }
            if is_final {
                if let Some(e) = t.events.get_mut(event) {
                    e.phase = EventPhase::Final;
                }
                let medal_countries: Vec<CountryId> = placements
                    .iter()
                    .take(3)
                    .filter_map(|&(a, _)| t.athletes.get(a).map(|x| x.country))
                    .collect();
                for (i, c) in medal_countries.iter().enumerate() {
                    let tally = t.medals.get_mut(*c).expect("country loaded");
                    match i {
                        0 => tally.gold += 1,
                        1 => tally.silver += 1,
                        _ => tally.bronze += 1,
                    }
                }
                t.resort_standings();
                changes.push(RecordChange::update(medals_data_key()));
            } else if let Some(e) = t.events.get_mut(event) {
                if e.phase == EventPhase::Scheduled {
                    e.phase = EventPhase::InProgress;
                }
            }
            changes.push(RecordChange::update(today_data_key(day)));
        }
        changes.dedup_by(|a, b| a.data_key == b.data_key);
        self.log.append(changes, label, day)
    }

    /// Publish a news story.
    pub fn publish_news(&self, article: NewsArticle) -> Arc<Transaction> {
        let day = article.day;
        let mut changes = vec![
            RecordChange::insert(article.id.data_key()),
            RecordChange::update(today_data_key(day)),
        ];
        if let Some(ev) = article.about_event {
            changes.push(RecordChange::update(ev.data_key()));
        }
        let label = format!("news: {}", article.title);
        self.tables.write().news.upsert(article.id, article);
        self.log.append(changes, label, day)
    }

    /// File a classified photo.
    pub fn add_photo(&self, photo: Photo) -> Arc<Transaction> {
        let day = photo.day;
        let mut changes = vec![RecordChange::insert(photo.id.data_key())];
        if let Some(ev) = photo.about_event {
            changes.push(RecordChange::update(ev.data_key()));
            changes.push(RecordChange::update(photos_data_key(ev)));
        }
        let label = format!("photo {}", photo.id);
        self.tables.write().photos.upsert(photo.id, photo);
        self.log.append(changes, label, day)
    }

    // ----- queries ---------------------------------------------------------
    //
    // Owned-row conveniences: each one clones out of a short-lived
    // [`DbView`], the single implementation of every query.

    /// Fetch a sport.
    pub fn sport(&self, id: SportId) -> Option<Sport> {
        self.view().sport(id).cloned()
    }

    /// Fetch an event.
    pub fn event(&self, id: EventId) -> Option<Event> {
        self.view().event(id).cloned()
    }

    /// Fetch an athlete.
    pub fn athlete(&self, id: AthleteId) -> Option<Athlete> {
        self.view().athlete(id).cloned()
    }

    /// Fetch a country.
    pub fn country(&self, id: CountryId) -> Option<Country> {
        self.view().country(id).cloned()
    }

    /// Fetch a news article.
    pub fn news(&self, id: NewsId) -> Option<NewsArticle> {
        self.view().news(id).cloned()
    }

    /// All sports (id order).
    pub fn sports(&self) -> Vec<Sport> {
        self.view().sports().cloned().collect()
    }

    /// All events (id order).
    pub fn events(&self) -> Vec<Event> {
        self.view().events().cloned().collect()
    }

    /// All countries (id order).
    pub fn countries(&self) -> Vec<Country> {
        self.view().countries().cloned().collect()
    }

    /// All athletes (id order).
    pub fn athletes(&self) -> Vec<Athlete> {
        self.view().athletes().cloned().collect()
    }

    /// Events concluding on `day`, id order.
    pub fn events_on_day(&self, day: u32) -> Vec<Event> {
        self.view().events_on_day(day).cloned().collect()
    }

    /// Events of a sport, id order.
    pub fn events_of_sport(&self, sport: SportId) -> Vec<Event> {
        self.view().events_of_sport(sport).cloned().collect()
    }

    /// Athletes of a country, id order.
    pub fn athletes_of_country(&self, country: CountryId) -> Vec<Athlete> {
        self.view().athletes_of_country(country).cloned().collect()
    }

    /// Athletes competing in a sport, id order.
    pub fn athletes_of_sport(&self, sport: SportId) -> Vec<Athlete> {
        self.view().athletes_of_sport(sport).cloned().collect()
    }

    /// Results recorded for an event, in insertion order.
    pub fn results_for_event(&self, event: EventId) -> Vec<ResultRow> {
        self.view().results_for_event(event).cloned().collect()
    }

    /// Results involving an athlete, id order.
    pub fn results_for_athlete(&self, athlete: AthleteId) -> Vec<ResultRow> {
        self.view().results_for_athlete(athlete).cloned().collect()
    }

    /// Medal standings sorted by gold, then total, then id.
    pub fn medal_standings(&self) -> Vec<(CountryId, MedalCount)> {
        self.view().medal_standings().to_vec()
    }

    /// News published on `day`, id order.
    pub fn news_on_day(&self, day: u32) -> Vec<NewsArticle> {
        self.view().news_on_day(day).cloned().collect()
    }

    /// Photos about an event, id order.
    pub fn photos_for_event(&self, event: EventId) -> Vec<Photo> {
        self.view().photos_for_event(event).cloned().collect()
    }

    /// Row counts: (sports, events, athletes, countries, results, news,
    /// photos).
    pub fn counts(&self) -> (usize, usize, usize, usize, usize, usize, usize) {
        self.view().counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_db() -> OlympicDb {
        let db = OlympicDb::new();
        db.load_country(Country {
            id: CountryId(1),
            code: "NOR".into(),
            name: "Norway".into(),
        });
        db.load_country(Country {
            id: CountryId(2),
            code: "JPN".into(),
            name: "Japan".into(),
        });
        db.load_sport(Sport {
            id: SportId(1),
            name: "Cross Country Skiing".into(),
            venue: "Snow Harp".into(),
        });
        db.load_event(Event {
            id: EventId(1),
            sport: SportId(1),
            name: "Men's 10km Classical".into(),
            day: 3,
            hour: 10,
            popularity: 1.0,
            phase: EventPhase::Scheduled,
        });
        for (i, c) in [(1, 1), (2, 1), (3, 2), (4, 2)] {
            db.load_athlete(Athlete {
                id: AthleteId(i),
                name: format!("Athlete {i}"),
                country: CountryId(c),
                sport: SportId(1),
            });
        }
        db
    }

    #[test]
    fn loading_is_not_logged() {
        let db = tiny_db();
        assert!(db.log().is_empty());
        assert_eq!(db.counts(), (1, 1, 4, 2, 0, 0, 0));
    }

    #[test]
    fn final_results_award_medals_and_log_everything() {
        let db = tiny_db();
        let txn = db.record_results(
            EventId(1),
            &[
                (AthleteId(3), 100.0),
                (AthleteId(1), 95.0),
                (AthleteId(2), 90.0),
            ],
            true,
            3,
        );
        // Standings: JPN gold (athlete 3), NOR silver+bronze.
        let standings = db.medal_standings();
        assert_eq!(standings[0].0, CountryId(2));
        assert_eq!(standings[0].1.gold, 1);
        assert_eq!(standings[1].0, CountryId(1));
        assert_eq!(standings[1].1.silver, 1);
        assert_eq!(standings[1].1.bronze, 1);
        // Event phase flips to Final.
        assert_eq!(db.event(EventId(1)).unwrap().phase, EventPhase::Final);
        // Transaction names athletes, countries, event, sport, medals, today.
        let keys: Vec<&str> = txn.changes.iter().map(|c| c.data_key.as_str()).collect();
        assert!(keys.contains(&"data:athlete:3"));
        assert!(keys.contains(&"data:country:2"));
        assert!(keys.contains(&"data:event:1"));
        assert!(keys.contains(&"data:sport:1"));
        assert!(keys.contains(&"data:medals:standings"));
        assert!(keys.contains(&"data:today:3"));
        assert!(txn.label.contains("final"));
    }

    #[test]
    fn partial_results_do_not_award_medals() {
        let db = tiny_db();
        let txn = db.record_results(EventId(1), &[(AthleteId(1), 50.0)], false, 3);
        assert_eq!(db.medal_standings()[0].1.total(), 0);
        assert_eq!(db.event(EventId(1)).unwrap().phase, EventPhase::InProgress);
        assert!(!txn.changes.iter().any(|c| c.data_key == medals_data_key()));
    }

    #[test]
    fn results_queries() {
        let db = tiny_db();
        db.record_results(
            EventId(1),
            &[(AthleteId(1), 1.0), (AthleteId(2), 2.0)],
            false,
            3,
        );
        db.record_results(EventId(1), &[(AthleteId(1), 3.0)], false, 3);
        let by_event = db.results_for_event(EventId(1));
        assert_eq!(by_event.len(), 3);
        assert_eq!(by_event[0].rank, 1);
        let by_athlete = db.results_for_athlete(AthleteId(1));
        assert_eq!(by_athlete.len(), 2);
        assert!(db.results_for_event(EventId(9)).is_empty());
    }

    #[test]
    fn news_and_photos_log_related_event() {
        let db = tiny_db();
        let t1 = db.publish_news(NewsArticle {
            id: NewsId(1),
            day: 3,
            title: "Upset in the classical".into(),
            body: "…".into(),
            about_event: Some(EventId(1)),
        });
        assert!(t1.changes.iter().any(|c| c.data_key == "data:news:1"));
        assert!(t1.changes.iter().any(|c| c.data_key == "data:event:1"));
        let t2 = db.add_photo(Photo {
            id: PhotoId(1),
            day: 3,
            about_event: Some(EventId(1)),
            bytes: 40_000,
        });
        assert!(t2.changes.iter().any(|c| c.data_key == "data:photo:1"));
        assert!(t2.changes.iter().any(|c| c.data_key == "data:photos:1"));
        assert_eq!(db.news_on_day(3).len(), 1);
        assert_eq!(db.photos_for_event(EventId(1)).len(), 1);
    }

    #[test]
    fn subscription_sees_mutations() {
        let db = tiny_db();
        let rx = db.subscribe();
        db.record_results(EventId(1), &[(AthleteId(1), 1.0)], false, 3);
        let txn = rx.try_recv().unwrap();
        assert_eq!(txn.id.0, 1);
        assert_eq!(txn.day, 3);
    }

    #[test]
    fn selector_queries() {
        let db = tiny_db();
        assert_eq!(db.events_on_day(3).len(), 1);
        assert!(db.events_on_day(9).is_empty());
        assert_eq!(db.events_of_sport(SportId(1)).len(), 1);
        assert_eq!(db.athletes_of_country(CountryId(1)).len(), 2);
        assert_eq!(db.athletes_of_sport(SportId(1)).len(), 4);
    }

    #[test]
    #[should_panic(expected = "unknown event")]
    fn results_for_unknown_event_panic() {
        let db = tiny_db();
        db.record_results(EventId(42), &[(AthleteId(1), 1.0)], false, 1);
    }
}
