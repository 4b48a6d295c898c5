// Fixture: the renderer from fixtures/semantic with both ODG defects
// fixed — `Standings` actually renders the medal box its edge tracks,
// and `Roster` and `Country` register the edges their reads need.

impl Renderer {
    fn render_page(&self, key: PageKey, html: &mut String, deps: &mut Vec<Dependency>) -> String {
        match key {
            PageKey::Standings(day) => {
                deps.push(Dependency::new(nagano_db::schema::today_data_key(day)));
                deps.push(Dependency::weighted(
                    nagano_db::schema::medals_data_key(),
                    0.25,
                ));
                for (c, m) in self.db.medal_standings().iter().take(3) {
                    let _ = writeln!(html, "<span>{} {}</span>", c, m.gold);
                }
                for event in self.db.events_on_day(day) {
                    deps.push(Dependency::new(
                        PageKey::Fragment(FragmentKey::ScheduleRow(event.id)).object_key(),
                    ));
                    deps.push(Dependency::weighted(event.id.data_key(), 1.0));
                    self.inline_fragment(
                        FragmentKey::ScheduleRow(event.id),
                        html,
                        slots.as_deref_mut(),
                    );
                }
                format!("Standings day {day}")
            }
            PageKey::Roster(c) => {
                deps.push(Dependency::new(nagano_db::CountryId(c.0).data_key()));
                for a in self.db.athletes_of_country(c) {
                    let _ = writeln!(html, "<div>{}</div>", a.name);
                }
                "Roster".to_string()
            }
            PageKey::Country(c) => {
                deps.push(Dependency::new(c.data_key()));
                deps.push(Dependency::weighted(
                    nagano_db::schema::medals_data_key(),
                    0.25,
                ));
                let name = db.country(c).map(|x| x.name.clone()).unwrap_or_default();
                if let Some(m) = db.medal_count(c) {
                    let _ = writeln!(html, "<p>{name}: {} gold</p>", m.gold);
                }
                name
            }
        }
    }
}
