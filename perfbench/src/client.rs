//! The load generator: a minimal keep-alive HTTP/1.1 client of the
//! benchmark's own (so client cost does not move with the server's code),
//! a closed loop for capacity and a paced open loop for latency.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bytes::Bytes;
use nagano_simcore::DeterministicRng;

use crate::stats::{fnv1a, Histogram};
use crate::trace::{now_ns, Trace, ROOT};

/// Window of the latency percentiles: each window's percentile is taken,
/// then the median over the windows, so a stall of the shared host in a
/// few windows does not move the result.
const WINDOW_SECS: f64 = 0.1;

/// Share of requests that revalidate with `If-None-Match` when the
/// connection has seen the page before.
pub const INM_FRACTION: f64 = 0.3;

/// One servable page of the request mix.
pub struct Page {
    /// Request path.
    pub path: String,
    /// Digest of the path, the tag linking client and server spans.
    pub tag: u64,
}

/// The request mix: pages and their cumulative popularity.
pub struct Mix {
    /// Pages with non-zero weight, in registry order.
    pub pages: Vec<Page>,
    cdf: Vec<f64>,
}

impl Mix {
    /// Build from `(path, weight)` pairs; zero weights are dropped.
    pub fn new(weighted: Vec<(String, f64)>) -> Mix {
        let weighted: Vec<(String, f64)> = weighted.into_iter().filter(|(_, w)| *w > 0.0).collect();
        let total: f64 = weighted.iter().map(|(_, w)| w).sum();
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(weighted.len());
        let mut pages = Vec::with_capacity(weighted.len());
        for (path, w) in weighted {
            acc += w / total;
            cdf.push(acc);
            pages.push(Page {
                tag: fnv1a(path.as_bytes()),
                path,
            });
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Mix { pages, cdf }
    }

    /// Draw a page index and whether the request is conditional.
    pub fn draw(&self, rng: &mut DeterministicRng) -> (usize, bool) {
        let u = rng.f64();
        let page = self
            .cdf
            .partition_point(|&p| p <= u)
            .min(self.pages.len() - 1);
        (page, rng.chance(INM_FRACTION))
    }
}

/// What a response must look like to count as correct.
pub enum Expect<'a> {
    /// No updates during the phase: every 200 carries exactly this body
    /// and version, every 304 this version.
    Fixed(&'a [(Bytes, u64)]),
    /// Updates during the phase: bodies are well formed, versions never go
    /// backwards on a connection, a 304 echoes the validator sent.
    Evolving,
}

/// Outcome of one exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// 200 with a correct body.
    Ok,
    /// 304 with a correct validator.
    NotModified,
    /// Wrong status, body or validator.
    Wrong,
}

/// A keep-alive client connection.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    out: Vec<u8>,
    /// Last version seen per page index (0 = never seen).
    known: Vec<u64>,
}

impl Conn {
    /// Connect to `addr` for a mix of `pages` pages.
    pub fn connect(addr: SocketAddr, pages: usize) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            addr,
            stream,
            buf: vec![0; 1 << 18],
            start: 0,
            end: 0,
            out: Vec::with_capacity(256),
            known: vec![0; pages],
        })
    }

    fn reconnect(&mut self) -> io::Result<()> {
        let fresh = Conn::connect(self.addr, 0)?;
        self.stream = fresh.stream;
        self.start = 0;
        self.end = 0;
        Ok(())
    }

    /// Send one GET for `page` (conditional if asked and a version is
    /// known) and read and check the response.
    pub fn exchange(
        &mut self,
        idx: usize,
        page: &Page,
        conditional: bool,
        expect: &Expect,
    ) -> io::Result<Outcome> {
        let inm = if conditional { self.known[idx] } else { 0 };
        self.out.clear();
        self.out.extend_from_slice(b"GET ");
        self.out.extend_from_slice(page.path.as_bytes());
        self.out.extend_from_slice(b" HTTP/1.1\r\nHost: nagano\r\n");
        if inm != 0 {
            write!(self.out, "If-None-Match: \"v{inm}\"\r\n")?;
        }
        self.out.extend_from_slice(b"\r\n");
        self.stream.write_all(&self.out)?;

        let head_end = self.read_head()?;
        let (status, len, version) = parse_head(&self.buf[self.start..head_end]);
        let head_len = head_end + 4 - self.start;
        self.ensure_room(head_len + len);
        let body_start = self.start + head_len;
        while self.end < body_start + len {
            self.read_more()?;
        }
        let body = &self.buf[body_start..body_start + len];
        let outcome = match (status, expect) {
            (200, Expect::Fixed(table)) => {
                let (want, want_version) = &table[idx];
                let fresh = inm == 0 || inm != *want_version;
                if fresh && body == &want[..] && version == *want_version {
                    Outcome::Ok
                } else {
                    Outcome::Wrong
                }
            }
            (304, Expect::Fixed(table)) => {
                if inm != 0 && version == inm && version == table[idx].1 && len == 0 {
                    Outcome::NotModified
                } else {
                    Outcome::Wrong
                }
            }
            (200, Expect::Evolving) => {
                if len > 0 && version >= self.known[idx] && version != inm {
                    Outcome::Ok
                } else {
                    Outcome::Wrong
                }
            }
            (304, Expect::Evolving) => {
                if inm != 0 && version == inm && len == 0 {
                    Outcome::NotModified
                } else {
                    Outcome::Wrong
                }
            }
            _ => Outcome::Wrong,
        };
        if version > self.known[idx] {
            self.known[idx] = version;
        }
        self.start = body_start + len;
        Ok(outcome)
    }

    /// Read until the buffer holds a full head; return the offset of its
    /// terminating `\r\n\r\n`.
    fn read_head(&mut self) -> io::Result<usize> {
        let mut scanned = 0;
        loop {
            if let Some(p) = self.buf[self.start + scanned..self.end]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            {
                return Ok(self.start + scanned + p);
            }
            scanned = (self.end - self.start).saturating_sub(3);
            self.read_more()?;
        }
    }

    /// Make sure `need` bytes from `start` fit in the buffer, moving the
    /// unread bytes to the front and growing it if they would not.
    fn ensure_room(&mut self, need: usize) {
        if self.start + need > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if need > self.buf.len() {
                self.buf.resize(need.next_power_of_two(), 0);
            }
        }
    }

    fn read_more(&mut self) -> io::Result<()> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            self.ensure_room(self.buf.len() - self.start + 1);
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        self.end += n;
        Ok(())
    }
}

/// Status, `Content-Length` and the version in the `ETag` of a head.
fn parse_head(head: &[u8]) -> (u16, usize, u64) {
    let status = head
        .get(9..12)
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut len = 0;
    let mut version = 0;
    for line in head.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        let (name, value) = (&line[..colon], line[colon + 1..].trim_ascii());
        if name.eq_ignore_ascii_case(b"content-length") {
            len = parse_digits(value);
        } else if name.eq_ignore_ascii_case(b"etag") {
            version = parse_digits(value.strip_prefix(b"\"v").unwrap_or(b"")) as u64;
        }
    }
    (status, len, version)
}

fn parse_digits(s: &[u8]) -> usize {
    s.iter()
        .take_while(|b| b.is_ascii_digit())
        .fold(0usize, |n, &b| n * 10 + usize::from(b - b'0'))
}

/// Counts of one client thread.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Transport errors plus wrong responses.
    pub failed: u64,
    /// 304 answers.
    pub not_modified: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.not_modified += other.not_modified;
    }
}

/// Run one exchange and book its outcome; a transport error reconnects.
fn step(
    conn: &mut Conn,
    mix: &Mix,
    rng: &mut DeterministicRng,
    expect: &Expect,
    t: &mut Tally,
) -> usize {
    let (idx, conditional) = mix.draw(rng);
    t.attempted += 1;
    match conn.exchange(idx, &mix.pages[idx], conditional, expect) {
        Ok(Outcome::Ok) => {}
        Ok(Outcome::NotModified) => t.not_modified += 1,
        Ok(Outcome::Wrong) => t.failed += 1,
        Err(_) => {
            t.failed += 1;
            let _ = conn.reconnect();
        }
    }
    idx
}

/// Result of a closed-loop phase.
pub struct Closed {
    /// Latency (send to last body byte) of the requests completed in
    /// each window of [`WINDOW_SECS`]; their count gives the throughput.
    pub windows: Vec<Histogram>,
    /// Counts.
    pub tally: Tally,
    /// Client spans (traced runs).
    pub trace: Trace,
}

impl Closed {
    /// Requests per second: the mean over the middle half of the windows,
    /// so a stall or burst of the shared host in a few windows does not
    /// move it.
    pub fn rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|h| h.total() as f64 / WINDOW_SECS)
            .collect();
        crate::stats::interquartile_mean(&rates)
    }

    /// The median over windows of each window's `q`-quantile latency, ms.
    pub fn windowed_ms(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .filter(|h| h.total() > 0)
            .map(|h| h.quantile(q) / 1e6)
            .collect();
        crate::stats::median(&per_window)
    }

    /// Latency `q`-quantile over the whole phase, ms.
    pub fn pooled_ms(&self, q: f64) -> f64 {
        let mut all = Histogram::default();
        for h in &self.windows {
            all.merge(h);
        }
        all.quantile(q) / 1e6
    }
}

/// Each connection sends its next request as soon as the previous one is
/// answered, for `secs` seconds.
pub fn closed_loop(
    conns: &mut [Conn],
    mix: &Mix,
    rngs: &mut [DeterministicRng],
    expect: &Expect,
    secs: f64,
    traced: bool,
) -> Closed {
    let n_windows = (secs / WINDOW_SECS).floor().max(1.0) as usize;
    let end = n_windows as f64 * WINDOW_SECS;
    let t0 = Instant::now();
    let results: Vec<(Vec<Histogram>, Tally, Trace)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(rngs.iter_mut())
            .enumerate()
            .map(|(c, (conn, rng))| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut trace = Trace::default();
                    let mut windows = vec![Histogram::default(); n_windows];
                    let mut seq = 0u64;
                    loop {
                        let sent = t0.elapsed();
                        if sent.as_secs_f64() >= end {
                            break;
                        }
                        let start = if traced { now_ns() } else { 0 };
                        let idx = step(conn, mix, rng, expect, &mut tally);
                        let done = t0.elapsed();
                        if traced {
                            let req = ((c as u64) << 40) | seq;
                            trace.record(
                                "loadgen.request",
                                start,
                                now_ns(),
                                ROOT,
                                req,
                                mix.pages[idx].tag,
                            );
                        }
                        seq += 1;
                        let w = (done.as_secs_f64() / WINDOW_SECS) as usize;
                        if w < n_windows {
                            windows[w].record((done - sent).as_nanos() as u64);
                        }
                    }
                    (windows, tally, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut trace = Trace::default();
    let mut windows = vec![Histogram::default(); n_windows];
    for (w, t, tr) in results {
        for (a, b) in windows.iter_mut().zip(&w) {
            a.merge(b);
        }
        tally.add(&t);
        trace.absorb(tr);
    }
    Closed {
        windows,
        tally,
        trace,
    }
}

/// Result of a paced phase.
pub struct Paced {
    /// Per request: completion minus due time, ns.
    pub latency_ns: Vec<f64>,
    /// Per request: send time minus the later of its due time and the
    /// previous answer on its connection, ns.
    pub late_ns: Vec<f64>,
    /// Counts.
    pub tally: Tally,
    /// Client spans (traced runs).
    pub trace: Trace,
}

/// Open loop: request `k` of the phase is due at `k / rate_rps` seconds,
/// round-robin over the connections, whether or not earlier ones have
/// been answered. Latency counts from the due time.
pub fn paced(
    conns: &mut [Conn],
    mix: &Mix,
    rngs: &mut [DeterministicRng],
    expect: &Expect,
    rate_rps: f64,
    secs: f64,
    traced: bool,
) -> Paced {
    let n_conn = conns.len() as u64;
    let total = (rate_rps * secs) as u64;
    let t0 = Instant::now();
    let results: Vec<(Vec<f64>, Vec<f64>, Tally, Trace)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(rngs.iter_mut())
            .enumerate()
            .map(|(c, (conn, rng))| {
                s.spawn(move || {
                    crate::sys::tight_timer_slack();
                    let mut lat = Vec::with_capacity((total / n_conn + 1) as usize);
                    let mut late = Vec::with_capacity((total / n_conn + 1) as usize);
                    let mut tally = Tally::default();
                    let mut trace = Trace::default();
                    let mut k = c as u64;
                    let mut free = Duration::ZERO;
                    while k < total {
                        let due = Duration::from_secs_f64(k as f64 / rate_rps);
                        let now = t0.elapsed();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = t0.elapsed();
                        // The generator's own lateness: from when the
                        // request could first go out (due, and the
                        // connection free) to when it did.
                        late.push(sent.saturating_sub(due.max(free)).as_nanos() as f64);
                        let start = if traced { now_ns() } else { 0 };
                        let idx = step(conn, mix, rng, expect, &mut tally);
                        let done = t0.elapsed();
                        if traced {
                            let req = ((c as u64) << 40) | k;
                            trace.record(
                                "loadgen.request",
                                start,
                                now_ns(),
                                ROOT,
                                req,
                                mix.pages[idx].tag,
                            );
                        }
                        lat.push((done - due).as_nanos() as f64);
                        free = done;
                        k += n_conn;
                    }
                    (lat, late, tally, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Paced {
        latency_ns: Vec::new(),
        late_ns: Vec::new(),
        tally: Tally::default(),
        trace: Trace::default(),
    };
    for (lat, late, t, tr) in results {
        out.latency_ns.extend(lat);
        out.late_ns.extend(late);
        out.tally.add(&t);
        out.trace.absorb(tr);
    }
    out
}
