//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans stay in per-thread buffers while the run is timed and are
//! merged, linked and written out when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// `parent` of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `core.respond`.
    pub name: &'static str,
    /// Start, ns since the process epoch.
    pub start: u64,
    /// End, ns since the process epoch.
    pub end: u64,
    /// Index of the span that caused this one in the same buffer, or [`ROOT`].
    pub parent: u32,
    /// Request or transaction id shared by the spans of one operation.
    pub req: u64,
    /// Free tag: the page path digest for HTTP spans, 0 otherwise.
    pub tag: u64,
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span buffer owned by one thread.
#[derive(Debug, Default)]
pub struct Trace {
    /// Recorded spans, in start order per thread.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Record a finished span and return its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: u32,
        req: u64,
        tag: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
            tag,
        });
        (self.spans.len() - 1) as u32
    }

    /// Append `other`, keeping its parent links valid.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Link each `child` span recorded on a server thread to the client
    /// span `parent` of the same page whose interval contains it (one
    /// request is in flight per connection, so at most one can), and give
    /// it that span's request id.
    pub fn link_by_containment(&mut self, child: &str, parent: &str) {
        let mut parents: Vec<u32> = (0..self.spans.len() as u32)
            .filter(|&i| self.spans[i as usize].name == parent)
            .collect();
        parents.sort_by_key(|&i| self.spans[i as usize].start);
        // Client spans of different connections overlap, so search every
        // candidate that starts before the child, nearest first.
        for c in 0..self.spans.len() {
            if self.spans[c].name != child {
                continue;
            }
            let s = self.spans[c];
            let upto = parents.partition_point(|&i| self.spans[i as usize].start <= s.start);
            let found = parents[..upto].iter().rev().take(8).copied().find(|&i| {
                let p = &self.spans[i as usize];
                p.end >= s.end && p.tag == s.tag
            });
            if let Some(p) = found {
                self.spans[c].parent = p;
                self.spans[c].req = self.spans[p as usize].req;
            }
        }
    }

    /// Self time of every span in µs, grouped by name: its duration minus
    /// the part of it its children cover.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                let p = &self.spans[s.parent as usize];
                let lo = s.start.max(p.start);
                let hi = s.end.min(p.end);
                covered[s.parent as usize] += hi.saturating_sub(lo);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(covered) {
            let dur = s.end.saturating_sub(s.start);
            out.entry(s.name)
                .or_default()
                .push(dur.saturating_sub(cov) as f64 / 1e3);
        }
        out
    }

    /// Write the first `limit` spans, one tab-separated line each:
    /// `index name start_ns end_ns parent req tag`. Returns how many were
    /// written.
    pub fn write_tsv(&self, path: &std::path::Path, limit: usize) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\tstart_ns\tend_ns\tparent\treq\ttag")?;
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{:x}",
                s.name, s.start, s.end, s.req, s.tag
            )?;
        }
        w.flush()?;
        Ok(self.spans.len().min(limit))
    }
}

/// A span sink shared by threads the benchmark does not own (the server's
/// workers), which record one span per request.
#[derive(Debug, Default)]
pub struct SharedSpans(Mutex<Vec<Span>>);

impl SharedSpans {
    /// Record one span.
    pub fn push(&self, s: Span) {
        self.0.lock().expect("span sink poisoned").push(s);
    }

    /// Everything recorded so far.
    pub fn take(&self) -> Trace {
        Trace {
            spans: std::mem::take(&mut *self.0.lock().expect("span sink poisoned")),
        }
    }
}
