//! Host-time spans recorded from the benchmark's own files, around the
//! calls it makes into each crate's public functions.
//!
//! Spans are kept in memory and written out once the run ends. A span's
//! self time is its duration minus its children's durations. Some
//! children are *attributed*: a layer the program runs inside one call
//! (e.g. the latency precompute inside `ServeSession::run`) is timed by a
//! separate call on the same inputs and recorded under the span it
//! belongs to. Its interval then lies outside the parent's, so self time
//! is computed from durations, not from interval overlap.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Whether this span's self time is work of a named layer. The self
    /// time of the others (the pass itself, call wrappers whose interior
    /// is only partly broken down) is the uncovered remainder.
    pub covered: bool,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// The instant every span time is measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>, covered: bool) -> usize {
        let now = self.now_ns();
        self.record(name, parent, covered, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record an already-measured interval.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        covered: bool,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            covered,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a closed span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        covered: bool,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.open(name, parent, covered);
        let out = f();
        self.close(id);
        (id, out)
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Duration minus the children's durations (negative when an
    /// attributed child ran slower than the call it was attributed to).
    pub fn self_s(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_s)
            .sum();
        self.spans[id].dur_s() - children
    }

    /// Summed self time of every span in the subtree under `root`
    /// (inclusive) whose self time no named layer covers.
    pub fn uncovered_s(&self, root: usize) -> f64 {
        (0..self.spans.len())
            .filter(|&i| !self.spans[i].covered && self.in_subtree(i, root))
            .map(|i| self.self_s(i))
            .sum()
    }

    fn in_subtree(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Every span as JSON lines-in-an-array, with its self time.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = (0..self.spans.len())
            .map(|i| {
                let s = &self.spans[i];
                format!(
                    "{{\"id\":{i},\"name\":{:?},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"covered\":{},\"self_s\":{:?}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.covered,
                    self.self_s(i),
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_uncovered_sums_containers() {
        let mut t = Tracer::default();
        let root = t.record("pass", None, false, 0, 10_000_000_000);
        let run = t.record("run", Some(root), true, 0, 8_000_000_000);
        t.record("pre", Some(run), false, 20_000_000_000, 26_000_000_000);
        t.record("ser", Some(root), true, 8_000_000_000, 9_000_000_000);
        assert!((t.self_s(run) - 2.0).abs() < 1e-9);
        assert!((t.self_s(root) - 1.0).abs() < 1e-9);
        // root self (1 s) + pre self (6 s, no children).
        assert!((t.uncovered_s(root) - 7.0).abs() < 1e-9);
        assert!(t.to_json().contains("\"name\":\"pre\""));
    }
}
