//! In-memory spans recorded by the benchmark around its own calls into
//! each layer, written out when the run ends.
//!
//! A span has a name, start and end (ns since the tracer's epoch), the
//! span that caused it (0 for a root) and a group id shared by every
//! span of one campaign or request. A layer's self time is its span's
//! duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub group: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span; hand it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: &'static str,
    id: u32,
    parent: u32,
    group: u64,
    start_ns: u64,
}

impl Open {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Records spans only when enabled; disabled, every call is a branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span (id 0, and no clock read, when disabled).
    pub fn begin(&mut self, name: &'static str, parent: u32, group: u64) -> Open {
        if !self.enabled {
            return Open {
                name,
                id: 0,
                parent,
                group,
                start_ns: 0,
            };
        }
        self.next += 1;
        Open {
            name,
            id: self.next,
            parent,
            group,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open`.
    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            group: open.group,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Records an already-timed span (e.g. one measured by the clock of
    /// a request that began before its span could be opened).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        group: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        self.next += 1;
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id: self.next,
            parent,
            group,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"group\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, s.parent, s.group, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per span name: how many, total duration and self time, in ns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the time its
/// direct children cover (children are sequential in this benchmark,
/// so their durations add without overlap).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Span self-time summary as JSON: name → count, total and self ns.
pub fn self_times_json(spans: &[Span]) -> String {
    let spans = self_times(spans);
    let parts: Vec<String> = spans
        .iter()
        .map(|(name, t)| {
            format!(
                "\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.count, t.total_ns, t.self_ns
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let span = |name, id, parent, start_ns, end_ns| Span {
            name,
            id,
            parent,
            group: 1,
            start_ns,
            end_ns,
        };
        let spans = [
            span("campaign", 1, 0, 0, 100),
            span("trigger", 2, 1, 10, 30),
            span("trigger", 3, 1, 40, 70),
            span("decode", 4, 3, 50, 60),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["campaign"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t["trigger"],
            SelfTime {
                count: 2,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(t["decode"].self_ns, 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("x", 0, 0);
        t.end(open);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let parent = t.begin("p", 0, 7);
        let child = t.begin("c", parent.id(), 7);
        t.end(child);
        t.end(parent);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, t.spans()[1].id);
    }
}
