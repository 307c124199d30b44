//! The benchmark's own spans: one around each public call it makes into
//! the library, recorded on the calling thread and kept in memory until
//! the run ends.
//!
//! A disabled tracer only runs the closure. An enabled one records
//! `(name, parent, start, end)`, derives per-layer self time (duration
//! minus the part its child spans cover) and writes a Chrome trace that
//! also carries the library's own telemetry spans, shifted onto the same
//! clock, so they appear beneath the benchmark's spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer totals of one traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Completed spans of this name.
    pub count: u64,
    /// Summed span durations (s).
    pub total_s: f64,
    /// Summed self time: durations minus child-covered time (s).
    pub self_s: f64,
}

/// In-memory span recorder for the calling thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<SpanRec>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every span a plain call.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(SpanRec {
                name,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Per span: the time its direct children cover (ns).
    fn child_ns(spans: &[SpanRec]) -> Vec<u64> {
        let mut child = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        child
    }

    /// Per-name totals and self times, sorted by name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.borrow();
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in spans.iter().zip(Self::child_ns(&spans)) {
            let dur = s.end_ns - s.start_ns;
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_s += dur as f64 * 1e-9;
            entry.self_s += dur.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Summed duration of spans named `name` (s); 0 when none ran.
    pub fn total_s(&self, name: &str) -> f64 {
        self.layers().get(name).map_or(0.0, |l| l.total_s)
    }

    /// Summed duration of the top-level spans (s).
    fn root_ns(spans: &[SpanRec]) -> u64 {
        spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Share of the top-level spans' wall time that their child spans
    /// cover; 0 when nothing was recorded.
    pub fn coverage(&self) -> f64 {
        let spans = self.spans.borrow();
        let covered: u64 = spans
            .iter()
            .zip(Self::child_ns(&spans))
            .filter(|(s, _)| s.parent.is_none())
            .map(|(_, child)| child)
            .sum();
        match Self::root_ns(&spans) {
            0 => 0.0,
            root => covered as f64 / root as f64,
        }
    }

    /// Maps the library's telemetry clock onto this tracer's clock.
    ///
    /// Opens and closes one library span right now: its recorded start
    /// (library clock) and the moment it was opened (this clock) give
    /// the offset between the two.
    pub fn align_library_clock(&self) -> LibraryClock {
        let before = self.now_ns();
        {
            let _probe = sparkxd_telemetry::span!("perfbench.clock_probe");
        }
        let probe_ts = sparkxd_telemetry::span_events()
            .iter()
            .rev()
            .find(|e| e.name == "perfbench.clock_probe")
            .map_or(0, |e| e.ts_ns);
        LibraryClock {
            offset_ns: before as i64 - probe_ts as i64,
        }
    }

    /// Renders the per-layer self-time table.
    pub fn self_time_table(&self) -> String {
        let layers = self.layers();
        let wall = Self::root_ns(&self.spans.borrow()) as f64 * 1e-9;
        let mut rows: Vec<(&str, LayerTime)> = layers.into_iter().collect();
        rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>7} {:>11} {:>11} {:>7}",
            "layer", "spans", "total_s", "self_s", "self%"
        );
        for (name, t) in rows {
            let share = if wall > 0.0 {
                t.self_s / wall * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{name:<22} {:>7} {:>11.6} {:>11.6} {share:>6.2}%",
                t.count, t.total_s, t.self_s
            );
        }
        let _ = writeln!(
            out,
            "coverage of traced wall by layer spans: {:.2}%",
            self.coverage() * 100.0
        );
        out
    }

    /// Writes a Chrome trace-event file: this tracer's spans as pid 0,
    /// the library's `events` (shifted by `clock`) as pid 1.
    pub fn write_chrome_trace(
        &self,
        path: &Path,
        events: &[sparkxd_telemetry::SpanEvent],
        clock: LibraryClock,
    ) -> std::io::Result<()> {
        let mut body = Vec::new();
        for s in self.spans.borrow().iter() {
            body.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\
                 \"ts\":{:.3},\"dur\":{:.3}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            ));
        }
        for e in events {
            let ts = e.ts_ns as i64 + clock.offset_ns;
            body.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"sparkxd\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3}}}",
                e.name,
                e.tid,
                ts as f64 / 1e3,
                e.dur_ns as f64 / 1e3
            ));
        }
        std::fs::write(
            path,
            format!(
                "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
                body.join(",\n")
            ),
        )
    }
}

/// Offset from the library's telemetry clock to a [`Tracer`]'s clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct LibraryClock {
    offset_ns: i64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", || 7), 7);
        assert!(t.layers().is_empty());
        assert_eq!(t.coverage(), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("root", || {
            t.span("child", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            t.span("child", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let layers = t.layers();
        assert_eq!(layers["child"].count, 2);
        assert!(layers["child"].total_s >= 0.04);
        assert_eq!(layers["child"].self_s, layers["child"].total_s);
        let root = layers["root"];
        assert!(root.self_s < root.total_s);
        assert!((root.total_s - root.self_s - layers["child"].total_s).abs() < 1e-9);
        assert!(t.coverage() > 0.9);
    }
}
