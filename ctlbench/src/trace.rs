//! Spans around the benchmark's calls into each layer of the control
//! plane. The recorder keeps the spans in memory (capacity is reserved
//! between sweep periods, off the clock, so recording never reallocates
//! inside a tick) and writes them out when the run ends. Layer self
//! times come from the spans: a span's duration minus the part its
//! child spans cover.

use std::io::Write;
use std::time::Instant;

/// The public call a span brackets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One whole tick: batch delivery through the returned update batch.
    Tick,
    /// The tick's batch through `TickDriver::on_message` (or the peer's).
    Intake,
    /// `TickLoop::poll`, which runs the driver's tick.
    Poll,
    /// `ShardPeer::begin_round` (allocate, export, encode, send).
    Begin,
    /// `ExchangeRound::finish` (barrier wait, decode, install).
    Finish,
    /// `merge_by_token_into` over the per-shard update streams.
    Merge,
}

impl Name {
    /// The name written to the span file.
    pub fn label(self) -> &'static str {
        match self {
            Name::Tick => "tick",
            Name::Intake => "intake",
            Name::Poll => "poll",
            Name::Begin => "begin_round",
            Name::Finish => "finish",
            Name::Merge => "merge",
        }
    }
}

/// "No parent" / "not recording".
pub const NONE: u32 = u32::MAX;

/// One recorded span. `shard` is the peer a `Begin`/`Finish` span
/// belongs to (0 otherwise).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The bracketed call.
    pub name: Name,
    /// Peer index for per-peer spans.
    pub shard: u8,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Tick the span belongs to.
    pub tick: u32,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

/// The in-memory span recorder. While `on` is false every call is a
/// branch and nothing is recorded.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Whether spans are being recorded.
    pub on: bool,
}

impl Tracer {
    /// An idle recorder.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            on: false,
        }
    }

    /// Makes room for `more` spans (call off the clock).
    pub fn reserve(&mut self, more: usize) {
        self.spans.reserve(more);
    }

    /// Opens a span and returns its index ([`NONE`] when not recording).
    #[inline]
    pub fn open(&mut self, name: Name, shard: u8, parent: u32, tick: u64) -> u32 {
        if !self.on {
            return NONE;
        }
        let at = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            shard,
            parent,
            tick: tick as u32,
            start_ns: at,
            end_ns: at,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` (a no-op for [`NONE`]).
    #[inline]
    pub fn close(&mut self, id: u32) {
        if id != NONE {
            self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as CSV (`name,shard,parent,tick,start_ns,end_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,shard,parent,tick,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.name.label(),
                s.shard,
                parent,
                s.tick,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals of span duration and self time, ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Sum of the durations of the spans under the name.
    pub total_ns: u64,
    /// Sum of their self times (duration minus covered child time).
    pub self_ns: u64,
}

/// Self time per span name, indexed by `Name as usize`.
pub fn self_times(spans: &[Span]) -> [LayerTime; 6] {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = [LayerTime::default(); 6];
    for (s, &c) in spans.iter().zip(&child) {
        let dur = s.end_ns - s.start_ns;
        let t = &mut out[s.name as usize];
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            shard: 0,
            parent,
            tick: 0,
            start_ns,
            end_ns,
        };
        let spans = [
            span(Name::Tick, NONE, 0, 100),
            span(Name::Intake, 0, 0, 10),
            span(Name::Poll, 0, 10, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t[Name::Tick as usize].self_ns, 10);
        assert_eq!(t[Name::Tick as usize].total_ns, 100);
        assert_eq!(t[Name::Intake as usize].self_ns, 10);
        assert_eq!(t[Name::Poll as usize].self_ns, 80);
    }

    #[test]
    fn an_idle_tracer_records_nothing() {
        let mut t = Tracer::new();
        let id = t.open(Name::Tick, 0, NONE, 1);
        t.close(id);
        assert_eq!(id, NONE);
        assert!(t.spans().is_empty());
        t.on = true;
        let id = t.open(Name::Tick, 0, NONE, 1);
        t.close(id);
        assert_eq!(t.spans().len(), 1);
    }
}
