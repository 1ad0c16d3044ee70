//! Tracing from outside the program: spans recorded around the calls the
//! benchmark makes into each layer, plus a timing [`Aggregator`]
//! decorator that puts a span around every backend call and logs the
//! call's inputs so other layers can replay them.
//!
//! Spans live in memory for the whole traced run and are written out once
//! at the end. A span's *self time* is its duration minus its direct
//! children's durations (everything runs on one thread, so children never
//! overlap).

use fpisa_agg::{AggError, AggStats, Aggregator};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The op (all-reduce round or simulated job) the span belongs to.
    pub op: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct TraceBuf {
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// A shared, single-threaded span recorder. Cloning shares the buffer.
#[derive(Debug, Clone)]
pub struct Tracer(Rc<RefCell<TraceBuf>>);

impl Tracer {
    pub fn new() -> Self {
        Tracer(Rc::new(RefCell::new(TraceBuf {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }

    /// Tag the spans recorded from now on with `op`.
    pub fn set_op(&self, op: u64) {
        self.0.borrow_mut().op = op;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut b = self.0.borrow_mut();
            let id = b.spans.len() as u32;
            let span = Span {
                op: b.op,
                parent: b.open.last().copied(),
                name,
                start_ns: 0,
                end_ns: 0,
            };
            b.spans.push(span);
            b.open.push(id);
            // Read the clock last, so the bookkeeping above is not
            // charged to the span.
            b.spans[id as usize].start_ns = b.epoch.elapsed().as_nanos() as u64;
            id
        };
        let out = f();
        let mut b = self.0.borrow_mut();
        let end = b.epoch.elapsed().as_nanos() as u64;
        b.spans[id as usize].end_ns = end;
        b.open.pop();
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.0.borrow().spans.len()
    }

    /// Self time summed per span name over the spans at index `from..`.
    pub fn self_ns_by_name(&self, from: usize) -> BTreeMap<&'static str, u64> {
        let b = self.0.borrow();
        let spans = &b.spans;
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans[from..] {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().skip(from) {
            *out.entry(s.name).or_insert(0) += s.dur_ns() - child_ns[i];
        }
        out
    }

    /// Total duration per span name over the spans at index `from..`.
    pub fn total_ns_by_name(&self, from: usize) -> BTreeMap<&'static str, u64> {
        let b = self.0.borrow();
        let mut out = BTreeMap::new();
        for s in &b.spans[from..] {
            *out.entry(s.name).or_insert(0) += s.dur_ns();
        }
        out
    }

    /// Write every span as CSV: `op,id,parent,name,start_ns,end_ns`.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let b = self.0.borrow();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op,id,parent,name,start_ns,end_ns")?;
        for (i, s) in b.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                w,
                "{},{i},{parent},{},{},{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Run `f` inside a span when tracing, or plainly when not.
pub fn span<R>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// One backend call, as the decorator logged it.
#[derive(Debug, Clone)]
pub enum Call {
    /// `add_wire_multi` (or `add_wire`): `(start slot, wire words)` chunks.
    Add(Vec<(usize, Vec<u64>)>),
    Read {
        start: usize,
        len: usize,
    },
    Clear {
        start: usize,
        len: usize,
    },
}

/// The calls a [`Timed`] backend logged, shared so they outlive a backend
/// that was moved into a simulator.
pub type CallLog = Rc<RefCell<Vec<Call>>>;

/// A timing [`Aggregator`] decorator: every switch-side call on the
/// wrapped backend runs inside a `backend.*` span, and its inputs are
/// logged (after the span closes) for replay through lower layers.
#[derive(Debug, Clone)]
pub struct Timed<B> {
    inner: B,
    tr: Tracer,
    log: CallLog,
}

impl<B: Aggregator> Timed<B> {
    pub fn new(inner: B, tr: Tracer, log: CallLog) -> Self {
        Timed { inner, tr, log }
    }
}

impl<B: Aggregator> Aggregator for Timed<B> {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn slots(&self) -> usize {
        self.inner.slots()
    }
    fn word_bytes(&self) -> u8 {
        self.inner.word_bytes()
    }
    fn encode(&mut self, x: f64) -> u64 {
        self.inner.encode(x)
    }
    fn add_wire(&mut self, start: usize, words: &[u64]) -> Result<(), AggError> {
        self.add_wire_multi(&[(start, words)])
    }
    fn add_wire_multi(&mut self, chunks: &[(usize, &[u64])]) -> Result<(), AggError> {
        let out = self
            .tr
            .span("backend.add", || self.inner.add_wire_multi(chunks));
        let logged = chunks.iter().map(|&(s, w)| (s, w.to_vec())).collect();
        self.log.borrow_mut().push(Call::Add(logged));
        out
    }
    fn read_range(&mut self, start: usize, len: usize) -> Result<Vec<f64>, AggError> {
        let out = self
            .tr
            .span("backend.read", || self.inner.read_range(start, len));
        self.log.borrow_mut().push(Call::Read { start, len });
        out
    }
    fn clear_range(&mut self, start: usize, len: usize) -> Result<(), AggError> {
        let out = self
            .tr
            .span("backend.clear", || self.inner.clear_range(start, len));
        self.log.borrow_mut().push(Call::Clear { start, len });
        out
    }
    fn stats(&self) -> AggStats {
        self.inner.stats()
    }
}
