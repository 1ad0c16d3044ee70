//! Per-layer metric assembly shared by the in-process and chaos workloads.

use crate::common::{metric, Metric, Outcome};
use crate::replay::Replayer;
use crate::trace::Call;
use fpisa_netsim::RunReport;
use std::collections::BTreeMap;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nanoseconds recorded under span name `k`, 0 if none.
pub fn get(m: &BTreeMap<&str, u64>, k: &str) -> f64 {
    m.get(k).copied().unwrap_or(0) as f64
}

/// Work the backend was handed during the traced ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct BackendWork {
    add_elems: u64,
    read_slots: u64,
    clear_slots: u64,
}

impl BackendWork {
    pub fn add(&mut self, calls: &[Call]) {
        for call in calls {
            match call {
                Call::Add(chunks) => {
                    self.add_elems += chunks.iter().map(|(_, w)| w.len() as u64).sum::<u64>()
                }
                Call::Read { len, .. } => self.read_slots += *len as u64,
                Call::Clear { len, .. } => self.clear_slots += *len as u64,
            }
        }
    }
}

/// Per-op counts of the protocol, pool and backend layers, from the
/// deterministic pass.
#[derive(Debug, Clone, Copy)]
pub struct AggCounts {
    pub wire_bytes_per_elem: f64,
    pub accepted: f64,
    pub duplicates: f64,
    pub stale: f64,
    /// Accepted contributions ÷ data frames delivered to the switch.
    pub useful_ratio: f64,
    pub calls: f64,
}

/// `agg.protocol.*`, `agg.pool.*` and `agg.backend.*`. `host` holds the
/// self times of the encode, packetize, frame and ingest spans, over
/// `elems` elements in `pkts` packets; `backend` holds the `backend.*`
/// span totals, over `work`.
#[allow(clippy::too_many_arguments)]
pub fn push_agg_metrics(
    m: &mut Vec<Metric>,
    host: &BTreeMap<&str, u64>,
    elems: f64,
    pkts: f64,
    counts: &AggCounts,
    backend: &BTreeMap<&str, u64>,
    work: &BackendWork,
    n: Option<usize>,
) {
    let c = counts;
    let per_op = |name: &str, v: f64| metric(name, v, "count/op", None);
    m.push(metric(
        "agg.protocol.encode_ns_per_elem",
        get(host, "encode") / elems,
        "ns",
        n,
    ));
    m.push(metric(
        "agg.protocol.packetize_ns_per_pkt",
        get(host, "packetize") / pkts,
        "ns",
        n,
    ));
    m.push(metric(
        "agg.protocol.frame_ns_per_pkt",
        get(host, "frame") / pkts,
        "ns",
        n,
    ));
    m.push(metric(
        "agg.protocol.wire_bytes_per_elem",
        c.wire_bytes_per_elem,
        "count",
        None,
    ));
    m.push(metric(
        "agg.pool.self_ns_per_pkt",
        get(host, "ingest") / pkts,
        "ns",
        n,
    ));
    m.push(per_op("agg.pool.accepted", c.accepted));
    m.push(per_op("agg.pool.duplicates", c.duplicates));
    m.push(per_op("agg.pool.stale", c.stale));
    m.push(metric(
        "agg.pool.useful_ratio",
        c.useful_ratio,
        "ratio",
        None,
    ));
    let per = |k: &str, w: u64| ratio(get(backend, k), w as f64);
    m.push(metric(
        "agg.backend.add_ns_per_elem",
        per("backend.add", work.add_elems),
        "ns",
        n,
    ));
    m.push(metric(
        "agg.backend.read_ns_per_slot",
        per("backend.read", work.read_slots),
        "ns",
        n,
    ));
    m.push(metric(
        "agg.backend.clear_ns_per_slot",
        per("backend.clear", work.clear_slots),
        "ns",
        n,
    ));
    m.push(per_op("agg.backend.calls", c.calls));
}

/// `pipeline.*`, `pisa.*` and `core.*` from the replays.
pub fn push_replay_metrics(m: &mut Vec<Metric>, r: &Replayer, n: Option<usize>) {
    let t = r.totals;
    let per = |ns: u64, w: u64| ratio(ns as f64, w as f64);
    m.push(metric(
        "pipeline.add_batch_ns_per_elem",
        per(t.pipe_add_ns, t.pipe_add_elems),
        "ns",
        n,
    ));
    m.push(metric(
        "pipeline.read_range_ns_per_slot",
        per(t.pipe_read_ns, t.pipe_read_slots),
        "ns",
        n,
    ));
    m.push(metric(
        "pipeline.clear_range_ns_per_slot",
        per(t.pipe_clear_ns, t.pipe_clear_slots),
        "ns",
        n,
    ));
    m.push(metric(
        "pisa.run_batch_ns_per_pkt",
        per(t.pisa_ns, t.pisa_pkts),
        "ns",
        n,
    ));
    let fusion = r.fusion_stats();
    m.push(metric(
        "pisa.tape_ops",
        fusion.tape_ops as f64,
        "count",
        None,
    ));
    m.push(metric(
        "pisa.selector_tables",
        fusion.selector_tables as f64,
        "count",
        None,
    ));
    m.push(metric(
        "core.add_ns_per_elem",
        per(t.core_ns, t.core_elems),
        "ns",
        n,
    ));
}

/// Report-line numbers of a traced run: each span name's self-time share
/// of the op span `op_ns`, and traced against untraced throughput (the
/// tracing overhead).
pub fn push_trace_summary(
    o: &mut Outcome,
    selfs: &BTreeMap<&str, u64>,
    op_ns: f64,
    traced_ops: usize,
    plain_ops: &[f64],
    elems_per_op: u64,
) {
    for (k, v) in selfs {
        let share = *v as f64 / op_ns;
        o.extra
            .push(metric(&format!("self_share.{k}"), share, "ratio", None));
    }
    let traced = (elems_per_op * traced_ops as u64) as f64 / (op_ns * 1e-9);
    let plain = (elems_per_op * plain_ops.len() as u64) as f64 / plain_ops.iter().sum::<f64>();
    let n_plain = Some(plain_ops.len());
    o.extra
        .push(metric("elems_per_s.untraced", plain, "elem/s", n_plain));
    o.extra.push(metric(
        "elems_per_s.traced",
        traced,
        "elem/s",
        Some(traced_ops),
    ));
    o.extra.push(metric(
        "trace_overhead_frac",
        1.0 - traced / plain,
        "ratio",
        None,
    ));
}

/// Simulator counts summed over jobs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetTotals {
    pub jobs: u64,
    pub events: u64,
    pub sent: u64,
    pub retransmits: u64,
    pub timeouts: u64,
    pub acks_sent: u64,
    pub corrupt_rejected: u64,
    /// Data frames a loss-free job needs: one per worker, chunk and round.
    pub useful_frames: u64,
    pub sim_ns: u64,
}

impl NetTotals {
    pub fn add(&mut self, r: &RunReport, useful_frames: u64) {
        self.jobs += 1;
        self.events += r.events;
        self.sent += r.sent;
        self.retransmits += r.retransmits;
        self.timeouts += r.timeouts;
        self.acks_sent += r.acks_sent;
        self.corrupt_rejected += r.corrupt_rejected;
        self.useful_frames += useful_frames;
        self.sim_ns += r.sim_ns;
    }

    /// `netsim.*`: counts per job, and the event loop's self time.
    pub fn push_metrics(&self, m: &mut Vec<Metric>, self_ns_per_event: f64, n: Option<usize>) {
        let per_job = |x: u64| ratio(x as f64, self.jobs as f64);
        m.push(metric(
            "netsim.self_ns_per_event",
            self_ns_per_event,
            "ns",
            n,
        ));
        m.push(metric(
            "netsim.events",
            per_job(self.events),
            "count/op",
            None,
        ));
        m.push(metric(
            "netsim.data_frames_sent",
            per_job(self.sent),
            "count/op",
            None,
        ));
        m.push(metric(
            "netsim.retransmits",
            per_job(self.retransmits),
            "count/op",
            None,
        ));
        m.push(metric(
            "netsim.timeouts",
            per_job(self.timeouts),
            "count/op",
            None,
        ));
        m.push(metric(
            "netsim.acks_sent",
            per_job(self.acks_sent),
            "count/op",
            None,
        ));
        m.push(metric(
            "netsim.corrupt_rejected",
            per_job(self.corrupt_rejected),
            "count/op",
            None,
        ));
        m.push(metric(
            "netsim.goodput_ratio",
            ratio(self.useful_frames as f64, self.sent as f64),
            "ratio",
            None,
        ));
        m.push(metric(
            "netsim.sim_ns",
            per_job(self.sim_ns),
            "sim-ns/op",
            None,
        ));
    }
}
