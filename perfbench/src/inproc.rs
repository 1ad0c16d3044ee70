//! The in-process workloads: one op is one all-reduce round driven through
//! the protocol and an `AggregationSwitch`, in the order a round takes:
//! host encode, packetize, frame + CRC round trip, pool ingest, read-out,
//! round reset.

use crate::common::{
    alternate_blocks, metric, push_timed_metrics, round_seed, Fnv, Outcome, SetupSamples, ROUNDS,
};
use crate::layers::{
    get, push_agg_metrics, push_replay_metrics, push_trace_summary, AggCounts, BackendWork,
    NetTotals,
};
use crate::replay::Replayer;
use crate::trace::{span, Call, CallLog, Timed, Tracer};
use crate::Mode;
use fpisa_agg::{
    decode_packet, encode_packet, AggPacket, AggregationSwitch, Aggregator, FpisaAggregator,
    GradientWorkload, JobSpec, SwitchMlFixedPoint,
};
use fpisa_core::FpFormat;
use fpisa_netsim::{run_allreduce, FaultPlan, SimConfig};
use fpisa_pipeline::{ExecEngine, PipelineSpec, PipelineVariant};
use std::time::Instant;

/// Elements per packet in every in-process workload.
const ELEMENTS_PER_PACKET: usize = 64;

#[derive(Debug, Clone)]
pub enum BackendKind {
    /// FPISA through the compiled pipeline of this spec.
    Fpisa { spec: PipelineSpec, shadow: bool },
    /// The SwitchML fixed-point baseline, scaled to the inputs' maximum.
    SwitchMl,
}

/// One in-process workload.
#[derive(Debug, Clone)]
pub struct InProcess {
    pub workers: u32,
    pub elements: usize,
    pub dynamic_range_bits: u32,
    pub backend: BackendKind,
}

/// Which share of the op a traced run must find where, to confirm the
/// workload stresses what it was chosen for.
#[derive(Debug, Clone, Copy)]
pub enum Stress {
    /// Backend ADD has the largest self time of any span.
    AddDominates,
    /// Host encode + frame/CRC + pool take at least this share of the op.
    HostShareAtLeast(f64),
    /// Backend READ + clear take at least this share of the op.
    ReadoutShareAtLeast(f64),
}

pub type Backend = Box<dyn Aggregator>;

/// A built backend of either kind, kept concrete so it can be cloned.
#[derive(Debug, Clone)]
enum Proto {
    Fpisa(Box<FpisaAggregator>),
    SwitchMl(Box<SwitchMlFixedPoint>),
}

impl Proto {
    fn into_boxed(self) -> Backend {
        match self {
            Proto::Fpisa(b) => b,
            Proto::SwitchMl(b) => b,
        }
    }

    fn boxed(&self) -> Backend {
        self.clone().into_boxed()
    }
}

/// The inputs of one run: `ROUNDS` distinct gradient sets.
struct Inputs {
    rounds: Vec<Vec<Vec<f64>>>,
    /// Largest magnitude across all rounds: SwitchML's control plane
    /// sizes its one scaling factor from it.
    max_abs: f64,
}

impl InProcess {
    fn job(&self) -> JobSpec {
        self.gradients(0).job_spec()
    }

    fn gradients(&self, seed: u64) -> GradientWorkload {
        GradientWorkload {
            workers: self.workers,
            elements: self.elements,
            elements_per_packet: ELEMENTS_PER_PACKET,
            seed,
            ..GradientWorkload::fig10(self.dynamic_range_bits)
        }
    }

    fn inputs(&self, seed: u64) -> Inputs {
        let rounds: Vec<_> = (0..ROUNDS)
            .map(|r| self.gradients(round_seed(seed, r)).generate())
            .collect();
        let max_abs = rounds
            .iter()
            .map(|g| GradientWorkload::max_abs(g))
            .fold(0.0, f64::max);
        Inputs { rounds, max_abs }
    }

    fn proto(&self, max_abs: f64, engine: ExecEngine) -> Result<Proto, String> {
        Ok(match &self.backend {
            BackendKind::Fpisa { spec, shadow } => Proto::Fpisa(Box::new(
                FpisaAggregator::from_spec(spec.engine(engine))
                    .map_err(|e| e.to_string())?
                    .with_shadow_stats(*shadow),
            )),
            BackendKind::SwitchMl => Proto::SwitchMl(Box::new(
                SwitchMlFixedPoint::for_workload(self.elements, max_abs, self.workers)
                    .map_err(|e| e.to_string())?,
            )),
        })
    }

    /// What `setup_s` times: backend build (program generation, static
    /// verification, compilation) and binding it to the job.
    fn setup(&self, max_abs: f64) -> Result<AggregationSwitch<Backend>, String> {
        let backend = self.proto(max_abs, ExecEngine::Compiled)?.into_boxed();
        AggregationSwitch::new(self.job(), backend).map_err(|e| e.to_string())
    }

    /// The spec the pipeline, engine and core layers are replayed on. The
    /// SwitchML program is not an FPISA pipeline, so its workload replays
    /// the same gradients through the FP16 Tofino pipeline instead.
    fn replay_spec(&self) -> PipelineSpec {
        match &self.backend {
            BackendKind::Fpisa { spec, .. } => *spec,
            BackendKind::SwitchMl => PipelineSpec::new(PipelineVariant::TofinoA)
                .format(FpFormat::FP16)
                .slots(self.elements)
                .shards(1),
        }
    }

    /// Expected read-out of every round. FPISA must match, bit for bit, a
    /// backend built from the same spec on the interpreting engine;
    /// SwitchML must match the host-side integer sum of its own wire words.
    fn oracle(&self, inputs: &Inputs) -> Result<Vec<Vec<f64>>, String> {
        match &self.backend {
            BackendKind::Fpisa { .. } => {
                let backend = self
                    .proto(inputs.max_abs, ExecEngine::Interpreted)?
                    .into_boxed();
                let mut sw =
                    AggregationSwitch::new(self.job(), backend).map_err(|e| e.to_string())?;
                (0..ROUNDS)
                    .map(|r| run_op(&mut sw, &inputs.rounds[r], r as u32, None).map(|o| o.values))
                    .collect()
            }
            BackendKind::SwitchMl => {
                let mut b =
                    SwitchMlFixedPoint::for_workload(self.elements, inputs.max_abs, self.workers)
                        .map_err(|e| e.to_string())?;
                let scale = b.scale();
                Ok(inputs
                    .rounds
                    .iter()
                    .map(|grads| {
                        let mut sum = vec![0i64; self.elements];
                        for g in grads {
                            for (s, &x) in sum.iter_mut().zip(g) {
                                *s += i64::from(b.encode(x) as u32 as i32);
                            }
                        }
                        sum.iter().map(|&q| q as f64 * scale).collect()
                    })
                    .collect())
            }
        }
    }

    /// Worst per-element relative error of the expected read-outs against
    /// the exact `f64` sums, with the denominator floored at the smallest
    /// base magnitude the generator draws (as in the Fig. 10 experiment).
    fn max_rel_err(&self, inputs: &Inputs, expected: &[Vec<f64>]) -> f64 {
        let floor = 2f64.powi(-((self.dynamic_range_bits / 2) as i32));
        let mut worst = 0.0f64;
        for (grads, got) in inputs.rounds.iter().zip(expected) {
            for (i, &g) in got.iter().enumerate() {
                let exact: f64 = grads.iter().map(|w| w[i]).sum();
                worst = worst.max((g - exact).abs() / exact.abs().max(floor));
            }
        }
        worst
    }

    /// One pass over the `ROUNDS` inputs on a fresh switch, returning a
    /// digest of every output bit and deterministic count, the per-op
    /// counts, and packets per op. Outputs are checked against `expected`
    /// when given.
    fn counted_pass(
        &self,
        inputs: &Inputs,
        expected: Option<&[Vec<f64>]>,
    ) -> Result<(u64, AggCounts, f64), String> {
        let log = CallLog::default();
        let backend = Timed::new(
            self.proto(inputs.max_abs, ExecEngine::Compiled)?
                .into_boxed(),
            Tracer::new(),
            log.clone(),
        );
        let mut sw = AggregationSwitch::new(self.job(), backend).map_err(|e| e.to_string())?;
        let mut h = Fnv::default();
        let (mut packets, mut wire_bytes) = (0u64, 0u64);
        for r in 0..ROUNDS {
            let out = run_op(&mut sw, &inputs.rounds[r], r as u32, None)?;
            if let Some(exp) = expected {
                check(&out.values, &exp[r]).map_err(|e| format!("round {r}: {e}"))?;
            }
            h.floats(&out.values);
            packets += out.packets as u64;
            wire_bytes += out.wire_bytes as u64;
        }
        let calls = log.borrow().len() as u64;
        let pool = *sw.pool().stats();
        for w in [
            packets,
            wire_bytes,
            calls,
            pool.accepted,
            pool.duplicates,
            pool.stale,
        ] {
            h.word(w);
        }
        let ops = ROUNDS as f64;
        let counts = AggCounts {
            wire_bytes_per_elem: wire_bytes as f64 / (ops * self.elems_per_op() as f64),
            accepted: pool.accepted as f64 / ops,
            duplicates: pool.duplicates as f64 / ops,
            stale: pool.stale as f64 / ops,
            useful_ratio: pool.accepted as f64 / packets as f64,
            calls: calls as f64 / ops,
        };
        Ok((h.0, counts, packets as f64 / ops))
    }

    fn elems_per_op(&self) -> u64 {
        u64::from(self.workers) * self.elements as u64
    }

    pub fn run(&self, seed: u64, seconds: f64, mode: Mode, stress: Stress) -> Outcome {
        let mut o = Outcome {
            correct: true,
            ..Outcome::default()
        };
        if let Err(e) = self.run_inner(seed, seconds, mode, stress, &mut o) {
            o.fail(e);
        }
        o
    }

    fn run_inner(
        &self,
        seed: u64,
        seconds: f64,
        mode: Mode,
        stress: Stress,
        o: &mut Outcome,
    ) -> Result<(), String> {
        let inputs = self.inputs(seed);
        let (mut setups, mut sw) = SetupSamples::first(|| self.setup(inputs.max_abs))?;
        let expected = self.oracle(&inputs)?;

        // Deterministic counts: two fresh passes of this seed must agree
        // on every output bit and count, and another seed must not.
        let (digest, counts, pkts_per_op) = self.counted_pass(&inputs, Some(&expected))?;
        let (again, ..) = self.counted_pass(&inputs, None)?;
        let (other, ..) = self.counted_pass(&self.inputs(seed.wrapping_add(1)), None)?;
        o.checks
            .push(("same_seed_same_counts".into(), digest == again));
        o.checks
            .push(("other_seed_other_digest".into(), digest != other));
        if digest != again || digest == other {
            o.fail(format!(
                "determinism: digest {digest:#x}, rerun {again:#x}, seed+1 {other:#x}"
            ));
        }

        let mut next = 0u32;
        // Warm-up: caches and lazily grown buffers, untimed.
        let warm_until = Instant::now() + std::time::Duration::from_millis(300);
        while next < ROUNDS as u32 || Instant::now() < warm_until {
            run_op(&mut sw, &inputs.rounds[next as usize % ROUNDS], next, None)?;
            next += 1;
        }

        o.extra.push(metric(
            "max_rel_err",
            self.max_rel_err(&inputs, &expected),
            "ratio",
            None,
        ));
        match mode {
            Mode::Timed => {
                let ops = measure(&mut sw, &inputs, &expected, &mut next, seconds, o, || {
                    setups.maybe(|| self.setup(inputs.max_abs))
                })?;
                push_timed_metrics(o, ops, self.elems_per_op(), &setups);
            }
            Mode::Traced => self.traced(
                seed,
                &inputs,
                &expected,
                (&mut sw, &mut next),
                seconds,
                (&counts, pkts_per_op),
                stress,
                o,
            )?,
        }
        Ok(())
    }

    /// The traced run: blocks of untraced ops (the overhead baseline)
    /// alternate with blocks of traced ops on a second switch whose backend
    /// is wrapped in the timing decorator. After each traced op, outside
    /// its spans, the op's backend calls are replayed through the lower
    /// layers and its round through a lossless simulated network.
    #[allow(clippy::too_many_arguments)]
    fn traced(
        &self,
        seed: u64,
        inputs: &Inputs,
        expected: &[Vec<f64>],
        (plain, plain_next): (&mut AggregationSwitch<Backend>, &mut u32),
        seconds: f64,
        (counts, pkts_per_op): (&AggCounts, f64),
        stress: Stress,
        o: &mut Outcome,
    ) -> Result<(), String> {
        let proto = self.proto(inputs.max_abs, ExecEngine::Compiled)?;
        let tr = Tracer::new();
        let log = CallLog::default();
        let backend = Timed::new(proto.boxed(), tr.clone(), log.clone());
        let mut sw = AggregationSwitch::new(self.job(), backend).map_err(|e| e.to_string())?;
        let mut replayer = Replayer::new(self.replay_spec())?;
        let net_tr = Tracer::new();
        let mut net = NetTotals::default();
        let mut next = 0u32;
        for r in 0..ROUNDS {
            run_op(&mut sw, &inputs.rounds[r], next, None)?;
            next += 1;
        }
        // Spans and calls of the warm-up above are not measured.
        let from = tr.len();
        log.borrow_mut().clear();

        let mut work = BackendWork::default();
        let mut plain_ops = Vec::new();
        let mut traced_ops = 0usize;
        alternate_blocks(seconds, |traced| {
            if !traced {
                plain_ops.extend(measure_one(plain, inputs, expected, plain_next, o));
                return Ok(());
            }
            let r = next as usize % ROUNDS;
            tr.set_op(u64::from(next));
            let out = tr.span("op", || run_op(&mut sw, &inputs.rounds[r], next, Some(&tr)));
            o.attempted += 1;
            traced_ops += 1;
            if let Err(e) = out.and_then(|out| check(&out.values, &expected[r])) {
                o.failed += 1;
                o.fail(format!("traced op {next}: {e}"));
            }
            let calls = std::mem::take(&mut *log.borrow_mut());
            work.add(&calls);
            match self.backend {
                BackendKind::Fpisa { .. } => replayer.replay(&calls)?,
                BackendKind::SwitchMl => replayer.replay(&self.fp16_calls(&inputs.rounds[r]))?,
            }
            let b = Timed::new(proto.boxed(), net_tr.clone(), CallLog::default());
            net_tr.set_op(u64::from(next));
            let report = net_tr
                .span("job", || {
                    run_allreduce(
                        self.job(),
                        b,
                        std::slice::from_ref(&inputs.rounds[r]),
                        FaultPlan::lossless(round_seed(seed, r)),
                        SimConfig::default(),
                    )
                })
                .map_err(|e| e.to_string())?;
            net.add(
                &report,
                u64::from(self.workers) * self.job().chunks() as u64,
            );
            next += 1;
            Ok(())
        })?;
        if traced_ops == 0 || plain_ops.is_empty() {
            return Err("traced run too short for one traced and one plain block".into());
        }

        let selfs = tr.self_ns_by_name(from);
        let totals = tr.total_ns_by_name(from);
        let elems = (self.elems_per_op() * traced_ops as u64) as f64;
        let pkts = pkts_per_op * traced_ops as f64;
        let n = Some(traced_ops);
        let m = &mut o.metrics;
        push_agg_metrics(m, &selfs, elems, pkts, counts, &totals, &work, n);
        push_replay_metrics(m, &replayer, n);
        let net_self = get(&net_tr.self_ns_by_name(0), "job");
        net.push_metrics(m, net_self / net.events as f64, n);

        let op_ns = get(&totals, "op");
        let (name, ok) = match stress {
            Stress::AddDominates => {
                let top = selfs
                    .iter()
                    .filter(|(k, _)| **k != "op")
                    .max_by_key(|(_, v)| **v)
                    .map(|(k, _)| *k);
                (
                    "stress.backend_add_largest_self_time",
                    top == Some("backend.add"),
                )
            }
            Stress::HostShareAtLeast(min) => {
                let host = get(&selfs, "encode") + get(&selfs, "frame") + get(&selfs, "ingest");
                ("stress.encode_frame_pool_share", host / op_ns >= min)
            }
            Stress::ReadoutShareAtLeast(min) => {
                let readout = get(&totals, "backend.read") + get(&totals, "backend.clear");
                ("stress.read_clear_share", readout / op_ns >= min)
            }
        };
        o.checks.push((name.into(), ok));
        push_trace_summary(
            o,
            &selfs,
            op_ns,
            traced_ops,
            &plain_ops,
            self.elems_per_op(),
        );
        crate::write_trace(&tr, "op");
        crate::write_trace(&net_tr, "netsim");
        Ok(())
    }

    /// The switch-side calls an op makes, with the round's gradients
    /// encoded as FP16: what the FP16 pipeline would be handed for it.
    fn fp16_calls(&self, grads: &[Vec<f64>]) -> Vec<Call> {
        let job = self.job();
        let add = grads
            .iter()
            .flat_map(|g| {
                (0..job.chunks()).map(move |c| {
                    let (s, l) = job.slot_range(c);
                    let words = g[s..s + l]
                        .iter()
                        .map(|&x| FpFormat::FP16.encode(x))
                        .collect();
                    (s, words)
                })
            })
            .collect();
        let mut calls = vec![
            Call::Add(add),
            Call::Read {
                start: 0,
                len: self.elements,
            },
        ];
        calls.extend((0..job.chunks()).map(|c| {
            let (start, len) = job.slot_range(c);
            Call::Clear { start, len }
        }));
        calls
    }
}

/// What one op produced.
pub struct OpOut {
    pub values: Vec<f64>,
    pub packets: usize,
    pub wire_bytes: usize,
}

/// The host half of a round: encode every worker's gradient, packetize,
/// and put every packet through a frame + CRC round trip. Returns the
/// decoded packets and the bytes framed.
pub fn host_round<B: Aggregator>(
    sw: &mut AggregationSwitch<B>,
    grads: &[Vec<f64>],
    round: u32,
    tr: Option<&Tracer>,
) -> Result<(Vec<AggPacket>, usize), String> {
    let spec = *sw.pool().spec();
    let word_bytes = sw.backend().word_bytes();
    let words: Vec<Vec<u64>> = span(tr, "encode", || {
        grads
            .iter()
            .map(|g| g.iter().map(|&x| sw.backend_mut().encode(x)).collect())
            .collect()
    });
    let pkts: Vec<AggPacket> = span(tr, "packetize", || {
        words
            .iter()
            .enumerate()
            .flat_map(|(w, ws)| spec.packetize(w as u32, round, ws))
            .collect()
    });
    span(tr, "frame", || {
        let mut bytes = 0;
        let mut out = Vec::with_capacity(pkts.len());
        for p in &pkts {
            let frame = encode_packet(p, word_bytes).map_err(|e| e.to_string())?;
            bytes += frame.len();
            out.push(decode_packet(&frame).map_err(|e| e.to_string())?);
        }
        Ok((out, bytes))
    })
}

/// One all-reduce round. `round` is the round number every chunk of the
/// switch is on; spans are recorded when `tr` is given.
pub fn run_op<B: Aggregator>(
    sw: &mut AggregationSwitch<B>,
    grads: &[Vec<f64>],
    round: u32,
    tr: Option<&Tracer>,
) -> Result<OpOut, String> {
    let chunks = sw.pool().spec().chunks();
    let (wire, wire_bytes) = host_round(sw, grads, round, tr)?;
    let decisions = span(tr, "ingest", || sw.ingest_batch(&wire)).map_err(|e| e.to_string())?;
    if let Some(i) = decisions.iter().position(|d| !d.accepted()) {
        return Err(format!("packet {i} not accepted: {:?}", decisions[i]));
    }
    let values = span(tr, "read", || sw.read_all()).map_err(|e| e.to_string())?;
    span(tr, "finish", || -> Result<(), String> {
        for chunk in 0..chunks {
            sw.finish_round(chunk).map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;
    Ok(OpOut {
        values,
        packets: wire.len(),
        wire_bytes,
    })
}

/// Bit-for-bit comparison of a read-out against its oracle.
pub fn check(got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} values, expected {}", got.len(), want.len()));
    }
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        Some(i) => Err(format!("element {i}: {} != {}", got[i], want[i])),
        None => Ok(()),
    }
}

/// Closed-loop timed ops for `seconds`, returning each op's wall time.
/// `between` runs after each op, outside its timing.
fn measure(
    sw: &mut AggregationSwitch<Backend>,
    inputs: &Inputs,
    expected: &[Vec<f64>],
    next: &mut u32,
    seconds: f64,
    o: &mut Outcome,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let mut ops = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        ops.extend(measure_one(sw, inputs, expected, next, o));
        between()?;
    }
    Ok(ops)
}

/// One timed op; its output is checked against the oracle after the
/// clock stops. Returns the op's wall time unless it failed.
fn measure_one(
    sw: &mut AggregationSwitch<Backend>,
    inputs: &Inputs,
    expected: &[Vec<f64>],
    next: &mut u32,
    o: &mut Outcome,
) -> Option<f64> {
    let r = *next as usize % ROUNDS;
    let t0 = Instant::now();
    let out = run_op(sw, &inputs.rounds[r], *next, None);
    let secs = t0.elapsed().as_secs_f64();
    *next += 1;
    o.attempted += 1;
    match out.and_then(|out| check(&out.values, &expected[r])) {
        Ok(()) => Some(secs),
        Err(e) => {
            o.failed += 1;
            o.fail(format!("op {}: {e}", *next - 1));
            None
        }
    }
}
