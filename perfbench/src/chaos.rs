//! The chaos workload: one op is one whole simulated all-reduce job
//! through `fpisa_netsim::run_allreduce` under loss, duplication and
//! reordering — the only path through per-packet `ingest_with_ack`, the
//! ACK codec, retransmission and the event loop.
//!
//! The oracle is the same job, under the same fault plan, on a backend
//! built from the same spec on the interpreting engine: the trajectory
//! (trace hash) and every result bit must match, and the pool must have
//! accepted exactly one contribution per worker, chunk and round. The
//! exact host sums are not an oracle here: FPISA-A keeps FP16 sums in a
//! 16-bit register, and with 8 workers some arrival orders of one
//! element's contributions saturate it (the `fpisa-core` model agrees),
//! so the result depends on the order faults produce. The distance to the
//! exact sums is reported as `max_rel_err` instead.

use crate::common::{
    alternate_blocks, metric, push_timed_metrics, round_seed, Fnv, Outcome, SetupSamples, ROUNDS,
};
use crate::inproc::{check, host_round};
use crate::layers::{
    get, push_agg_metrics, push_replay_metrics, push_trace_summary, AggCounts, BackendWork,
    NetTotals,
};
use crate::replay::Replayer;
use crate::trace::{CallLog, Timed, Tracer};
use crate::Mode;
use fpisa_agg::{AggregationSwitch, Aggregator, FpisaAggregator, JobSpec};
use fpisa_core::FpFormat;
use fpisa_netsim::{run_allreduce, ChaosWorkload, FaultPlan, RunReport, SimConfig};
use fpisa_pipeline::{ExecEngine, PipelineSpec, PipelineVariant};
use std::time::Instant;

const WORKERS: u32 = 8;
const ELEMENTS: usize = 1024;
const ELEMENTS_PER_PACKET: usize = 64;
const JOB_ROUNDS: u32 = 4;
/// The fault mix: 10% drop, 5% duplicate, 5% reordered by up to 40 µs.
const DROP: f64 = 0.10;
const DUPLICATE: f64 = 0.05;
const REORDER: f64 = 0.05;
const REORDER_MAX_NS: u64 = 40_000;

/// One simulated job's inputs.
struct Job {
    grads: Vec<Vec<Vec<f64>>>,
    exact: Vec<Vec<f64>>,
    plan: FaultPlan,
}

/// What the oracle run of a job produced.
struct Expected {
    results: Vec<Vec<f64>>,
    trace_hash: u64,
}

fn workload(seed: u64) -> ChaosWorkload {
    ChaosWorkload {
        workers: WORKERS,
        elements: ELEMENTS,
        elements_per_packet: ELEMENTS_PER_PACKET,
        rounds: JOB_ROUNDS,
        seed,
    }
}

fn spec() -> JobSpec {
    workload(0).spec(1)
}

fn jobs(seed: u64) -> Vec<Job> {
    (0..ROUNDS)
        .map(|r| {
            let s = round_seed(seed, r);
            let grads = workload(s).gradients();
            Job {
                exact: ChaosWorkload::exact_sums(&grads),
                grads,
                plan: FaultPlan::new(s)
                    .drop(DROP)
                    .duplicate(DUPLICATE)
                    .reorder(REORDER, REORDER_MAX_NS),
            }
        })
        .collect()
}

/// Elements summed per job.
fn job_elems() -> u64 {
    u64::from(WORKERS) * ELEMENTS as u64 * u64::from(JOB_ROUNDS)
}

/// Data frames a loss-free job sends.
fn useful_frames() -> u64 {
    u64::from(WORKERS) * spec().chunks() as u64 * u64::from(JOB_ROUNDS)
}

fn run_job<B: Aggregator>(backend: B, job: &Job) -> Result<RunReport, String> {
    run_allreduce(
        spec(),
        backend,
        &job.grads,
        job.plan.clone(),
        SimConfig::default(),
    )
    .map_err(|e| e.to_string())
}

fn backend(engine: ExecEngine) -> Result<FpisaAggregator, String> {
    let spec = PipelineSpec::new(PipelineVariant::TofinoA)
        .format(FpFormat::FP16)
        .slots(ELEMENTS)
        .shards(1)
        .engine(engine);
    Ok(FpisaAggregator::from_spec(spec)
        .map_err(|e| e.to_string())?
        .with_shadow_stats(false))
}

/// Every job run on the interpreting engine.
fn oracle(jobs: &[Job]) -> Result<Vec<Expected>, String> {
    let interp = backend(ExecEngine::Interpreted)?;
    jobs.iter()
        .map(|job| {
            let r = run_job(interp.clone(), job)?;
            Ok(Expected {
                results: r.results,
                trace_hash: r.trace_hash,
            })
        })
        .collect()
}

/// A job's run must be clean, conserve contributions, follow the oracle's
/// trajectory and match its results bit for bit.
fn check_job(report: &RunReport, want: &Expected) -> Result<(), String> {
    if !report.clean() {
        return Err(format!(
            "degraded run: {} degraded, {} incomplete chunk-rounds",
            report.degraded_chunks, report.incomplete_chunks
        ));
    }
    if report.pool.accepted != useful_frames() {
        return Err(format!(
            "pool accepted {} contributions, job has {}",
            report.pool.accepted,
            useful_frames()
        ));
    }
    if report.trace_hash != want.trace_hash {
        return Err("trajectory differs from the interpreted run".into());
    }
    if report.results.len() != want.results.len() {
        return Err(format!("{} rounds of results", report.results.len()));
    }
    for (r, (got, want)) in report.results.iter().zip(&want.results).enumerate() {
        check(got, want).map_err(|e| format!("round {r}: {e}"))?;
    }
    Ok(())
}

/// What `setup_s` times: backend build (program generation, static
/// verification, compilation) and binding it to the job. Jobs clone the
/// built backend outside their timing.
fn setup() -> Result<FpisaAggregator, String> {
    let backend = backend(ExecEngine::Compiled)?;
    let sw = AggregationSwitch::new(spec(), backend).map_err(|e| e.to_string())?;
    Ok(sw.backend().clone())
}

/// Deterministic counts over one pass of the `ROUNDS` jobs, plus a digest
/// of every count, trace hash and result bit.
struct Counted {
    digest: u64,
    net: NetTotals,
    accepted: u64,
    duplicates: u64,
    stale: u64,
    delivered: u64,
    backend_calls: u64,
    max_rel_err: f64,
}

fn counted_pass(
    proto: &FpisaAggregator,
    jobs: &[Job],
    expected: Option<&[Expected]>,
) -> Result<Counted, String> {
    let mut h = Fnv::default();
    let mut c = Counted {
        digest: 0,
        net: NetTotals::default(),
        accepted: 0,
        duplicates: 0,
        stale: 0,
        delivered: 0,
        backend_calls: 0,
        max_rel_err: 0.0,
    };
    for (r, job) in jobs.iter().enumerate() {
        let log = CallLog::default();
        let report = run_job(Timed::new(proto.clone(), Tracer::new(), log.clone()), job)?;
        if let Some(want) = expected {
            check_job(&report, &want[r]).map_err(|e| format!("job {r}: {e}"))?;
        }
        for (got, want) in report.results.iter().zip(&job.exact) {
            for (&g, &e) in got.iter().zip(want) {
                c.max_rel_err = c.max_rel_err.max((g - e).abs() / e.abs().max(1.0));
            }
            h.floats(got);
        }
        c.net.add(&report, useful_frames());
        c.accepted += report.pool.accepted;
        c.duplicates += report.pool.duplicates;
        c.stale += report.pool.stale;
        c.delivered += report.delivered;
        c.backend_calls += log.borrow().len() as u64;
        for w in [report.trace_hash, report.sim_ns, report.events, report.sent] {
            h.word(w);
        }
    }
    for w in [
        c.accepted,
        c.duplicates,
        c.stale,
        c.delivered,
        c.backend_calls,
    ] {
        h.word(w);
    }
    c.digest = h.0;
    Ok(c)
}

pub fn run(seed: u64, seconds: f64, mode: Mode) -> Outcome {
    let mut o = Outcome {
        correct: true,
        ..Outcome::default()
    };
    if let Err(e) = run_inner(seed, seconds, mode, &mut o) {
        o.fail(e);
    }
    o
}

fn run_inner(seed: u64, seconds: f64, mode: Mode, o: &mut Outcome) -> Result<(), String> {
    let jobs = jobs(seed);
    let (mut setups, proto) = SetupSamples::first(setup)?;

    let expected = oracle(&jobs)?;
    let counted = counted_pass(&proto, &jobs, Some(&expected))?;
    let again = counted_pass(&proto, &jobs, None)?;
    let other = counted_pass(&proto, &self::jobs(seed.wrapping_add(1)), None)?;
    let (d, d2, d3) = (counted.digest, again.digest, other.digest);
    o.checks.push(("same_seed_same_counts".into(), d == d2));
    o.checks.push(("other_seed_other_digest".into(), d != d3));
    if d != d2 || d == d3 {
        o.fail(format!(
            "determinism: digest {d:#x}, rerun {d2:#x}, seed+1 {d3:#x}"
        ));
    }
    let sim_s = counted.net.sim_ns as f64 * 1e-9;
    o.extra.push(metric(
        "sim_elems_per_s",
        (job_elems() * counted.net.jobs) as f64 / sim_s,
        "elem/s",
        None,
    ));
    o.extra
        .push(metric("max_rel_err", counted.max_rel_err, "ratio", None));

    let mut next = 0usize;
    let warm_until = Instant::now() + std::time::Duration::from_millis(300);
    while next < ROUNDS || Instant::now() < warm_until {
        run_job(proto.clone(), &jobs[next % ROUNDS])?;
        next += 1;
    }

    match mode {
        Mode::Timed => {
            let mut ops = Vec::new();
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < seconds {
                ops.extend(timed_job(&proto, &jobs, &expected, &mut next, o));
                setups.maybe(setup)?;
            }
            push_timed_metrics(o, ops, job_elems(), &setups);
        }
        Mode::Traced => traced(&proto, &jobs, &expected, &mut next, seconds, &counted, o)?,
    }
    Ok(())
}

/// One timed job on a clone of the built backend (cloned before the clock
/// starts); checked after the clock stops.
fn timed_job(
    proto: &FpisaAggregator,
    jobs: &[Job],
    expected: &[Expected],
    next: &mut usize,
    o: &mut Outcome,
) -> Option<f64> {
    let job = &jobs[*next % ROUNDS];
    let want = &expected[*next % ROUNDS];
    let backend = proto.clone();
    let t0 = Instant::now();
    let report = run_job(backend, job);
    let secs = t0.elapsed().as_secs_f64();
    *next += 1;
    o.attempted += 1;
    match report.and_then(|r| check_job(&r, want)) {
        Ok(()) => Some(secs),
        Err(e) => {
            o.failed += 1;
            o.fail(format!("job {}: {e}", *next - 1));
            None
        }
    }
}

/// Host encode, packetize, frame and per-packet pool ingest of one job's
/// rounds, loss-free and in order, with spans on `tr`. The simulator does
/// this work inside the job, where outside spans cannot reach it.
fn protocol_replay(proto: &FpisaAggregator, job: &Job, tr: &Tracer) -> Result<(u64, u64), String> {
    let backend = Timed::new(proto.clone(), tr.clone(), CallLog::default());
    let mut sw = AggregationSwitch::new(spec(), backend).map_err(|e| e.to_string())?;
    let (mut pkts, mut bytes) = (0u64, 0u64);
    for (round, grads) in job.grads.iter().enumerate() {
        let (wire, framed) = host_round(&mut sw, grads, round as u32, Some(tr))?;
        for p in &wire {
            tr.span("ingest", || sw.ingest_with_ack(p))
                .map_err(|e| e.to_string())?;
        }
        pkts += wire.len() as u64;
        bytes += framed as u64;
    }
    Ok((pkts, bytes))
}

/// The traced run: untraced blocks (the overhead baseline) alternate with
/// blocks of traced jobs, each on a backend wrapped in the timing
/// decorator. After each traced job, outside its span, its backend calls
/// are replayed through the lower layers and its rounds through the
/// protocol and pool.
fn traced(
    proto: &FpisaAggregator,
    jobs: &[Job],
    expected: &[Expected],
    next: &mut usize,
    seconds: f64,
    counted: &Counted,
    o: &mut Outcome,
) -> Result<(), String> {
    let tr = Tracer::new();
    let rtr = Tracer::new();
    let mut replayer = Replayer::new(*proto.pipeline().spec())?;
    let mut work = BackendWork::default();
    let (mut plain_ops, mut traced_jobs, mut traced_events) = (Vec::new(), 0usize, 0u64);
    let (mut replay_pkts, mut replay_bytes) = (0u64, 0u64);
    alternate_blocks(seconds, |traced| {
        if !traced {
            plain_ops.extend(timed_job(proto, jobs, expected, next, o));
            return Ok(());
        }
        let (job, want) = (&jobs[*next % ROUNDS], &expected[*next % ROUNDS]);
        let log = CallLog::default();
        let backend = Timed::new(proto.clone(), tr.clone(), log.clone());
        tr.set_op(*next as u64);
        let report = tr.span("job", || run_job(backend, job));
        o.attempted += 1;
        traced_jobs += 1;
        match report.and_then(|r| check_job(&r, want).map(|()| r)) {
            Ok(r) => traced_events += r.events,
            Err(e) => {
                o.failed += 1;
                o.fail(format!("traced job {}: {e}", *next));
            }
        }
        let calls = std::mem::take(&mut *log.borrow_mut());
        work.add(&calls);
        replayer.replay(&calls)?;
        rtr.set_op(*next as u64);
        let (pkts, bytes) = protocol_replay(proto, job, &rtr)?;
        replay_pkts += pkts;
        replay_bytes += bytes;
        *next += 1;
        Ok(())
    })?;
    if traced_jobs == 0 || plain_ops.is_empty() {
        return Err("traced run too short for one traced and one plain block".into());
    }

    let totals = tr.total_ns_by_name(0);
    let selfs = tr.self_ns_by_name(0);
    let elems = (job_elems() * traced_jobs as u64) as f64;
    let jobs_counted = counted.net.jobs as f64;
    let counts = AggCounts {
        wire_bytes_per_elem: replay_bytes as f64 / elems,
        accepted: counted.accepted as f64 / jobs_counted,
        duplicates: counted.duplicates as f64 / jobs_counted,
        stale: counted.stale as f64 / jobs_counted,
        useful_ratio: counted.accepted as f64 / counted.delivered as f64,
        calls: counted.backend_calls as f64 / jobs_counted,
    };
    let n = Some(traced_jobs);
    let m = &mut o.metrics;
    let host = rtr.self_ns_by_name(0);
    push_agg_metrics(
        m,
        &host,
        elems,
        replay_pkts as f64,
        &counts,
        &totals,
        &work,
        n,
    );
    push_replay_metrics(m, &replayer, n);
    let job_self = get(&selfs, "job");
    counted
        .net
        .push_metrics(m, job_self / traced_events as f64, n);

    let job_ns = get(&totals, "job");
    o.checks.push((
        "stress.outside_backend_share".into(),
        job_self / job_ns >= 0.30,
    ));
    push_trace_summary(o, &selfs, job_ns, traced_jobs, &plain_ops, job_elems());
    crate::write_trace(&tr, "op");
    crate::write_trace(&rtr, "replay");
    Ok(())
}
