//! Replays of an op's backend calls through the layers below the backend:
//! the pipeline (`FpisaPipeline`), the compiled PISA engine
//! (`CompiledSwitch::run_batch`) and the `fpisa-core` accumulator. Each
//! replay starts from, and returns to, empty slots, so every op is
//! replayed against the state the real op saw.

use crate::trace::Call;
use fpisa_core::FpisaAccumulator;
use fpisa_pipeline::{Fields, FpisaPipeline, PipelineSpec, OP_ADD, OP_READ};
use fpisa_pisa::{CompiledSwitch, FusionStats, Phv, RegArrayId};
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds and work items replayed per layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayTotals {
    pub pipe_add_ns: u64,
    pub pipe_add_elems: u64,
    pub pipe_read_ns: u64,
    pub pipe_read_slots: u64,
    pub pipe_clear_ns: u64,
    pub pipe_clear_slots: u64,
    pub pisa_ns: u64,
    pub pisa_pkts: u64,
    pub core_ns: u64,
    pub core_elems: u64,
}

/// The three lower layers, built from one pipeline spec.
pub struct Replayer {
    pipe: FpisaPipeline,
    pisa: CompiledSwitch,
    arrays: usize,
    fields: Fields,
    proto: Phv,
    core: Vec<FpisaAccumulator>,
    phvs: Vec<Phv>,
    pub totals: ReplayTotals,
}

fn ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

impl Replayer {
    pub fn new(spec: PipelineSpec) -> Result<Self, String> {
        let pipe = FpisaPipeline::from_spec(spec).map_err(|e| e.to_string())?;
        let pisa = CompiledSwitch::compile(pipe.switch_program()).map_err(|e| e.to_string())?;
        let cfg = pipe.core_config();
        Ok(Replayer {
            arrays: pipe.switch_program().arrays.len(),
            fields: pipe.fields().clone(),
            proto: pisa.phv(),
            core: (0..pipe.slots())
                .map(|_| FpisaAccumulator::new(cfg))
                .collect(),
            phvs: Vec::new(),
            totals: ReplayTotals::default(),
            pipe,
            pisa,
        })
    }

    /// Compile-time statistics of the replayed engine.
    pub fn fusion_stats(&self) -> FusionStats {
        self.pisa.fusion_stats()
    }

    /// Replay one op's calls through all three layers.
    pub fn replay(&mut self, calls: &[Call]) -> Result<(), String> {
        self.pipeline(calls)?;
        self.pisa(calls)?;
        self.core(calls)
    }

    fn pipeline(&mut self, calls: &[Call]) -> Result<(), String> {
        let t = &mut self.totals;
        for call in calls {
            match call {
                Call::Add(chunks) => {
                    let flat: Vec<(usize, u64)> = chunks
                        .iter()
                        .flat_map(|(s, w)| w.iter().enumerate().map(move |(i, &x)| (s + i, x)))
                        .collect();
                    let t0 = Instant::now();
                    self.pipe.add_batch(&flat).map_err(|e| e.to_string())?;
                    t.pipe_add_ns += ns(t0);
                    t.pipe_add_elems += flat.len() as u64;
                }
                &Call::Read { start, len } => {
                    let t0 = Instant::now();
                    black_box(
                        self.pipe
                            .read_range(start, len)
                            .map_err(|e| e.to_string())?,
                    );
                    t.pipe_read_ns += ns(t0);
                    t.pipe_read_slots += len as u64;
                }
                &Call::Clear { start, len } => {
                    let t0 = Instant::now();
                    self.pipe
                        .clear_range(start, len)
                        .map_err(|e| e.to_string())?;
                    t.pipe_clear_ns += ns(t0);
                    t.pipe_clear_slots += len as u64;
                }
            }
        }
        Ok(())
    }

    fn pisa(&mut self, calls: &[Call]) -> Result<(), String> {
        let f = self.fields.clone();
        for call in calls {
            // Packets are built before the clock starts: the layer's cost
            // is `run_batch` alone.
            self.phvs.clear();
            match call {
                Call::Add(chunks) => {
                    for (start, words) in chunks {
                        for (i, &w) in words.iter().enumerate() {
                            let mut phv = self.proto.clone();
                            phv.set(f.op, OP_ADD);
                            phv.set(f.slot, (start + i) as u64);
                            phv.set(f.value, w);
                            self.phvs.push(phv);
                        }
                    }
                }
                &Call::Read { start, len } => {
                    for slot in start..start + len {
                        let mut phv = self.proto.clone();
                        phv.set(f.op, OP_READ);
                        phv.set(f.slot, slot as u64);
                        self.phvs.push(phv);
                    }
                }
                &Call::Clear { start, len } => {
                    // The control-plane reset: every FPISA register array
                    // (exponent and mantissa) is indexed by slot.
                    for a in 0..self.arrays {
                        for slot in start..start + len {
                            self.pisa.set_register(RegArrayId(a as u16), slot, 0);
                        }
                    }
                    continue;
                }
            }
            let t0 = Instant::now();
            self.pisa
                .run_batch(&mut self.phvs)
                .map_err(|e| e.to_string())?;
            self.totals.pisa_ns += ns(t0);
            self.totals.pisa_pkts += self.phvs.len() as u64;
        }
        Ok(())
    }

    fn core(&mut self, calls: &[Call]) -> Result<(), String> {
        for call in calls {
            match call {
                Call::Add(chunks) => {
                    let t0 = Instant::now();
                    for (start, words) in chunks {
                        for (acc, &w) in self.core[*start..].iter_mut().zip(words) {
                            acc.add_bits_quiet(w).map_err(|e| e.to_string())?;
                        }
                    }
                    self.totals.core_ns += ns(t0);
                    self.totals.core_elems +=
                        chunks.iter().map(|(_, w)| w.len() as u64).sum::<u64>();
                }
                Call::Read { .. } => {}
                &Call::Clear { start, len } => {
                    for acc in &mut self.core[start..start + len] {
                        acc.reset();
                    }
                }
            }
        }
        Ok(())
    }
}
