//! The FPISA aggregation register: floating-point addition decomposed into
//! the integer sub-operations a PISA pipeline can execute.
//!
//! [`FpisaAccumulator`] is the host-side, bit-exact model of one aggregation
//! *slot* in the switch: one entry of the exponent register array plus the
//! corresponding entry of the signed-mantissa register array (Fig. 3). Its
//! `add` methods perform exactly the operations the pipeline stages of
//! Fig. 2 perform, in the same order, with the same truncation — so the
//! value it produces is the value the switch would produce. The
//! pipeline-level implementation in `fpisa-pipeline` is differentially
//! tested against this model.
//!
//! Two modes are supported:
//!
//! * [`FpisaMode::Approximate`] — **FPISA-A** (§4.3), deployable on today's
//!   Tofino. The stored mantissa can never be shifted (no RSAW unit), so
//!   when the incoming value has a larger exponent its mantissa is
//!   *left-shifted* into the register headroom instead; when the exponent
//!   difference exceeds the headroom the stored value is *overwritten*.
//! * [`FpisaMode::Full`] — the full design (§4.2) assuming the proposed
//!   read-shift-add-write (RSAW) stateful ALU: the stored mantissa is
//!   right-shifted and the exponent raised, so only ordinary rounding error
//!   occurs.

use crate::error::FpisaError;
use crate::format::{FpClass, FpFormat};
use crate::plan::{plan_add, AddDecision};
use crate::stats::{AddEvent, AddStats};
use crate::value::SwitchValue;
use serde::{Deserialize, Serialize};

/// Which variant of the FPISA addition algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FpisaMode {
    /// FPISA-A: approximate variant implementable on unmodified Tofino
    /// hardware (always shifts the in-metadata mantissa; overwrites on large
    /// exponent jumps).
    Approximate,
    /// Full FPISA: assumes the RSAW (read-shift-add-write) hardware
    /// extension so the stored mantissa can be aligned in place.
    Full,
}

/// What to do when the signed mantissa register overflows.
///
/// The paper notes overflow "can be detected and signaled to the user, who
/// can handle it in an application-specific way" (§3.3); these policies are
/// the reasonable hardware behaviours an implementation could choose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Clamp the mantissa to the largest representable magnitude of the
    /// register (default; corresponds to a saturating stateful ALU).
    Saturate,
    /// Let the register wrap around modulo 2^register_bits, as a plain
    /// two's-complement adder would.
    Wrap,
    /// Return [`FpisaError::RegisterOverflow`] from `add` and leave the
    /// register unchanged.
    Error,
}

/// Rounding applied when a denormalized register is read out and assembled
/// back into packed IEEE form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReadRounding {
    /// Truncate dropped magnitude bits (what the basic pipeline of Fig. 2
    /// does after converting to sign + magnitude).
    TowardZero,
    /// Round the signed value toward negative infinity (the semantics the
    /// paper ascribes to guard-digit-free two's-complement truncation).
    TowardNegInf,
    /// IEEE-style round-to-nearest, ties to even (possible when guard bits
    /// are configured, Appendix A.1).
    NearestEven,
}

/// Configuration of an FPISA aggregation slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FpisaConfig {
    /// Floating-point format of the values being aggregated.
    pub format: FpFormat,
    /// Width of the signed mantissa register in bits (32 on Tofino).
    pub register_bits: u32,
    /// Number of guard bits kept below the mantissa for rounding
    /// (0 reproduces the paper's base design).
    pub guard_bits: u32,
    /// FPISA-A or full FPISA.
    pub mode: FpisaMode,
    /// Behaviour on register overflow.
    pub overflow: OverflowPolicy,
    /// Rounding used when reading the register out.
    pub read_rounding: ReadRounding,
}

impl FpisaConfig {
    /// A configuration with the paper's defaults: no guard bits, saturating
    /// overflow, truncating read-out.
    pub fn new(format: FpFormat, register_bits: u32, mode: FpisaMode) -> Self {
        assert!(
            register_bits >= format.sig_bits() + 2,
            "register must fit sign + significand + at least one headroom bit"
        );
        assert!(
            register_bits <= 63,
            "registers wider than 63 bits are not supported"
        );
        FpisaConfig {
            format,
            register_bits,
            guard_bits: 0,
            mode,
            overflow: OverflowPolicy::Saturate,
            read_rounding: ReadRounding::TowardZero,
        }
    }

    /// Standard FP32-in-32-bit-register FPISA-A configuration (what runs on
    /// an unmodified Tofino).
    pub fn fp32_tofino() -> Self {
        Self::new(FpFormat::FP32, 32, FpisaMode::Approximate)
    }

    /// Standard FP32 full-FPISA configuration (with the RSAW extension).
    pub fn fp32_extended() -> Self {
        Self::new(FpFormat::FP32, 32, FpisaMode::Full)
    }

    /// FP16 aggregated in a 32-bit register (the ML-format configuration
    /// evaluated in §5.2.2).
    pub fn fp16_wide() -> Self {
        Self::new(FpFormat::FP16, 32, FpisaMode::Approximate)
    }

    /// FP16 FPISA-A in a native 16-bit register — §3.3: "other
    /// floating-point formats only require changing the bit width of the
    /// fields", and Tofino's register files come in 16-bit entries, so a
    /// half-precision slot halves the register (and shift-table) cost of
    /// [`FpisaConfig::fp32_tofino`].
    pub fn fp16_tofino() -> Self {
        Self::new(FpFormat::FP16, 16, FpisaMode::Approximate)
    }

    /// bfloat16 FPISA-A in a native 16-bit register — the other ML format
    /// §3.3 names as supported "trivially": FP32's exponent range with a
    /// 7-bit mantissa, leaving the same 7 headroom bits as
    /// [`FpisaConfig::fp32_tofino`] at half the register width.
    pub fn bf16_tofino() -> Self {
        Self::new(FpFormat::BF16, 16, FpisaMode::Approximate)
    }

    /// Builder-style setter for the number of guard bits.
    pub fn with_guard_bits(mut self, guard_bits: u32) -> Self {
        assert!(
            self.register_bits >= self.format.sig_bits() + 2 + guard_bits,
            "guard bits leave no headroom"
        );
        self.guard_bits = guard_bits;
        self
    }

    /// Builder-style setter for the overflow policy.
    pub fn with_overflow(mut self, overflow: OverflowPolicy) -> Self {
        self.overflow = overflow;
        self
    }

    /// Builder-style setter for the read-out rounding mode.
    pub fn with_read_rounding(mut self, rounding: ReadRounding) -> Self {
        self.read_rounding = rounding;
        self
    }

    /// Headroom bits available above the normalized mantissa position.
    pub fn headroom_bits(&self) -> u32 {
        SwitchValue::headroom_bits(self.format, self.register_bits, self.guard_bits)
    }

    /// Largest positive value the signed mantissa register can hold.
    pub fn register_max(&self) -> i64 {
        (1i64 << (self.register_bits - 1)) - 1
    }

    /// Most negative value the signed mantissa register can hold.
    pub fn register_min(&self) -> i64 {
        -(1i64 << (self.register_bits - 1))
    }
}

/// One FPISA aggregation slot: an exponent register entry plus a signed
/// mantissa register entry, operated on exactly as the switch pipeline would.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FpisaAccumulator {
    cfg: FpisaConfig,
    /// Biased exponent register.
    exponent: u32,
    /// Signed mantissa register (sign-extended into an i64; always within
    /// the register's two's-complement range).
    mantissa: i64,
    /// Whether any non-zero value has been absorbed yet (a fresh slot is
    /// initialized by the first write, as in SwitchML's slot reuse).
    initialized: bool,
    stats: AddStats,
}

impl FpisaAccumulator {
    /// Create an empty slot.
    pub fn new(cfg: FpisaConfig) -> Self {
        FpisaAccumulator {
            cfg,
            exponent: 0,
            mantissa: 0,
            initialized: false,
            stats: AddStats::default(),
        }
    }

    /// The configuration of this slot.
    pub fn config(&self) -> &FpisaConfig {
        &self.cfg
    }

    /// Statistics of all additions performed so far.
    pub fn stats(&self) -> &AddStats {
        &self.stats
    }

    /// Reset the slot to the empty state, keeping the configuration and
    /// clearing the statistics.
    pub fn reset(&mut self) {
        self.exponent = 0;
        self.mantissa = 0;
        self.initialized = false;
        self.stats = AddStats::default();
    }

    /// Whether any non-zero value has been absorbed yet.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// The biased exponent register entry (meaningful once initialized).
    pub fn exponent(&self) -> u32 {
        self.exponent
    }

    /// The signed mantissa register entry.
    pub fn mantissa(&self) -> i64 {
        self.mantissa
    }

    /// Overwrite the raw register state — a differential-testing hook for
    /// starting a reference model from an arbitrary mid-stream switch
    /// state (exercised by `crates/core/tests/property.rs`). The mantissa
    /// must fit the configured register width.
    pub fn load_register(&mut self, exponent: u32, mantissa: i64) {
        assert!(
            mantissa <= self.cfg.register_max() && mantissa >= self.cfg.register_min(),
            "mantissa {mantissa} does not fit a {}-bit register",
            self.cfg.register_bits
        );
        self.exponent = exponent;
        self.mantissa = mantissa;
        self.initialized = true;
    }

    /// The alignment decision the *next* `add` of a value with the given
    /// biased exponent would take (the step-wise hook used by the pipeline
    /// differential tests; see [`crate::plan::plan_add`]).
    pub fn plan_for(&self, incoming_exponent: u32) -> AddDecision {
        plan_add(
            &self.cfg,
            self.initialized,
            self.exponent,
            incoming_exponent,
        )
    }

    /// The raw register contents as a [`SwitchValue`].
    pub fn register(&self) -> SwitchValue {
        SwitchValue {
            format: self.cfg.format,
            register_bits: self.cfg.register_bits,
            guard_bits: self.cfg.guard_bits,
            exponent: self.exponent,
            mantissa: self.mantissa,
        }
    }

    /// The exact mathematical value currently held (for analysis/tests).
    pub fn value_f64(&self) -> f64 {
        self.register().to_f64()
    }

    // ------------------------------------------------------------------
    // Addition
    // ------------------------------------------------------------------

    /// Add a packed value of the configured format to the slot.
    ///
    /// Returns the list of numerical events the addition caused (also folded
    /// into [`FpisaAccumulator::stats`]). This is the *traced* API: it
    /// allocates one `Vec` per call to carry the events out. Hot loops that
    /// only need the statistics should use
    /// [`FpisaAccumulator::add_bits_quiet`].
    pub fn add_bits(&mut self, bits: u64) -> Result<Vec<AddEvent>, FpisaError> {
        let mut events = Vec::with_capacity(2);
        self.add_bits_sink(bits, |ev| events.push(ev))?;
        Ok(events)
    }

    /// Add a packed value without allocating: identical state transitions
    /// and statistics to [`FpisaAccumulator::add_bits`], but the per-call
    /// `Vec<AddEvent>` is skipped. The bulk-aggregation hot path (the
    /// differential suites, the benches, million-packet soaks).
    #[inline]
    pub fn add_bits_quiet(&mut self, bits: u64) -> Result<(), FpisaError> {
        self.add_bits_sink(bits, |_| {})
    }

    /// The single implementation behind the traced and quiet adds: events
    /// are streamed into `sink` (and into [`FpisaAccumulator::stats`]) as
    /// they happen.
    fn add_bits_sink(
        &mut self,
        bits: u64,
        mut sink: impl FnMut(AddEvent),
    ) -> Result<(), FpisaError> {
        let f = self.cfg.format;
        let u = f.unpack(bits);
        // Infinity / NaN cannot be decomposed; surface the error.
        if matches!(u.class, FpClass::Infinity | FpClass::Nan) {
            // Still let SwitchValue produce the precise error kind.
            SwitchValue::extract(f, self.cfg.register_bits, self.cfg.guard_bits, bits)?;
            unreachable!("extract must fail for non-finite inputs");
        }
        if matches!(u.class, FpClass::Zero) {
            self.stats.record(AddEvent::Zero);
            sink(AddEvent::Zero);
            return Ok(());
        }
        let incoming = SwitchValue::extract(f, self.cfg.register_bits, self.cfg.guard_bits, bits)?;
        // Count the addition once; each event then updates its category
        // (the streaming equivalent of `AddStats::record_all`).
        self.stats.additions += 1;
        let mut emit = |stats: &mut AddStats, ev: AddEvent| {
            stats.record_category(ev);
            sink(ev);
        };

        let e_in = incoming.exponent;
        let e_acc = self.exponent;
        match plan_add(&self.cfg, self.initialized, e_acc, e_in) {
            AddDecision::Install => {
                // First write simply installs the value (SwitchML-style slot
                // initialization: the first worker's packet overwrites the
                // slot).
                self.exponent = e_in;
                self.mantissa = incoming.mantissa;
                self.initialized = true;
                emit(&mut self.stats, AddEvent::Exact);
            }
            AddDecision::RightShiftIncoming { shift } => {
                // The incoming value is the smaller one: right-shift its
                // mantissa to the accumulator's scale (MAU3 of Fig. 2), then
                // add (MAU4).
                let (shifted, lost_bits) = arithmetic_shift_right(incoming.mantissa, shift);
                if lost_bits != 0 {
                    let lost = lost_bits as f64
                        * crate::format::pow2(
                            e_acc as i32
                                - f.bias()
                                - f.man_bits as i32
                                - self.cfg.guard_bits as i32
                                - shift as i32,
                        );
                    emit(&mut self.stats, AddEvent::Rounded { lost: lost.abs() });
                } else {
                    emit(&mut self.stats, AddEvent::Exact);
                }
                self.apply_add(shifted, &mut emit)?;
            }
            AddDecision::ShiftStored { shift } => {
                // RSAW: right-shift the *stored* mantissa, raise the
                // exponent, then add the incoming mantissa unshifted.
                let (shifted_acc, lost_bits) = arithmetic_shift_right(self.mantissa, shift);
                if lost_bits != 0 {
                    let lost = lost_bits as f64
                        * crate::format::pow2(
                            e_acc as i32
                                - f.bias()
                                - f.man_bits as i32
                                - self.cfg.guard_bits as i32,
                        );
                    emit(&mut self.stats, AddEvent::Rounded { lost: lost.abs() });
                } else {
                    emit(&mut self.stats, AddEvent::Exact);
                }
                self.mantissa = shifted_acc;
                self.exponent = e_in;
                self.apply_add(incoming.mantissa, &mut emit)?;
            }
            AddDecision::LeftShiftIncoming { shift } => {
                // FPISA-A: the stored mantissa cannot be shifted, so the
                // incoming one is left-shifted into the register headroom.
                emit(&mut self.stats, AddEvent::LeftShifted { by: shift });
                let shifted_in = incoming.mantissa << shift;
                self.apply_add(shifted_in, &mut emit)?;
            }
            AddDecision::Overwrite => {
                // FPISA-A: the exponent difference exceeds the headroom, so
                // the stored value is discarded.
                let lost = self.value_f64();
                emit(&mut self.stats, AddEvent::Overwrote { lost: lost.abs() });
                self.exponent = e_in;
                self.mantissa = incoming.mantissa;
            }
        }
        Ok(())
    }

    /// Add an `f32` to an FP32-configured slot.
    pub fn add_f32(&mut self, x: f32) -> Result<Vec<AddEvent>, FpisaError> {
        debug_assert_eq!(
            self.cfg.format,
            FpFormat::FP32,
            "add_f32 on a non-FP32 slot"
        );
        self.add_bits(x.to_bits() as u64)
    }

    /// Non-allocating [`FpisaAccumulator::add_f32`].
    #[inline]
    pub fn add_f32_quiet(&mut self, x: f32) -> Result<(), FpisaError> {
        debug_assert_eq!(
            self.cfg.format,
            FpFormat::FP32,
            "add_f32_quiet on a non-FP32 slot"
        );
        self.add_bits_quiet(x.to_bits() as u64)
    }

    /// Add an `f64`, first converting it to the slot's format with
    /// round-to-nearest-even (models the host casting to FP16/BF16/etc.).
    pub fn add_converted(&mut self, x: f64) -> Result<Vec<AddEvent>, FpisaError> {
        self.add_bits(self.cfg.format.encode(x))
    }

    /// Perform the stateful mantissa addition with overflow handling.
    fn apply_add(
        &mut self,
        addend: i64,
        emit: &mut impl FnMut(&mut AddStats, AddEvent),
    ) -> Result<(), FpisaError> {
        let sum = self.mantissa + addend; // cannot overflow i64 (registers <= 63 bits)
        if sum > self.cfg.register_max() || sum < self.cfg.register_min() {
            emit(&mut self.stats, AddEvent::Overflowed);
            match self.cfg.overflow {
                OverflowPolicy::Saturate => {
                    self.mantissa = if sum > 0 {
                        self.cfg.register_max()
                    } else {
                        self.cfg.register_min()
                    };
                }
                OverflowPolicy::Wrap => {
                    let bits = self.cfg.register_bits;
                    let mask = (1i64 << bits) - 1;
                    let wrapped = sum & mask;
                    // Sign-extend back to i64.
                    self.mantissa = if wrapped & (1i64 << (bits - 1)) != 0 {
                        wrapped - (1i64 << bits)
                    } else {
                        wrapped
                    };
                }
                OverflowPolicy::Error => {
                    return Err(FpisaError::RegisterOverflow {
                        exponent: self.exponent,
                    });
                }
            }
        } else {
            self.mantissa = sum;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Read-out
    // ------------------------------------------------------------------

    /// Renormalize and assemble the current value into packed bits of the
    /// configured format (the egress-pipeline stages MAU5–MAU8).
    ///
    /// Reading does **not** modify the register — the paper stresses that the
    /// normalized value is not stored back (§3).
    pub fn read_bits(&self) -> u64 {
        self.register().assemble(self.cfg.read_rounding)
    }

    /// Read the slot out as an `f32` (FP32 slots only).
    pub fn read_f32(&self) -> f32 {
        debug_assert_eq!(self.cfg.format, FpFormat::FP32);
        f32::from_bits(self.read_bits() as u32)
    }

    /// Read the slot out, decoded to `f64` whatever the format.
    pub fn read_f64(&self) -> f64 {
        self.cfg.format.decode(self.read_bits())
    }
}

/// Arithmetic right shift that also reports the (unsigned) value of the
/// dropped low-order bits, so rounding loss can be accounted exactly.
/// Shifts of `register_bits` or more collapse the value to 0 (positive) or
/// -1 (negative), exactly like a barrel shifter chain would.
fn arithmetic_shift_right(value: i64, shift: u32) -> (i64, u64) {
    if shift == 0 {
        return (value, 0);
    }
    if shift >= 63 {
        let lost = if value >= 0 {
            value as u64
        } else {
            (value + 1).unsigned_abs()
        };
        return (if value < 0 { -1 } else { 0 }, lost);
    }
    let shifted = value >> shift;
    let lost = (value - (shifted << shift)).unsigned_abs();
    (shifted, lost)
}

/// Sum an entire slice of `f32` values through a fresh FPISA slot and return
/// the read-out, the exact (f64) sum and the statistics. Convenience helper
/// used pervasively by the error-analysis experiments.
pub fn aggregate_f32(cfg: FpisaConfig, values: &[f32]) -> (f32, f64, AddStats) {
    let mut acc = FpisaAccumulator::new(cfg);
    let mut exact = 0.0f64;
    for &v in values {
        exact += v as f64;
        // Overflow with the default policy never returns Err.
        let _ = acc.add_f32(v);
    }
    (acc.read_f32(), exact, *acc.stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_cfg() -> FpisaConfig {
        FpisaConfig::fp32_tofino()
    }
    fn full_cfg() -> FpisaConfig {
        FpisaConfig::fp32_extended()
    }

    #[test]
    fn exact_sums_of_dyadic_values() {
        for cfg in [approx_cfg(), full_cfg()] {
            let mut acc = FpisaAccumulator::new(cfg);
            for &v in &[1.0f32, 2.0, 0.5, 0.25, -1.5, 4.0, -0.75] {
                acc.add_f32(v).unwrap();
            }
            assert_eq!(acc.read_f32(), 5.5);
        }
    }

    #[test]
    fn first_add_installs_value_exactly() {
        let mut acc = FpisaAccumulator::new(approx_cfg());
        acc.add_f32(0.1).unwrap();
        assert_eq!(acc.read_f32(), 0.1);
        assert_eq!(acc.stats().exact, 1);
    }

    #[test]
    fn zero_inputs_do_not_change_state() {
        let mut acc = FpisaAccumulator::new(approx_cfg());
        acc.add_f32(1.5).unwrap();
        acc.add_f32(0.0).unwrap();
        acc.add_f32(-0.0).unwrap();
        assert_eq!(acc.read_f32(), 1.5);
        assert_eq!(acc.stats().zeros, 2);
    }

    #[test]
    fn adding_zero_to_empty_slot_reads_zero() {
        let mut acc = FpisaAccumulator::new(approx_cfg());
        acc.add_f32(0.0).unwrap();
        assert_eq!(acc.read_f32(), 0.0);
    }

    #[test]
    fn nan_and_inf_are_rejected_without_corrupting_state() {
        let mut acc = FpisaAccumulator::new(approx_cfg());
        acc.add_f32(2.0).unwrap();
        assert!(acc.add_f32(f32::NAN).is_err());
        assert!(acc.add_f32(f32::INFINITY).is_err());
        assert_eq!(acc.read_f32(), 2.0);
    }

    #[test]
    fn smaller_incoming_value_is_right_shifted_and_rounded() {
        // 1.0 + 2^-24: the small value's lowest bit falls off the register.
        let mut acc = FpisaAccumulator::new(approx_cfg());
        acc.add_f32(1.0).unwrap();
        let ev = acc.add_f32(2f32.powi(-24)).unwrap();
        assert!(matches!(ev[0], AddEvent::Rounded { .. }));
        assert_eq!(acc.read_f32(), 1.0); // rounded away (toward zero)
    }

    #[test]
    fn fpisa_a_left_shifts_larger_incoming_values() {
        // Accumulator holds 1.0 (exp 127); adding 64.0 (exp 133) needs a
        // left shift of 6 <= headroom 7, so the result is exact.
        let mut acc = FpisaAccumulator::new(approx_cfg());
        acc.add_f32(1.0).unwrap();
        let ev = acc.add_f32(64.0).unwrap();
        assert!(ev
            .iter()
            .any(|e| matches!(e, AddEvent::LeftShifted { by: 6 })));
        assert_eq!(acc.read_f32(), 65.0);
        assert_eq!(acc.stats().overwrites, 0);
    }

    #[test]
    fn fpisa_a_overwrites_on_large_exponent_jump() {
        // Adding a value 2^8 times larger exceeds the 7-bit headroom: the
        // stored 1.0 is discarded ("overwrite" error).
        let mut acc = FpisaAccumulator::new(approx_cfg());
        acc.add_f32(1.0).unwrap();
        let ev = acc.add_f32(512.0).unwrap();
        assert!(ev.iter().any(|e| matches!(e, AddEvent::Overwrote { .. })));
        assert_eq!(acc.read_f32(), 512.0); // the 1.0 was lost
        assert_eq!(acc.stats().overwrites, 1);
        assert!((acc.stats().overwrite_loss - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_mode_never_overwrites() {
        let mut acc = FpisaAccumulator::new(full_cfg());
        acc.add_f32(1.0).unwrap();
        acc.add_f32(512.0).unwrap();
        assert_eq!(acc.read_f32(), 513.0);
        assert_eq!(acc.stats().overwrites, 0);
    }

    #[test]
    fn full_mode_rounds_stored_mantissa_when_raising_exponent() {
        // Accumulator holds 2^-24-ish dust, then a value 2^30 larger arrives:
        // the stored bits are shifted out entirely (pure rounding error).
        let mut acc = FpisaAccumulator::new(full_cfg());
        acc.add_f32(1.0e-7).unwrap();
        acc.add_f32(1024.0).unwrap();
        assert_eq!(acc.read_f32(), 1024.0);
        assert_eq!(acc.stats().overwrites, 0);
        assert!(acc.stats().rounded >= 1);
    }

    #[test]
    fn boundary_delta_equal_headroom_left_shifts() {
        // delta == headroom (7) must still use the left-shift path.
        let mut acc = FpisaAccumulator::new(approx_cfg());
        acc.add_f32(1.0).unwrap();
        let ev = acc.add_f32(128.0).unwrap();
        assert!(ev
            .iter()
            .any(|e| matches!(e, AddEvent::LeftShifted { by: 7 })));
        assert_eq!(acc.read_f32(), 129.0);
    }

    #[test]
    fn boundary_delta_just_past_headroom_overwrites() {
        let mut acc = FpisaAccumulator::new(approx_cfg());
        acc.add_f32(1.0).unwrap();
        let ev = acc.add_f32(256.0).unwrap();
        assert!(ev.iter().any(|e| matches!(e, AddEvent::Overwrote { .. })));
        assert_eq!(acc.read_f32(), 256.0);
    }

    #[test]
    fn mixed_signs_cancel() {
        for cfg in [approx_cfg(), full_cfg()] {
            let mut acc = FpisaAccumulator::new(cfg);
            acc.add_f32(5.5).unwrap();
            acc.add_f32(-5.5).unwrap();
            assert_eq!(acc.read_f32(), 0.0);
            acc.add_f32(-3.25).unwrap();
            acc.add_f32(1.0).unwrap();
            assert_eq!(acc.read_f32(), -2.25);
        }
    }

    #[test]
    fn cancellation_leaves_small_residual_representable() {
        let mut acc = FpisaAccumulator::new(approx_cfg());
        acc.add_f32(1.0).unwrap();
        acc.add_f32(-(1.0 - 2f32.powi(-20))).unwrap();
        assert_eq!(acc.read_f32(), 2f32.powi(-20));
    }

    #[test]
    fn many_same_exponent_additions_use_headroom() {
        // 128 additions of values with the same exponent must not overflow
        // (the extreme case called out in §3.3).
        let mut acc = FpisaAccumulator::new(approx_cfg());
        let v = f32::from_bits(0x3FFF_FFFF); // mantissa all ones, ~1.9999999
        for _ in 0..128 {
            acc.add_f32(v).unwrap();
        }
        assert_eq!(acc.stats().overflows, 0);
        let exact = 128.0 * v as f64;
        let got = acc.read_f32() as f64;
        assert!(
            (got - exact).abs() / exact < 1e-6,
            "got {got}, exact {exact}"
        );
    }

    #[test]
    fn overflow_detection_and_policies() {
        let v = f32::from_bits(0x3FFF_FFFF);
        // 257 additions exceed the headroom capacity of 2^7.
        let mut sat = FpisaAccumulator::new(approx_cfg().with_overflow(OverflowPolicy::Saturate));
        for _ in 0..257 {
            sat.add_f32(v).unwrap();
        }
        assert!(sat.stats().overflows > 0);
        // Saturation keeps the value near the representable max for that exponent.
        assert!(sat.read_f32() > 250.0);

        let mut err = FpisaAccumulator::new(approx_cfg().with_overflow(OverflowPolicy::Error));
        let mut failed = false;
        for _ in 0..257 {
            if err.add_f32(v).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "Error policy must surface the overflow");

        let mut wrap = FpisaAccumulator::new(approx_cfg().with_overflow(OverflowPolicy::Wrap));
        for _ in 0..257 {
            wrap.add_f32(v).unwrap();
        }
        assert!(wrap.stats().overflows > 0);
    }

    #[test]
    fn denormal_inputs_are_accumulated() {
        let tiny = f32::from_bits(7); // subnormal
        let mut acc = FpisaAccumulator::new(approx_cfg());
        acc.add_f32(tiny).unwrap();
        acc.add_f32(tiny).unwrap();
        assert_eq!(acc.read_f32(), f32::from_bits(14));
    }

    #[test]
    fn fp16_aggregation_in_wide_register() {
        let cfg = FpisaConfig::fp16_wide();
        let f = FpFormat::FP16;
        let mut acc = FpisaAccumulator::new(cfg);
        for x in [1.0f64, 0.5, 2.0, -0.25, 3.0] {
            acc.add_bits(f.encode(x)).unwrap();
        }
        assert_eq!(acc.read_f64(), 6.25);
    }

    #[test]
    fn native_16bit_presets_match_the_paper_headrooms() {
        let fp16 = FpisaConfig::fp16_tofino();
        assert_eq!((fp16.format, fp16.register_bits), (FpFormat::FP16, 16));
        assert_eq!(fp16.headroom_bits(), 4);
        let bf16 = FpisaConfig::bf16_tofino();
        assert_eq!((bf16.format, bf16.register_bits), (FpFormat::BF16, 16));
        // Same 7-bit headroom as FP32-in-32-bit (§3.3).
        assert_eq!(
            bf16.headroom_bits(),
            FpisaConfig::fp32_tofino().headroom_bits()
        );

        let mut acc = FpisaAccumulator::new(fp16);
        for x in [1.0f64, 0.5, 2.0, -0.25] {
            acc.add_bits(FpFormat::FP16.encode(x)).unwrap();
        }
        assert_eq!(acc.read_f64(), 3.25);
        let mut acc = FpisaAccumulator::new(bf16);
        for x in [1.0f64, 2.0, -0.5] {
            acc.add_bits(FpFormat::BF16.encode(x)).unwrap();
        }
        assert_eq!(acc.read_f64(), 2.5);
    }

    /// The fan-in limit of `fpisa_netsim::ChaosWorkload`'s exactness
    /// claim: eight FP16-exact quarter-grid values whose sum (39.75) FP16
    /// holds exactly still saturate the 16-bit FPISA-A register whenever
    /// the exponent-0 value arrives first — the register keeps exponent
    /// 0, where it tops out just below 32. That is 7! = 5040 of the
    /// 8! = 40320 arrival orders.
    #[test]
    fn fp16_tofino_saturates_for_orders_that_start_small() {
        let values = [1.75f64, 3.5, 7.0, 3.5, 7.0, 6.0, 7.0, 4.0];
        let mut order: Vec<usize> = (0..values.len()).collect();
        let (mut exact, mut saturated) = (0u32, 0u32);
        // Heap's algorithm over element positions.
        let mut c = vec![0usize; order.len()];
        let mut i = 0;
        loop {
            let mut acc = FpisaAccumulator::new(FpisaConfig::fp16_tofino());
            for &k in &order {
                acc.add_bits_quiet(FpFormat::FP16.encode(values[k]))
                    .unwrap();
            }
            match acc.read_f64() {
                39.75 => exact += 1,
                31.984375 => {
                    assert_eq!(order[0], 0, "only 1.75-first orders saturate");
                    saturated += 1;
                }
                other => panic!("order {order:?} read {other}"),
            }
            while i < order.len() && c[i] >= i {
                c[i] = 0;
                i += 1;
            }
            if i == order.len() {
                break;
            }
            order.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
            c[i] += 1;
            i = 0;
        }
        assert_eq!((saturated, exact), (5040, 40320 - 5040));
    }

    #[test]
    fn bf16_aggregation() {
        let cfg = FpisaConfig::new(FpFormat::BF16, 16, FpisaMode::Approximate);
        let f = FpFormat::BF16;
        let mut acc = FpisaAccumulator::new(cfg);
        for x in [1.0f64, 2.0, 4.0] {
            acc.add_bits(f.encode(x)).unwrap();
        }
        assert_eq!(acc.read_f64(), 7.0);
    }

    #[test]
    fn quiet_add_matches_traced_add_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        // Same stream, one traced slot, one quiet slot: identical register
        // state and identical statistics after every add, in both modes
        // and under every overflow policy.
        for mode in [FpisaMode::Approximate, FpisaMode::Full] {
            for overflow in [
                OverflowPolicy::Saturate,
                OverflowPolicy::Wrap,
                OverflowPolicy::Error,
            ] {
                let cfg = FpisaConfig::new(FpFormat::FP32, 32, mode).with_overflow(overflow);
                let mut traced = FpisaAccumulator::new(cfg);
                let mut quiet = FpisaAccumulator::new(cfg);
                let mut rng = rand::rngs::SmallRng::seed_from_u64(0x9A1E7);
                for i in 0..4000 {
                    let x = if rng.gen_range(0u32..50) == 0 {
                        0.0
                    } else {
                        let mag = 2f32.powi(rng.gen_range(-30..30));
                        mag * rng.gen_range(1.0f32..2.0) * if rng.gen() { 1.0 } else { -1.0 }
                    };
                    let t = traced.add_f32(x).map(|_| ());
                    let q = quiet.add_f32_quiet(x);
                    assert_eq!(t, q, "{mode:?}/{overflow:?} add #{i}");
                    assert_eq!(
                        (
                            traced.exponent(),
                            traced.mantissa(),
                            traced.is_initialized()
                        ),
                        (quiet.exponent(), quiet.mantissa(), quiet.is_initialized()),
                        "{mode:?}/{overflow:?} add #{i}: register diverged"
                    );
                    assert_eq!(
                        traced.stats(),
                        quiet.stats(),
                        "{mode:?}/{overflow:?} add #{i}: stats diverged"
                    );
                }
                assert_eq!(traced.read_bits(), quiet.read_bits());
            }
        }
    }

    #[test]
    fn reset_clears_state_and_stats() {
        let mut acc = FpisaAccumulator::new(approx_cfg());
        acc.add_f32(3.0).unwrap();
        acc.reset();
        assert_eq!(acc.read_f32(), 0.0);
        assert_eq!(acc.stats().additions, 0);
        acc.add_f32(7.0).unwrap();
        assert_eq!(acc.read_f32(), 7.0);
    }

    #[test]
    fn aggregate_helper_reports_exact_sum() {
        let vals = [0.5f32, 0.25, 0.125, 1.0, -0.5];
        let (got, exact, stats) = aggregate_f32(approx_cfg(), &vals);
        assert_eq!(got as f64, exact);
        assert_eq!(stats.additions, 5);
    }

    #[test]
    fn error_is_bounded_for_narrow_exponent_ranges() {
        // The FPISA-A guarantee used by §5.1: if all values lie within a 2^7
        // ratio the only error is rounding of low-order bits, bounded by a
        // few ulps of the running sum.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        for _ in 0..50 {
            let vals: Vec<f32> = (0..8)
                .map(|_| rng.gen_range(0.01f32..1.0) * if rng.gen() { 1.0 } else { -1.0 })
                .collect();
            let (got, exact, stats) = aggregate_f32(approx_cfg(), &vals);
            assert_eq!(
                stats.overwrites, 0,
                "no overwrite expected for ratios < 2^7"
            );
            let err = (got as f64 - exact).abs();
            assert!(err < 1e-5, "error {err} too large for {vals:?}");
        }
    }

    #[test]
    fn full_mode_avoids_overwrite_error_on_wide_ranges() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let (mut total_approx_err, mut total_full_err) = (0.0f64, 0.0f64);
        let mut saw_overwrite = false;
        for _ in 0..50 {
            // Wide magnitude spread (2^24 ratio) to trigger overwrites in FPISA-A.
            let vals: Vec<f32> = (0..16)
                .map(|_| {
                    let mag = 2f32.powi(rng.gen_range(-12..12));
                    mag * rng.gen_range(1.0f32..2.0) * if rng.gen() { 1.0 } else { -1.0 }
                })
                .collect();
            let (a, exact, as_) = aggregate_f32(approx_cfg(), &vals);
            let (f, _, fs) = aggregate_f32(full_cfg(), &vals);
            // Full FPISA never overwrites, whatever the input distribution.
            assert_eq!(fs.overwrites, 0);
            saw_overwrite |= as_.overwrites > 0;
            let scale = vals.iter().map(|v| v.abs() as f64).sum::<f64>().max(1e-30);
            total_approx_err += (a as f64 - exact).abs() / scale;
            let ef = (f as f64 - exact).abs() / scale;
            // Full-mode error is pure rounding: bounded by a few ulps per add.
            assert!(
                ef < 1e-4,
                "full-mode relative error {ef} unexpectedly large"
            );
            total_full_err += ef;
        }
        // The workload is built to exercise the overwrite path.
        assert!(
            saw_overwrite,
            "workload failed to trigger any FPISA-A overwrite"
        );
        // Aggregated over many trials, overwrite error dominates rounding error.
        assert!(
            total_full_err <= total_approx_err,
            "full {total_full_err} should be no worse than approximate {total_approx_err} in aggregate"
        );
    }
}
