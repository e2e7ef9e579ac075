//! The fault-site classes of the SIGMA fault campaign.
//!
//! One [`SiteClass`] per kind of microarchitectural fault the campaign
//! injects (multiplier transients and stuck-at bits, FAN-adder stuck-at
//! bits, Benes operand flips / dropped ports / misroutes, and bitmap-word
//! corruption), each able to build a seeded single-event [`FaultPlan`].
//! The `fault_campaign` binary sweeps them per dataflow, and
//! [`lockstep_check`](crate::perf::lockstep_check) runs one plan per class
//! on both schedulers.

use sigma_core::fault::{FaultKind, FaultPlan, FaultSite, StuckLevel};
use sigma_core::Dataflow;

/// A fault-site class of the SIGMA datapath. Transient classes feed the
/// campaign's >= 99% detection gate; persistent classes are reported for
/// coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// A one-shot bit flip on a multiplier output.
    MultTransient,
    /// A stuck-at bit on a multiplier output.
    MultStuck,
    /// A stuck-at bit on a FAN adder output.
    FanStuck,
    /// A one-shot bit flip on an operand delivered by a Benes port.
    BenesFlip,
    /// A Benes port that never delivers.
    BenesDrop,
    /// A Benes port that delivers another port's operand.
    BenesMisroute,
    /// A one-shot corruption of a streaming-bitmap word.
    BitmapCorrupt,
}

impl SiteClass {
    /// Every site class, in campaign order.
    pub const ALL: [SiteClass; 7] = [
        SiteClass::MultTransient,
        SiteClass::MultStuck,
        SiteClass::FanStuck,
        SiteClass::BenesFlip,
        SiteClass::BenesDrop,
        SiteClass::BenesMisroute,
        SiteClass::BitmapCorrupt,
    ];

    /// The class's row label in the campaign tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SiteClass::MultTransient => "mult transient flip",
            SiteClass::MultStuck => "mult stuck-at bit",
            SiteClass::FanStuck => "fan-adder stuck-at bit",
            SiteClass::BenesFlip => "benes operand flip",
            SiteClass::BenesDrop => "benes dropped port",
            SiteClass::BenesMisroute => "benes misrouted port",
            SiteClass::BitmapCorrupt => "bitmap word corruption",
        }
    }

    /// Transient single-event classes: exactly the gate population.
    #[must_use]
    pub fn is_transient(self) -> bool {
        matches!(self, SiteClass::MultTransient | SiteClass::BenesFlip | SiteClass::BitmapCorrupt)
    }

    /// Whether the datapath of `df` exercises this site class at all
    /// (the NLR path bypasses the Benes distribution and the bitmap
    /// streaming plan).
    #[must_use]
    pub fn reachable_under(self, df: Dataflow) -> bool {
        match self {
            SiteClass::MultTransient | SiteClass::MultStuck | SiteClass::FanStuck => true,
            SiteClass::BenesFlip
            | SiteClass::BenesDrop
            | SiteClass::BenesMisroute
            | SiteClass::BitmapCorrupt => df != Dataflow::NoLocalReuse,
        }
    }

    /// Builds the single-event plan for one trial from a seed, on a
    /// machine of `dpes` Flex-DPEs of `dpe_size` multipliers each.
    #[must_use]
    pub fn plan(self, s: u64, dpes: usize, dpe_size: usize) -> FaultPlan {
        let dpe = (s >> 8) as usize % dpes;
        let slot = (s >> 16) as usize % dpe_size;
        let adder = (s >> 24) as usize % (dpe_size - 1);
        let port = (s >> 32) as usize % dpe_size;
        // Mantissa-high / exponent-low bits: large enough deltas to have
        // a numeric effect on most (not all) operands.
        let bit = 20 + (s >> 40) as u32 % 11;
        let level = if s & 1 == 0 { StuckLevel::One } else { StuckLevel::Zero };
        match self {
            SiteClass::MultTransient => FaultPlan::single(
                FaultSite::MultiplierOutput { dpe, slot },
                FaultKind::TransientFlip { bit },
            ),
            SiteClass::MultStuck => FaultPlan::single(
                FaultSite::MultiplierOutput { dpe, slot },
                FaultKind::StuckBit { bit, level },
            ),
            SiteClass::FanStuck => FaultPlan::single(
                FaultSite::FanAdder { dpe, adder },
                FaultKind::StuckBit { bit, level },
            ),
            SiteClass::BenesFlip => FaultPlan::single(
                FaultSite::BenesPort { dpe, port },
                FaultKind::TransientFlip { bit },
            ),
            SiteClass::BenesDrop => {
                FaultPlan::single(FaultSite::BenesPort { dpe, port }, FaultKind::DroppedPort)
            }
            SiteClass::BenesMisroute => FaultPlan::single(
                FaultSite::BenesPort { dpe, port },
                FaultKind::MisroutedPort { from: (s >> 36) as usize % dpe_size },
            ),
            SiteClass::BitmapCorrupt => FaultPlan::single(
                FaultSite::BitmapWord { word: (s >> 48) as usize % 4 },
                FaultKind::CorruptWord { mask: 1u64 << ((s >> 52) % 64) },
            ),
        }
    }
}
