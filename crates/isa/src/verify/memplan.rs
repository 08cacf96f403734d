//! Verified memory planning and the static cost model.
//!
//! This pass turns the verifier's re-derived plane table
//! ([`VerifyReport::planes`]) into two constructive artifacts:
//!
//! * [`MemoryPlan`] — a register-allocation-style coloring of the
//!   program's feature planes onto shared physical *slots*. Each plane's
//!   lifetime is the closed instruction interval from its birth (its
//!   writing instruction; the pre-execution input stream for `DI` planes)
//!   to its last read (the post-execution output assembly for `DO`
//!   planes). Two planes *interfere* when those intervals overlap; a
//!   greedy first-fit walk in table order assigns every plane the lowest
//!   slot holding no interfering plane. The result is a proof-carrying
//!   layout: no two planes that are ever simultaneously live share a
//!   slot, so an executor that keys its arena by slot instead of
//!   `(buffer, group)` produces bit-identical output while holding only
//!   [`MemoryPlan::peak_bytes`] of plane storage. The plan is only
//!   emitted for programs whose verification found no hard errors —
//!   mirroring the `narrow_acc` license: no proof, no coalescing.
//! * [`CostReport`] — exact static work/traffic counts per instruction
//!   (MACs, block-buffer read/write traffic, `DI`/`DO` stream bytes),
//!   summed over the program. The formulas mirror the executor's
//!   counters term by term, so the totals must equal the observed
//!   `ExecStats` work counters of one block execution exactly — a
//!   differential test pins this for every shipped paper model. The
//!   report also carries both memory layouts' peak bytes.
//!
//! Interval conservatism: lifetimes are *closed* at both ends, so a plane
//! read by instruction `i` interferes with the plane `i` writes even
//! though the executor's reads complete before its write. This forgoes a
//! little sharing but makes the proof independent of intra-instruction
//! ordering — in particular it subsumes every in-place aliasing hazard
//! the verifier flags (`alias-hazard` programs additionally carry a hard
//! error, which suppresses the plan entirely).

use super::{PlaneRecord, VerifyReport};
use crate::instr::{FeatLoc, Opcode, LEAF_CH};
use crate::program::Program;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Bytes one plane record occupies (i16 codes).
fn plane_bytes(p: &PlaneRecord) -> usize {
    p.channels
        .saturating_mul(p.height)
        .saturating_mul(p.width)
        .saturating_mul(std::mem::size_of::<i16>())
}

/// Elements one plane record holds (the unit the executor's traffic
/// counters charge: `Tensor::len`).
fn plane_elems(p: &PlaneRecord) -> u64 {
    (p.channels as u64)
        .saturating_mul(p.height as u64)
        .saturating_mul(p.width as u64)
}

/// A plane's lifetime as a closed interval in execution-step units:
/// step 0 is the input stream, step `i + 1` is instruction `i`, and the
/// final step is the output assembly.
fn lifetime(p: &PlaneRecord) -> (usize, usize) {
    let start = p.born.map_or(0, |b| b.saturating_add(1));
    let end = p.last_use.map_or(start, |l| l.saturating_add(1));
    (start, end.max(start))
}

/// Whether two closed intervals overlap.
fn overlaps(a: (usize, usize), b: (usize, usize)) -> bool {
    a.0 <= b.1 && b.0 <= a.1
}

/// The keyed (one-slot-per-`(buffer, group)`) layout's peak plane bytes:
/// every key holds the maximum shape it ever carries, all keys resident
/// at once — the executor's fallback layout when no plan is licensed.
pub fn keyed_peak_bytes(planes: &[PlaneRecord]) -> usize {
    let mut peak: HashMap<FeatLoc, usize> = HashMap::new();
    for p in planes {
        let e = peak.entry(p.loc).or_insert(0);
        *e = (*e).max(plane_bytes(p));
    }
    peak.values().sum()
}

/// A proven coalesced memory layout: every plane of the verifier's table
/// assigned to a physical slot such that no two simultaneously-live
/// planes share one. Serializable, so a deployment can ship the layout
/// alongside the program.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryPlan {
    /// Slot index per plane, parallel to [`VerifyReport::planes`] (and to
    /// the simulator's `BlockPlan::planes`, which cross-checks against
    /// it).
    pub plane_slots: Vec<usize>,
    /// Per-slot maximum bytes over every plane assigned to it — the
    /// capacity an arena must provision per slot.
    pub slot_bytes: Vec<usize>,
    /// Proven peak plane bytes of the coalesced layout: the sum of
    /// [`MemoryPlan::slot_bytes`].
    pub peak_bytes: usize,
    /// Peak plane bytes of the keyed fallback layout, for comparison.
    pub keyed_bytes: usize,
}

impl MemoryPlan {
    /// Builds the coalesced layout from a verification report.
    ///
    /// Returns `None` when the report carries hard errors: an unverified
    /// program gets no sharing proof, and the executor falls back to the
    /// keyed one-slot-per-plane layout (mirroring the narrow-accumulation
    /// license).
    pub fn build(report: &VerifyReport) -> Option<MemoryPlan> {
        if report.has_errors() {
            return None;
        }
        let planes = &report.planes;
        let mut plane_slots = Vec::with_capacity(planes.len());
        let mut slot_bytes: Vec<usize> = Vec::new();
        // Per-slot list of lifetimes already assigned to it.
        let mut slot_lives: Vec<Vec<(usize, usize)>> = Vec::new();
        for p in planes {
            let life = lifetime(p);
            let bytes = plane_bytes(p);
            let slot = slot_lives
                .iter()
                .position(|lives| lives.iter().all(|&l| !overlaps(l, life)))
                .unwrap_or_else(|| {
                    slot_lives.push(Vec::new());
                    slot_bytes.push(0);
                    slot_lives.len().saturating_sub(1)
                });
            slot_lives[slot].push(life);
            slot_bytes[slot] = slot_bytes[slot].max(bytes);
            plane_slots.push(slot);
        }
        let peak_bytes = slot_bytes.iter().fold(0usize, |a, &b| a.saturating_add(b));
        Some(MemoryPlan {
            plane_slots,
            slot_bytes,
            peak_bytes,
            keyed_bytes: keyed_peak_bytes(planes),
        })
    }

    /// Number of physical slots the layout uses.
    pub fn slots(&self) -> usize {
        self.slot_bytes.len()
    }

    /// Bytes saved versus the keyed layout, in permille (integer math,
    /// stable for snapshot output). `0` when the keyed layout is empty.
    pub fn saved_permille(&self) -> u64 {
        let saved = self.keyed_bytes.saturating_sub(self.peak_bytes) as u64;
        saved
            .saturating_mul(1000)
            .checked_div(self.keyed_bytes as u64)
            .unwrap_or(0)
    }
}

/// Exact static work/traffic counts of one instruction, in the
/// executor's counter units (MAC events; *traffic counters charge
/// elements*, matching `ExecStats`' historically named byte fields).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstrCost {
    /// LCONV3×3 multiply-accumulates.
    pub mac3: u64,
    /// LCONV1×1 multiply-accumulates.
    pub mac1: u64,
    /// Block-buffer read traffic (source gathers and `srcS` reads).
    pub bb_read_bytes: u64,
    /// Block-buffer write traffic (destination stores).
    pub bb_write_bytes: u64,
    /// `DO`-stream traffic (logical channels only).
    pub do_bytes: u64,
}

/// The program's static cost model: per-instruction and summed work /
/// traffic counts plus both memory layouts' peak bytes. Totals must
/// equal the observed `ExecStats::work` counters of one block execution
/// exactly.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostReport {
    /// One cost record per instruction, in program order.
    pub per_instr: Vec<InstrCost>,
    /// Total LCONV3×3 MACs per block.
    pub mac3: u64,
    /// Total LCONV1×1 MACs per block.
    pub mac1: u64,
    /// Total block-buffer read traffic per block.
    pub bb_read_bytes: u64,
    /// Total block-buffer write traffic per block.
    pub bb_write_bytes: u64,
    /// `DI`-stream traffic per block (logical input channels).
    pub di_bytes: u64,
    /// Total `DO`-stream traffic per block.
    pub do_bytes: u64,
    /// Instructions executed per block.
    pub instructions: u64,
    /// Peak plane bytes of the keyed fallback layout.
    pub keyed_peak_bytes: usize,
    /// The coalesced layout, when verification licensed one.
    pub memory: Option<MemoryPlan>,
}

impl CostReport {
    /// Total multiply-accumulates per block across both engines.
    pub fn block_macs(&self) -> u64 {
        self.mac3.saturating_add(self.mac1)
    }

    /// Peak plane bytes the executor holds: the coalesced plan's bytes
    /// when one was licensed, the keyed layout's otherwise — the rule
    /// the plan-time executor applies.
    pub fn planned_peak_bytes(&self) -> usize {
        self.memory
            .as_ref()
            .map_or(self.keyed_peak_bytes, |m| m.peak_bytes)
    }
}

/// Computes the static cost model for `program` from the verifier's
/// plane table. The traffic formulas re-derive, per instruction, exactly
/// what the executor charges: every `Bb` source-group and `srcS` read is
/// one full plane of the *currently live* shape at that location, every
/// `Bb` store one full destination plane, and `Do` stores clamp to the
/// logical output channels. MAC counts follow the per-opcode engine
/// sweeps (`CONV`/`UPX2`/`DNX2` one 3×3 pass per leaf grid, `ER` one 3×3
/// expansion per leaf plus the 1×1 reduction, `CONV1` the 1×1 grid).
pub fn cost_model(program: &Program, report: &VerifyReport) -> CostReport {
    let planes = &report.planes;
    let di_planes = planes.iter().take_while(|p| p.born.is_none()).count();
    // Live plane index per location, re-walked in program order (the
    // verifier's own derivation order, so indices line up with `planes`).
    let mut live: HashMap<FeatLoc, usize> = HashMap::new();
    for (g, p) in planes.iter().take(di_planes).enumerate() {
        live.insert(p.loc, g);
    }
    let leaf_sq = (LEAF_CH as u64).saturating_mul(LEAF_CH as u64);
    let mut per_instr = Vec::with_capacity(program.instructions.len());
    for (i, ins) in program.instructions.iter().enumerate() {
        let mut c = InstrCost::default();
        let charge_read = |c: &mut InstrCost, loc: FeatLoc| {
            if let Some(&pi) = live.get(&loc) {
                if matches!(loc, FeatLoc::Bb { .. }) {
                    if let Some(p) = planes.get(pi) {
                        c.bb_read_bytes = c.bb_read_bytes.saturating_add(plane_elems(p));
                    }
                }
            }
        };
        for g in 0..ins.in_groups {
            charge_read(&mut c, ins.src.offset(g));
        }
        if let Some(srcs) = ins.src_s {
            charge_read(&mut c, srcs);
        }
        let (cw, chh) = ins.conv_out_size();
        let grid = (cw as u64).saturating_mul(chh as u64);
        match ins.opcode {
            Opcode::Conv | Opcode::Dnx2 | Opcode::Upx2 => {
                let out_planes = if ins.opcode == Opcode::Upx2 {
                    ins.out_groups
                } else {
                    1
                };
                c.mac3 = (out_planes as u64)
                    .saturating_mul(ins.in_groups as u64)
                    .saturating_mul(leaf_sq)
                    .saturating_mul(9)
                    .saturating_mul(grid);
            }
            Opcode::Er => {
                let leaves = ins.leaf_modules() as u64;
                c.mac3 = leaves
                    .saturating_mul(leaf_sq)
                    .saturating_mul(9)
                    .saturating_mul(grid);
                c.mac1 = leaves.saturating_mul(leaf_sq).saturating_mul(grid);
            }
            Opcode::Conv1 => {
                let side = ins.in_size.0 as u64;
                c.mac1 = (ins.leaf_modules() as u64)
                    .saturating_mul(leaf_sq)
                    .saturating_mul(side)
                    .saturating_mul(side);
            }
        }
        // The destination plane is this instruction's table entry.
        if let Some(p) = planes.get(di_planes.saturating_add(i)) {
            if p.born == Some(i) {
                let elems = plane_elems(p);
                match ins.dst {
                    FeatLoc::Bb { .. } => {
                        c.bb_write_bytes = elems;
                    }
                    FeatLoc::Do { group } => {
                        // Only logical channels leave the chip.
                        let px = (p.height as u64).saturating_mul(p.width as u64);
                        let logical = (LEAF_CH.min(
                            program
                                .do_channels
                                .saturating_sub((group as usize).saturating_mul(LEAF_CH)),
                        ) as u64)
                            .saturating_mul(px);
                        c.do_bytes = elems.min(logical);
                    }
                    FeatLoc::Di { .. } => {}
                }
                live.insert(ins.dst, di_planes.saturating_add(i));
            }
        }
        per_instr.push(c);
    }
    let sum = |f: fn(&InstrCost) -> u64| per_instr.iter().fold(0u64, |a, c| a.saturating_add(f(c)));
    CostReport {
        mac3: sum(|c| c.mac3),
        mac1: sum(|c| c.mac1),
        bb_read_bytes: sum(|c| c.bb_read_bytes),
        bb_write_bytes: sum(|c| c.bb_write_bytes),
        di_bytes: (program.di_channels as u64)
            .saturating_mul(program.di_side as u64)
            .saturating_mul(program.di_side as u64),
        do_bytes: sum(|c| c.do_bytes),
        instructions: program.instructions.len() as u64,
        keyed_peak_bytes: keyed_peak_bytes(planes),
        memory: MemoryPlan::build(report),
        per_instr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{DiagCode, Diagnostic, Severity};

    fn rec(loc: FeatLoc, side: usize, born: Option<usize>, last_use: Option<usize>) -> PlaneRecord {
        PlaneRecord {
            loc,
            channels: LEAF_CH,
            height: side,
            width: side,
            born,
            last_use,
        }
    }

    fn bb(id: u8, group: u8) -> FeatLoc {
        FeatLoc::Bb { id, group }
    }

    fn report_with(planes: Vec<PlaneRecord>) -> VerifyReport {
        VerifyReport {
            diagnostics: Vec::new(),
            planes,
            ranges: Vec::new(),
        }
    }

    #[test]
    fn disjoint_lifetimes_share_a_slot() {
        // DI dies at instr 0; the instr-1 plane can reuse its slot.
        let rpt = report_with(vec![
            rec(FeatLoc::Di { group: 0 }, 16, None, Some(0)),
            rec(bb(0, 0), 14, Some(0), Some(1)),
            rec(bb(1, 0), 12, Some(1), Some(2)),
        ]);
        let plan = MemoryPlan::build(&rpt).unwrap();
        // DI [0,1] and bb(0,0) [1,2] overlap at 1; bb(1,0) [2,3] reuses
        // the DI slot.
        assert_eq!(plan.plane_slots, vec![0, 1, 0]);
        assert_eq!(plan.slots(), 2);
        let di_bytes = LEAF_CH * 16 * 16 * 2;
        let mid_bytes = LEAF_CH * 14 * 14 * 2;
        assert_eq!(plan.peak_bytes, di_bytes + mid_bytes);
        assert_eq!(
            plan.keyed_bytes,
            di_bytes + mid_bytes + LEAF_CH * 12 * 12 * 2
        );
        assert!(plan.saved_permille() > 0);
    }

    #[test]
    fn overlapping_lifetimes_never_share() {
        // Three planes all live across instrs 0..=3: pairwise interference
        // forces three slots.
        let rpt = report_with(vec![
            rec(bb(0, 0), 10, Some(0), Some(3)),
            rec(bb(1, 0), 10, Some(1), Some(3)),
            rec(bb(2, 0), 10, Some(2), Some(3)),
        ]);
        let plan = MemoryPlan::build(&rpt).unwrap();
        assert_eq!(plan.plane_slots, vec![0, 1, 2]);
        assert_eq!(plan.peak_bytes, plan.keyed_bytes);
        assert_eq!(plan.saved_permille(), 0);
    }

    #[test]
    fn same_step_handoff_is_conservative() {
        // A dies at instr 1, B is born at instr 1: closed intervals touch,
        // so they must not share (intra-instruction ordering is not part
        // of the proof).
        let rpt = report_with(vec![
            rec(bb(0, 0), 10, Some(0), Some(1)),
            rec(bb(0, 1), 10, Some(1), Some(2)),
        ]);
        let plan = MemoryPlan::build(&rpt).unwrap();
        assert_ne!(plan.plane_slots[0], plan.plane_slots[1]);
    }

    #[test]
    fn erroneous_report_licenses_no_plan() {
        let mut rpt = report_with(vec![rec(bb(0, 0), 10, Some(0), Some(1))]);
        rpt.diagnostics.push(Diagnostic {
            code: DiagCode::AliasHazard,
            severity: Severity::Error,
            instr: Some(1),
            detail: "forged".into(),
        });
        assert_eq!(MemoryPlan::build(&rpt), None);
    }

    #[test]
    fn unread_plane_occupies_only_its_birth_step() {
        let rpt = report_with(vec![
            rec(bb(0, 0), 10, Some(0), None),
            rec(bb(1, 0), 10, Some(1), Some(2)),
        ]);
        let plan = MemoryPlan::build(&rpt).unwrap();
        // [1,1] and [2,3] are disjoint: one slot.
        assert_eq!(plan.plane_slots, vec![0, 0]);
    }
}
