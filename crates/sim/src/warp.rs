//! Per-warp architectural state: 32 lanes of registers and predicates,
//! the active/exited masks, and the SIMT divergence stack.

use crate::WARP_SIZE;
use fpx_sass::operand::{PredReg, Reg, PT, RZ};
use fpx_sass::types::pair_to_f64_bits;

/// Registers and predicates for the 32 lanes of one warp.
///
/// This is the state instrumentation callbacks can read and write; GPU-FPX
/// reads destination/source register values from here exactly as the real
/// tool reads them from the register file via NVBit.
pub struct WarpLanes {
    /// `regs[r * WARP_SIZE + lane]` — raw 32-bit register contents,
    /// **register-major** (SoA): the 32 lanes of one register are
    /// contiguous, so whole-warp class checks ([`reg_row`]) run as
    /// straight-line bit tests over one cache line instead of a strided
    /// gather.
    ///
    /// [`reg_row`]: WarpLanes::reg_row
    regs: Vec<u32>,
    /// Predicate registers P0–P6 per lane, bit-packed.
    preds: [u8; WARP_SIZE as usize],
    num_regs: u32,
}

/// The row every `RZ` read resolves to: 32 lanes of architectural zero.
static RZ_ROW: [u32; WARP_SIZE as usize] = [0u32; WARP_SIZE as usize];

impl WarpLanes {
    pub fn new(num_regs: u16) -> Self {
        // +1 head-room so FP64 pairs touching `highest+1` stay in bounds.
        let num_regs = (num_regs as u32).max(8) + 2;
        WarpLanes {
            regs: vec![0u32; (num_regs * WARP_SIZE) as usize],
            preds: [0u8; WARP_SIZE as usize],
            num_regs,
        }
    }

    /// Number of allocated registers per lane.
    #[inline]
    pub fn num_regs(&self) -> u32 {
        self.num_regs
    }

    /// Read a general-purpose register; `RZ` reads as zero.
    #[inline]
    pub fn reg(&self, lane: u32, r: Reg) -> u32 {
        if r == RZ {
            return 0;
        }
        debug_assert!((r as u32) < self.num_regs, "R{r} out of range");
        self.regs[(r as u32 * WARP_SIZE + lane) as usize]
    }

    /// Write a general-purpose register; writes to `RZ` are discarded.
    #[inline]
    pub fn set_reg(&mut self, lane: u32, r: Reg, v: u32) {
        if r == RZ {
            return;
        }
        debug_assert!((r as u32) < self.num_regs, "R{r} out of range");
        self.regs[(r as u32 * WARP_SIZE + lane) as usize] = v;
    }

    /// All 32 lanes of register `r`, contiguous (the SoA row). `RZ`
    /// resolves to a shared all-zero row, so callers never branch on it.
    ///
    /// This is the hot-path entry point for the branchless whole-warp
    /// class checks (`fpx_sass::types::row_class_masks_f32` etc.): the
    /// detector and analyzer scan one row per operand instead of 32
    /// strided `reg()` calls.
    #[inline]
    pub fn reg_row(&self, r: Reg) -> &[u32; WARP_SIZE as usize] {
        if r == RZ {
            return &RZ_ROW;
        }
        debug_assert!((r as u32) < self.num_regs, "R{r} out of range");
        let base = (r as u32 * WARP_SIZE) as usize;
        self.regs[base..base + WARP_SIZE as usize]
            .try_into()
            .expect("SoA row is exactly WARP_SIZE wide")
    }

    /// Overwrite all 32 lanes of register `r` with one row; writes to
    /// `RZ` are discarded, as in [`set_reg`](WarpLanes::set_reg).
    #[inline]
    pub fn set_reg_row(&mut self, r: Reg, row: &[u32; WARP_SIZE as usize]) {
        if r == RZ {
            return;
        }
        debug_assert!((r as u32) < self.num_regs, "R{r} out of range");
        let base = (r as u32 * WARP_SIZE) as usize;
        self.regs[base..base + WARP_SIZE as usize].copy_from_slice(row);
    }

    /// Re-initialize for a (possibly different) register count, zeroing
    /// all state but keeping the backing allocation when it is large
    /// enough. This is how the per-block arena recycles lane state across
    /// blocks and launches without hitting the allocator.
    pub fn reset(&mut self, num_regs: u16) {
        let num_regs = (num_regs as u32).max(8) + 2;
        self.num_regs = num_regs;
        self.regs.clear();
        self.regs.resize((num_regs * WARP_SIZE) as usize, 0);
        self.preds.fill(0);
    }

    /// Read the FP64 register pair `(r, r+1)` as raw bits (§2.2 pairing).
    #[inline]
    pub fn reg_pair(&self, lane: u32, r: Reg) -> u64 {
        if r == RZ {
            return 0;
        }
        pair_to_f64_bits(self.reg(lane, r), self.reg(lane, r + 1))
    }

    /// Write the FP64 register pair `(r, r+1)`.
    #[inline]
    pub fn set_reg_pair(&mut self, lane: u32, r: Reg, bits: u64) {
        if r == RZ {
            return;
        }
        self.set_reg(lane, r, bits as u32);
        self.set_reg(lane, r + 1, (bits >> 32) as u32);
    }

    /// Read a predicate register; `PT` reads as true.
    #[inline]
    pub fn pred(&self, lane: u32, p: PredReg) -> bool {
        if p == PT {
            return true;
        }
        self.preds[lane as usize] & (1 << p) != 0
    }

    /// Write a predicate register; writes to `PT` are discarded.
    #[inline]
    pub fn set_pred(&mut self, lane: u32, p: PredReg, v: bool) {
        if p == PT {
            return;
        }
        if v {
            self.preds[lane as usize] |= 1 << p;
        } else {
            self.preds[lane as usize] &= !(1 << p);
        }
    }
}

/// One entry of the SIMT reconvergence stack, created by `SSY`.
#[derive(Debug, Clone)]
pub struct SyncFrame {
    /// PC of the reconvergence point (where `SYNC` sits).
    pub reconv: u32,
    /// Mask of lanes active when the frame was pushed; restored on merge.
    pub mask: u32,
    /// Deferred divergent paths `(pc, mask)` awaiting execution.
    pub pending: Vec<(u32, u32)>,
}

/// Warp control state: current PC, active mask, exited lanes, and the
/// divergence stack.
#[derive(Debug, Clone)]
pub struct WarpControl {
    pub pc: u32,
    /// Lanes executing the current path.
    pub mask: u32,
    /// Lanes that executed `EXIT`.
    pub exited: u32,
    pub stack: Vec<SyncFrame>,
}

impl WarpControl {
    pub fn new(active_lanes: u32) -> Self {
        let mask = if active_lanes >= WARP_SIZE {
            u32::MAX
        } else {
            (1u32 << active_lanes) - 1
        };
        WarpControl {
            pc: 0,
            mask,
            exited: 0,
            stack: Vec::new(),
        }
    }

    /// Lanes that will execute the next instruction.
    #[inline]
    pub fn exec_mask(&self) -> u32 {
        self.mask & !self.exited
    }

    /// True once every launched lane has exited.
    #[inline]
    pub fn all_exited(&self, launched: u32) -> bool {
        self.exited & launched == launched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rz_reads_zero_and_swallows_writes() {
        let mut l = WarpLanes::new(16);
        l.set_reg(0, RZ, 0xdead_beef);
        assert_eq!(l.reg(0, RZ), 0);
        assert_eq!(l.reg_pair(0, RZ), 0);
    }

    #[test]
    fn pt_reads_true_and_swallows_writes() {
        let mut l = WarpLanes::new(16);
        assert!(l.pred(5, PT));
        l.set_pred(5, PT, false);
        assert!(l.pred(5, PT));
        l.set_pred(5, 3, true);
        assert!(l.pred(5, 3));
        assert!(!l.pred(4, 3), "predicates are per-lane");
    }

    #[test]
    fn fp64_pairing_is_little_endian_lo_hi() {
        let mut l = WarpLanes::new(16);
        let x = (-3.75e77f64).to_bits();
        l.set_reg_pair(7, 4, x);
        assert_eq!(l.reg(7, 4), x as u32, "Rd holds the low word");
        assert_eq!(l.reg(7, 5), (x >> 32) as u32, "Rd+1 holds the high word");
        assert_eq!(l.reg_pair(7, 4), x);
    }

    #[test]
    fn lanes_are_independent() {
        let mut l = WarpLanes::new(8);
        for lane in 0..WARP_SIZE {
            l.set_reg(lane, 3, lane * 10);
        }
        for lane in 0..WARP_SIZE {
            assert_eq!(l.reg(lane, 3), lane * 10);
        }
    }

    #[test]
    fn reg_row_is_lane_indexed_and_rz_is_zero() {
        let mut l = WarpLanes::new(8);
        for lane in 0..WARP_SIZE {
            l.set_reg(lane, 5, 0x100 + lane);
        }
        let row = l.reg_row(5);
        for (lane, &v) in row.iter().enumerate() {
            assert_eq!(v, 0x100 + lane as u32);
        }
        assert!(l.reg_row(RZ).iter().all(|&v| v == 0));
    }

    #[test]
    fn set_reg_row_writes_every_lane_and_rz_swallows_it() {
        let mut l = WarpLanes::new(8);
        let row: [u32; WARP_SIZE as usize] = std::array::from_fn(|lane| 0x200 + lane as u32);
        l.set_reg_row(6, &row);
        for lane in 0..WARP_SIZE {
            assert_eq!(l.reg(lane, 6), 0x200 + lane);
        }
        l.set_reg_row(RZ, &row);
        assert!(l.reg_row(RZ).iter().all(|&v| v == 0));
    }

    #[test]
    fn reset_recycles_allocation_and_zeroes_state() {
        let mut l = WarpLanes::new(32);
        l.set_reg(3, 7, 42);
        l.set_pred(3, 2, true);
        l.reset(8);
        assert_eq!(l.num_regs(), 10, "8.max(8) + 2 head-room");
        assert_eq!(l.reg(3, 7), 0);
        assert!(!l.pred(3, 2));
        // Growing again after a shrink must stay in bounds.
        l.reset(64);
        l.set_reg(31, 63, 1);
        assert_eq!(l.reg(31, 63), 1);
    }

    #[test]
    fn control_partial_warp_mask() {
        let c = WarpControl::new(5);
        assert_eq!(c.exec_mask(), 0b11111);
        let full = WarpControl::new(32);
        assert_eq!(full.exec_mask(), u32::MAX);
    }
}
