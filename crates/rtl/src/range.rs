//! Value-range and granularity analysis: which full-adder cells of each
//! adder are *active*.
//!
//! The paper's designs are conservatively scaled: a worst-case (L1-norm)
//! bound guarantees no adder can overflow, and the bound also reveals
//! *redundant sign bits* — cell positions above the value range's MSB
//! where every bit always equals the sign. "The use of scaling techniques
//! to identify and remove redundant sign bits is the first step towards
//! obtaining a testable design" (paper Section 3); this module performs
//! that identification with interval arithmetic over the netlist, plus a
//! known-zero-LSB (granularity) analysis that finds cells whose inputs
//! are hardwired zero (e.g. below the shortest shift feeding a CSD tap).
//!
//! Only *active* cells enter the fault universe in `bist-faultsim`;
//! the excess headroom that remains — ranges much wider than typical
//! signal excursions — is exactly where the paper's difficult faults
//! live.

use crate::node::{NodeId, NodeKind};
use crate::Netlist;

/// Interval plus granularity information for one node's raw word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRange {
    /// Smallest reachable raw value.
    pub lo: i64,
    /// Largest reachable raw value.
    pub hi: i64,
    /// Number of low bits that are always zero.
    pub zero_lsbs: u32,
}

impl NodeRange {
    /// Joins two ranges (interval union, granularity minimum).
    fn join(self, other: NodeRange) -> NodeRange {
        NodeRange {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            zero_lsbs: self.zero_lsbs.min(other.zero_lsbs),
        }
    }

    /// Index of the highest cell that can differ from pure sign
    /// extension: the smallest `n` with `-2^n <= lo` and `hi < 2^n`.
    pub fn msb_cell(self) -> u32 {
        let mut n = 0u32;
        while self.lo < -(1i64 << n) || self.hi >= (1i64 << n) {
            n += 1;
            if n >= 63 {
                break;
            }
        }
        n
    }
}

/// Results of the range analysis over a whole netlist.
#[derive(Debug, Clone)]
pub struct RangeAnalysis {
    ranges: Vec<NodeRange>,
    width: u32,
}

impl RangeAnalysis {
    /// Runs the analysis. `input_range` describes every input port
    /// (the paper's designs: a 12-bit word left-aligned in the 16-bit
    /// datapath gives `lo = -2048 << 4`, `hi = 2047 << 4`,
    /// `zero_lsbs = 4`).
    ///
    /// Interval arithmetic is iterated to a fixpoint (register chains
    /// need one pass per pipeline stage); an iteration cap widens any
    /// non-converged node — e.g. inside an unstable feedback loop — to
    /// the full word range.
    pub fn analyze(netlist: &Netlist, input_range: NodeRange) -> RangeAnalysis {
        let width = netlist.width();
        let full =
            NodeRange { lo: -(1i64 << (width - 1)), hi: (1i64 << (width - 1)) - 1, zero_lsbs: 0 };
        let n = netlist.nodes().len();
        let mut ranges: Vec<Option<NodeRange>> = vec![None; n];

        // Registers start at their reset value (zero) so their range must
        // include 0 from the first cycle.
        let zero = NodeRange { lo: 0, hi: 0, zero_lsbs: width };

        let max_iters = 2 * netlist.register_indices().len() + 4;
        for _ in 0..max_iters {
            let mut changed = false;
            for &idx in netlist.eval_order() {
                let node = &netlist.nodes()[idx as usize];
                let computed = match node.kind {
                    NodeKind::Input => Some(input_range),
                    NodeKind::Const { raw } => Some(NodeRange {
                        lo: raw,
                        hi: raw,
                        zero_lsbs: if raw == 0 { width } else { raw.trailing_zeros().min(width) },
                    }),
                    NodeKind::Register { src } => {
                        Some(ranges[src.index()].map_or(zero, |r| r.join(zero)))
                    }
                    NodeKind::Output { src } => ranges[src.index()],
                    NodeKind::ShiftRight { src, amount } => {
                        ranges[src.index()].map(|r| NodeRange {
                            lo: r.lo >> amount.min(62),
                            hi: r.hi >> amount.min(62),
                            zero_lsbs: r.zero_lsbs.saturating_sub(amount),
                        })
                    }
                    NodeKind::Add { a, b } => {
                        combine(ranges[a.index()], ranges[b.index()], full, |x, y| {
                            (x.lo + y.lo, x.hi + y.hi)
                        })
                    }
                    NodeKind::Sub { a, b } => {
                        combine(ranges[a.index()], ranges[b.index()], full, |x, y| {
                            (x.lo - y.hi, x.hi - y.lo)
                        })
                    }
                    NodeKind::Not { src } => ranges[src.index()].map(|r| NodeRange {
                        lo: -r.hi - 1,
                        hi: -r.lo - 1,
                        zero_lsbs: 0,
                    }),
                    NodeKind::SetLsb { src } => ranges[src.index()].map(|r| NodeRange {
                        lo: r.lo,
                        hi: (r.hi + 1).min(full.hi),
                        zero_lsbs: 0,
                    }),
                    // Carry-save outputs are bitwise functions: only the
                    // granularity transfers; the value range is the full
                    // word (conservative).
                    NodeKind::CsaSum { a, b, c } => {
                        let g = [a, b, c]
                            .iter()
                            .filter_map(|op| ranges[op.index()].map(|r| r.zero_lsbs))
                            .min()
                            .unwrap_or(0);
                        Some(NodeRange { lo: full.lo, hi: full.hi, zero_lsbs: g })
                    }
                    NodeKind::CsaCarry { a, b, c, .. } => {
                        let g = [a, b, c]
                            .iter()
                            .filter_map(|op| ranges[op.index()].map(|r| r.zero_lsbs))
                            .min()
                            .unwrap_or(0);
                        Some(NodeRange { lo: full.lo, hi: full.hi, zero_lsbs: (g + 1).min(width) })
                    }
                };
                // Registers need their own pass ordering: evaluate after
                // the main loop below. Here registers read the current
                // estimate, which is fine for monotone iteration.
                if let Some(new) = computed {
                    let joined = ranges[idx as usize].map_or(new, |old| old.join(new));
                    if ranges[idx as usize] != Some(joined) {
                        ranges[idx as usize] = Some(joined);
                        changed = true;
                    }
                }
            }
            // Also propagate register sources (registers are not in
            // dependency order in eval_order).
            for &idx in netlist.register_indices() {
                if let NodeKind::Register { src } = netlist.nodes()[idx as usize].kind {
                    let new = ranges[src.index()].map_or(zero, |r| r.join(zero));
                    let joined = ranges[idx as usize].map_or(new, |old| old.join(new));
                    if ranges[idx as usize] != Some(joined) {
                        ranges[idx as usize] = Some(joined);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let ranges: Vec<NodeRange> =
            ranges.into_iter().map(|r| clamp(r.unwrap_or(full), full)).collect();
        RangeAnalysis { ranges, width }
    }

    /// The computed range of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn range(&self, id: NodeId) -> NodeRange {
        self.ranges[id.index()]
    }

    /// Replaces a node's range with its intersection with `[lo, hi]`.
    ///
    /// This encodes an *assumed* (e.g. statistical) bound tighter than
    /// the worst case — the paper's "more aggressive scaling
    /// techniques". The caller takes responsibility for the assumption:
    /// hardware trimmed to a tightened range misbehaves if the signal
    /// ever exceeds it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `lo > hi`.
    pub fn tighten(&mut self, id: NodeId, lo: i64, hi: i64) {
        assert!(lo <= hi, "empty tightening interval");
        let r = &mut self.ranges[id.index()];
        r.lo = r.lo.max(lo);
        r.hi = r.hi.min(hi);
        if r.lo > r.hi {
            // Keep at least one representable point to stay well-formed.
            r.lo = r.hi;
        }
    }

    /// The active full-adder cell span `(lsb, msb)` of an arithmetic
    /// node, or `None` for non-arithmetic nodes or fully degenerate
    /// (constant-zero) adders. Cells outside the span are redundant sign
    /// positions (above) or hardwired-zero positions (below).
    pub fn active_span(&self, netlist: &Netlist, id: NodeId) -> Option<(u32, u32)> {
        let node = netlist.node(id);
        let (a, b) = match node.kind {
            NodeKind::Add { a, b } | NodeKind::Sub { a, b } => (a, b),
            NodeKind::CsaSum { a, b, c } => {
                // A carry-save stage has one full-adder cell per bit;
                // cells above every operand's MSB all see the three sign
                // bits, so one representative sign cell is kept.
                let (ra, rb, rc) =
                    (self.ranges[a.index()], self.ranges[b.index()], self.ranges[c.index()]);
                let lsb = ra.zero_lsbs.min(rb.zero_lsbs).min(rc.zero_lsbs);
                let msb =
                    (ra.msb_cell().max(rb.msb_cell()).max(rc.msb_cell()) + 1).min(self.width - 1);
                return if lsb > msb { None } else { Some((lsb, msb)) };
            }
            _ => return None,
        };
        let ra = self.ranges[a.index()];
        let rb = self.ranges[b.index()];
        let rout = self.ranges[id.index()];
        let lsb = ra.zero_lsbs.min(rb.zero_lsbs);
        let msb = rout.msb_cell().max(ra.msb_cell()).max(rb.msb_cell()).min(self.width - 1);
        if lsb > msb {
            return None;
        }
        Some((lsb, msb))
    }

    /// Value range of a node in fractional units (`raw * 2^-(width-1)`).
    pub fn value_range(&self, id: NodeId) -> (f64, f64) {
        let r = self.ranges[id.index()];
        let lsb = 2f64.powi(-((self.width - 1) as i32));
        (r.lo as f64 * lsb, r.hi as f64 * lsb)
    }

    /// Headroom of a node in bits: how many cells sit above the value
    /// range's MSB — the paper's "redundant sign bits".
    pub fn headroom_bits(&self, id: NodeId) -> u32 {
        self.width - 1 - self.ranges[id.index()].msb_cell().min(self.width - 1)
    }
}

fn combine(
    a: Option<NodeRange>,
    b: Option<NodeRange>,
    full: NodeRange,
    f: impl Fn(NodeRange, NodeRange) -> (i64, i64),
) -> Option<NodeRange> {
    let (a, b) = (a?, b?);
    let (lo, hi) = f(a, b);
    let zero_lsbs = a.zero_lsbs.min(b.zero_lsbs);
    if lo < full.lo || hi > full.hi {
        // Overflow is representationally possible: the wrapped result can
        // be anywhere in the word.
        Some(NodeRange { lo: full.lo, hi: full.hi, zero_lsbs })
    } else {
        Some(NodeRange { lo, hi, zero_lsbs })
    }
}

fn clamp(r: NodeRange, full: NodeRange) -> NodeRange {
    NodeRange { lo: r.lo.max(full.lo), hi: r.hi.min(full.hi), zero_lsbs: r.zero_lsbs }
}

/// The input range of a `bits`-wide input left-aligned into a `width`
/// datapath (the paper's 12-bit input in a 16-bit path).
///
/// # Panics
///
/// Panics if `bits > width` or `bits == 0`.
pub fn aligned_input_range(bits: u32, width: u32) -> NodeRange {
    assert!(bits > 0 && bits <= width, "input bits must fit the datapath");
    let shift = width - bits;
    NodeRange {
        lo: -(1i64 << (bits - 1)) << shift,
        hi: ((1i64 << (bits - 1)) - 1) << shift,
        zero_lsbs: shift,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    #[test]
    fn msb_cell_examples() {
        assert_eq!(NodeRange { lo: 0, hi: 0, zero_lsbs: 0 }.msb_cell(), 0);
        assert_eq!(NodeRange { lo: -1, hi: 0, zero_lsbs: 0 }.msb_cell(), 0);
        assert_eq!(NodeRange { lo: -2, hi: 1, zero_lsbs: 0 }.msb_cell(), 1);
        assert_eq!(NodeRange { lo: 0, hi: 9830, zero_lsbs: 0 }.msb_cell(), 14);
        assert_eq!(NodeRange { lo: -32768, hi: 32767, zero_lsbs: 0 }.msb_cell(), 15);
    }

    #[test]
    fn aligned_input_matches_paper_designs() {
        let r = aligned_input_range(12, 16);
        assert_eq!(r.lo, -2048 << 4);
        assert_eq!(r.hi, 2047 << 4);
        assert_eq!(r.zero_lsbs, 4);
    }

    #[test]
    fn shift_narrows_range_and_consumes_granularity() {
        let mut b = NetlistBuilder::new(16).unwrap();
        let x = b.input("x");
        let s = b.shift_right(x, 2);
        b.output(s, "y");
        let n = b.finish().unwrap();
        let ra = RangeAnalysis::analyze(&n, aligned_input_range(12, 16));
        let r = ra.range(crate::NodeId(1));
        assert_eq!(r.lo, (-2048 << 4) >> 2);
        assert_eq!(r.hi, (2047 << 4) >> 2);
        assert_eq!(r.zero_lsbs, 2);
    }

    #[test]
    fn adder_of_shifted_terms_has_trimmed_span() {
        // x>>3 + x>>7: |result| < 2^15 (2^-3 + 2^-7) -> msb cell 12,
        // active lsb = 0 (x>>7 exhausts the 4 zero LSBs and more).
        let mut b = NetlistBuilder::new(16).unwrap();
        let x = b.input("x");
        let s3 = b.shift_right(x, 3);
        let s7 = b.shift_right(x, 7);
        let sum = b.add(s3, s7);
        b.output(sum, "y");
        let n = b.finish().unwrap();
        let ra = RangeAnalysis::analyze(&n, aligned_input_range(12, 16));
        let (lsb, msb) = ra.active_span(&n, crate::NodeId(3)).unwrap();
        assert_eq!(lsb, 0);
        // max = 2047*16 (>>3) + 2047*16 (>>7) = 4094 + 255 = 4349 < 2^13.
        assert_eq!(msb, 13);
        assert_eq!(ra.headroom_bits(crate::NodeId(3)), 2);
    }

    #[test]
    fn overflowable_adder_widens_to_full_range() {
        let mut b = NetlistBuilder::new(16).unwrap();
        let x = b.input("x");
        let sum = b.add(x, x); // can exceed the word
        b.output(sum, "y");
        let n = b.finish().unwrap();
        let full_input = NodeRange { lo: -32768, hi: 32767, zero_lsbs: 0 };
        let ra = RangeAnalysis::analyze(&n, full_input);
        let r = ra.range(crate::NodeId(1));
        assert_eq!((r.lo, r.hi), (-32768, 32767));
        assert_eq!(ra.active_span(&n, crate::NodeId(1)), Some((0, 15)));
    }

    #[test]
    fn register_chain_converges() {
        let mut b = NetlistBuilder::new(16).unwrap();
        let x = b.input("x");
        let mut v = x;
        for _ in 0..8 {
            v = b.register(v);
        }
        let s = b.shift_right(v, 1);
        b.output(s, "y");
        let n = b.finish().unwrap();
        let ra = RangeAnalysis::analyze(&n, aligned_input_range(12, 16));
        // The deepest register still carries the input range.
        let r = ra.range(crate::NodeId(8));
        assert_eq!(r.lo, -2048 << 4);
        assert_eq!(r.hi, 2047 << 4);
    }

    #[test]
    fn sub_range_is_difference() {
        let mut b = NetlistBuilder::new(16).unwrap();
        let x = b.input("x");
        let s2 = b.shift_right(x, 2);
        let s4 = b.shift_right(x, 4);
        let d = b.sub(s2, s4);
        b.output(d, "y");
        let n = b.finish().unwrap();
        let ra = RangeAnalysis::analyze(&n, aligned_input_range(12, 16));
        let r = ra.range(crate::NodeId(3));
        assert_eq!(r.lo, ((-2048 << 4) >> 2) - ((2047 << 4) >> 4));
        assert_eq!(r.hi, ((2047 << 4) >> 2) - ((-2048 << 4) >> 4));
    }

    #[test]
    fn non_arithmetic_nodes_have_no_span() {
        let mut b = NetlistBuilder::new(16).unwrap();
        let x = b.input("x");
        b.output(x, "y");
        let n = b.finish().unwrap();
        let ra = RangeAnalysis::analyze(&n, aligned_input_range(12, 16));
        assert_eq!(ra.active_span(&n, crate::NodeId(0)), None);
    }
}
