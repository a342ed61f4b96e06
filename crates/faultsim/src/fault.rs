use rtl::fulladder::{fault_classes_masked, sum_only_fault_classes_masked, FaFault, FaultClass};
use rtl::range::RangeAnalysis;
use rtl::reachability::Reachability;
use rtl::{Netlist, NodeId, NodeKind};
use std::collections::HashMap;
use std::fmt;

/// Index of a fault class within its [`FaultUniverse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultId(pub u32);

impl FaultId {
    /// Position in the universe's site table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One collapsed fault class at a specific full-adder cell of a
/// specific adder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSite {
    /// The adder or subtractor node.
    pub node: NodeId,
    /// Cell (bit) position within the adder.
    pub cell: u32,
    /// Representative stuck-at fault injected during simulation.
    pub representative: FaFault,
    /// Number of collapsed (equivalent) member faults.
    pub members: u32,
    /// Every member of the class, representative included — kept so
    /// structural analyses can reason about individual lines (the
    /// cell-level collapse groups them by *masked* truth table, which
    /// is coarser than exact equivalence).
    pub member_faults: Vec<FaFault>,
    /// Cell-level detecting tests (bitmask over `T0..T7`, see
    /// [`rtl::fulladder::FaultClass`]).
    pub detecting_tests: u8,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[cell {}] {:?} s-a-{}",
            self.node,
            self.cell,
            self.representative.line,
            u8::from(self.representative.stuck_one)
        )
    }
}

/// The collapsed stuck-at fault universe of a netlist.
#[derive(Debug, Clone)]
pub struct FaultUniverse {
    sites: Vec<FaultSite>,
    uncollapsed: usize,
}

impl FaultUniverse {
    /// Enumerates fault classes over every active cell of every
    /// adder/subtractor (the paper's fault model: adder faults only,
    /// registers excluded; redundant sign cells and hardwired-zero cells
    /// removed by the scaling analysis).
    ///
    /// The carry-in of the lowest active cell is constant (0 for an
    /// adder, 1 for a subtractor, from the known-zero low bits), so
    /// faults that are locally redundant under that constraint are
    /// excluded, mirroring the paper's constraint-induced redundancy
    /// elimination.
    pub fn enumerate(netlist: &Netlist, ranges: &RangeAnalysis) -> FaultUniverse {
        Self::build(netlist, ranges, None)
    }

    /// Like [`FaultUniverse::enumerate`], additionally removing faults
    /// that the exact input-cone reachability analysis proves redundant
    /// — the paper's "redundant operator elimination" step, which
    /// matters most inside the CSD multipliers (shifted copies of one
    /// word leave many cell input combinations unreachable).
    pub fn enumerate_pruned(
        netlist: &Netlist,
        ranges: &RangeAnalysis,
        reachability: &Reachability,
    ) -> FaultUniverse {
        Self::build(netlist, ranges, Some(reachability))
    }

    fn build(
        netlist: &Netlist,
        ranges: &RangeAnalysis,
        reachability: Option<&Reachability>,
    ) -> FaultUniverse {
        let mut class_cache: HashMap<(u8, bool), Vec<FaultClass>> = HashMap::new();
        let mut classes_for = |mask: u8, sum_only: bool| -> Vec<FaultClass> {
            class_cache
                .entry((mask, sum_only))
                .or_insert_with(|| {
                    if sum_only {
                        sum_only_fault_classes_masked(mask)
                    } else {
                        fault_classes_masked(mask)
                    }
                })
                .clone()
        };
        let mut sites = Vec::new();
        let mut uncollapsed = 0usize;
        for id in netlist.arithmetic_ids() {
            let Some((lsb, msb)) = ranges.active_span(netlist, id) else {
                continue;
            };
            let is_sub = matches!(netlist.node(id).kind, NodeKind::Sub { .. });
            let is_csa = matches!(netlist.node(id).kind, NodeKind::CsaSum { .. });
            for cell in lsb..=msb {
                let mut mask: u8 = 0xFF;
                // The carry into the lowest active cell of a *ripple*
                // adder is constant (the cells below add zeros — or,
                // for a subtractor, 0 + !0 + 1 which propagates the
                // initial 1). Carry-save cells have no rippling carry.
                if cell == lsb && !is_csa {
                    mask &= if is_sub { 0b1010_1010 } else { 0b0101_0101 };
                }
                mask &= range_combo_mask(netlist, ranges, id, cell);
                if let Some(r) = reachability {
                    mask &= r.combo_mask(id, cell);
                }
                // The netlist's trimmed top cell has no carry logic:
                // its fault universe is the sum-only (XOR-path) set.
                // Carry-save stages are untrimmed; only the word's top
                // cell discards its carry.
                let sum_only =
                    if is_csa { cell == netlist.width() - 1 } else { cell >= netlist.msb_trim(id) };
                for class in classes_for(mask, sum_only) {
                    uncollapsed += class.members.len();
                    sites.push(FaultSite {
                        node: id,
                        cell,
                        representative: class.representative,
                        members: class.members.len() as u32,
                        member_faults: class.members,
                        detecting_tests: class.detecting_tests,
                    });
                }
            }
        }
        FaultUniverse { sites, uncollapsed }
    }

    /// Number of collapsed fault classes.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Total faults before collapsing (comparable to the paper's
    /// Table 1 fault counts).
    pub fn uncollapsed_len(&self) -> usize {
        self.uncollapsed
    }

    /// The fault sites, indexable by [`FaultId::index`].
    pub fn sites(&self) -> &[FaultSite] {
        &self.sites
    }

    /// A site by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn site(&self, id: FaultId) -> &FaultSite {
        &self.sites[id.index()]
    }

    /// All fault ids.
    pub fn ids(&self) -> impl Iterator<Item = FaultId> + '_ {
        (0..self.sites.len() as u32).map(FaultId)
    }

    /// Ids of faults on a given node.
    pub fn ids_on_node(&self, node: NodeId) -> Vec<FaultId> {
        self.ids().filter(|&id| self.site(id).node == node).collect()
    }

    /// A new universe containing only the listed faults, in the listed
    /// order: position `i` of `ids` becomes `FaultId(i)` of the subset.
    /// The caller keeps `ids` to map subset results back to this
    /// universe's ids. Used by the top-off planner, which repeatedly
    /// re-simulates a shrinking residue.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn subset(&self, ids: &[FaultId]) -> FaultUniverse {
        let sites: Vec<FaultSite> = ids.iter().map(|&id| self.site(id).clone()).collect();
        let uncollapsed = sites.iter().map(|s| s.members as usize).sum();
        FaultUniverse { sites, uncollapsed }
    }

    /// The fully uncollapsed universe: one single-member site per raw
    /// member fault, plus a map from each expanded site back to the
    /// index of the class it came from. Raw-universe simulations (the
    /// honest baseline for collapse-speedup measurements) run on this.
    pub fn expanded(&self) -> (FaultUniverse, Vec<u32>) {
        let mut sites = Vec::with_capacity(self.uncollapsed);
        let mut origin = Vec::with_capacity(self.uncollapsed);
        for (idx, site) in self.sites.iter().enumerate() {
            for &fault in &site.member_faults {
                sites.push(FaultSite {
                    node: site.node,
                    cell: site.cell,
                    representative: fault,
                    members: 1,
                    member_faults: vec![fault],
                    detecting_tests: site.detecting_tests,
                });
                origin.push(idx as u32);
            }
        }
        let uncollapsed = sites.len();
        (FaultUniverse { sites, uncollapsed }, origin)
    }
}

/// Combos at `cell` that the value-range analysis proves reachable.
///
/// Three sound constraints, all derived from the interval analysis:
///
/// * Bits below an operand's known-zero LSB count are constant 0.
/// * Bits at or above an operand's range MSB equal the operand's sign,
///   so only achievable signs contribute values.
/// * In the *sign region* of both operands and the sum
///   (`cell >= msb(A), msb(B), msb(S)`), the full-adder identity
///   `sum_bit = a ^ b ^ ci` pins the carry: `ci = sign(A) ^ lineB ^
///   sign(S)`. Because conservative scaling guarantees `|S|` stays
///   within the word, combos like `(0,0,1)` — both operands
///   non-negative yet a carry arriving — are *provably impossible*
///   there. This removes exactly the upper-bit redundancies the paper's
///   testable-design flow eliminates.
fn range_combo_mask(netlist: &Netlist, ranges: &RangeAnalysis, id: NodeId, cell: u32) -> u8 {
    let (a, b, is_sub) = match netlist.node(id).kind {
        NodeKind::Add { a, b } => (a, b, false),
        NodeKind::Sub { a, b } => (a, b, true),
        NodeKind::CsaSum { a, b, c } => {
            // Carry-save cells take three operand bits directly (the
            // "carry-in" is the third operand): the mask is the product
            // of the three per-cell bit marginals.
            return csa_combo_mask(ranges, a, b, c, cell);
        }
        _ => return 0xFF,
    };
    let ra = ranges.range(a);
    let rb = ranges.range(b);
    let rout = ranges.range(id);

    // Possible raw-bit values of one operand at this cell.
    let bit_values = |r: rtl::range::NodeRange| -> Vec<bool> {
        if cell < r.zero_lsbs {
            vec![false]
        } else if cell >= r.msb_cell() {
            let mut v = Vec::new();
            if r.hi >= 0 {
                v.push(false); // non-negative values: sign bit 0
            }
            if r.lo < 0 {
                v.push(true);
            }
            v
        } else {
            vec![false, true]
        }
    };
    let a_vals = bit_values(ra);
    // The cell's B line is inverted for a subtractor.
    let b_vals: Vec<bool> = bit_values(rb).into_iter().map(|v| v ^ is_sub).collect();

    let sign_region = cell >= ra.msb_cell() && cell >= rb.msb_cell() && cell >= rout.msb_cell();

    let mut mask = 0u8;
    for &av in &a_vals {
        for &bv in &b_vals {
            if sign_region {
                // Operand signs: undo the subtractor inversion on B.
                let sgn_a = av;
                let sgn_b = bv ^ is_sub;
                // Achievable sum signs for this operand-sign pair,
                // treating the operands as independent (conservative:
                // can only keep extra combos, never drop real ones).
                let (a_lo, a_hi) = clamp_sign(ra, sgn_a);
                let (b_lo, b_hi) = clamp_sign(rb, sgn_b);
                if a_lo > a_hi || b_lo > b_hi {
                    continue;
                }
                let (s_lo, s_hi) =
                    if is_sub { (a_lo - b_hi, a_hi - b_lo) } else { (a_lo + b_lo, a_hi + b_hi) };
                // If the exact sum can exceed the cell's capacity the
                // stored sign wraps, so both signs become possible.
                let capacity = 1i64 << cell.min(62);
                let wraps = s_lo < -capacity || s_hi >= capacity;
                let mut sum_signs = Vec::new();
                if wraps || s_hi >= 0 {
                    sum_signs.push(false);
                }
                if wraps || s_lo < 0 {
                    sum_signs.push(true);
                }
                for sgn_s in sum_signs {
                    // sum_bit = a ^ b_line ^ ci  =>  ci = a ^ b_line ^ sum_bit.
                    let ci = av ^ bv ^ sgn_s;
                    mask |= 1 << ((u8::from(av) << 2) | (u8::from(bv) << 1) | u8::from(ci));
                }
            } else {
                // Carry unconstrained.
                for ci in [false, true] {
                    mask |= 1 << ((u8::from(av) << 2) | (u8::from(bv) << 1) | u8::from(ci));
                }
            }
        }
    }
    mask
}

/// Reachable combos of a carry-save cell from the three operands'
/// per-cell bit marginals.
fn csa_combo_mask(ranges: &RangeAnalysis, a: NodeId, b: NodeId, c: NodeId, cell: u32) -> u8 {
    let bit_values = |id: NodeId| -> Vec<bool> {
        let r = ranges.range(id);
        if cell < r.zero_lsbs {
            vec![false]
        } else if cell >= r.msb_cell() {
            let mut v = Vec::new();
            if r.hi >= 0 {
                v.push(false);
            }
            if r.lo < 0 {
                v.push(true);
            }
            v
        } else {
            vec![false, true]
        }
    };
    let mut mask = 0u8;
    for &av in &bit_values(a) {
        for &bv in &bit_values(b) {
            for &cv in &bit_values(c) {
                mask |= 1 << ((u8::from(av) << 2) | (u8::from(bv) << 1) | u8::from(cv));
            }
        }
    }
    mask
}

/// Restricts a range to one sign; returns an empty interval when the
/// sign is unachievable.
fn clamp_sign(r: rtl::range::NodeRange, negative: bool) -> (i64, i64) {
    if negative {
        (r.lo, r.hi.min(-1))
    } else {
        (r.lo.max(0), r.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl::range::aligned_input_range;
    use rtl::NetlistBuilder;

    fn simple() -> Netlist {
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let s1 = b.shift_right(x, 1);
        let s2 = b.shift_right(d, 2);
        let y = b.add_labeled(s1, s2, "acc");
        b.output(y, "y");
        b.finish().unwrap()
    }

    #[test]
    fn universe_covers_active_cells_only() {
        let n = simple();
        let ranges = RangeAnalysis::analyze(&n, aligned_input_range(8, 8));
        let u = FaultUniverse::enumerate(&n, &ranges);
        assert!(!u.is_empty());
        let acc = n.find_label("acc").unwrap();
        let (lsb, msb) = ranges.active_span(&n, acc).unwrap();
        for site in u.sites() {
            assert_eq!(site.node, acc);
            assert!(site.cell >= lsb && site.cell <= msb);
        }
        assert!(u.uncollapsed_len() > u.len());
    }

    #[test]
    fn subtractors_get_ci_one_lsb_constraint() {
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let y = b.sub_labeled(x, d, "diff");
        b.output(y, "y");
        let n = b.finish().unwrap();
        let ranges = RangeAnalysis::analyze(&n, aligned_input_range(8, 8));
        let u = FaultUniverse::enumerate(&n, &ranges);
        // Cell 0 of a subtractor: no class may require a ci=0 test.
        for site in u.sites().iter().filter(|s| s.cell == 0) {
            assert_eq!(site.detecting_tests & 0b0101_0101, 0, "{site}");
        }
    }

    #[test]
    fn fault_count_scales_with_adders() {
        // Two adders -> roughly double the faults of one.
        let n1 = simple();
        let r1 = RangeAnalysis::analyze(&n1, aligned_input_range(8, 8));
        let u1 = FaultUniverse::enumerate(&n1, &r1);

        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let s1 = b.shift_right(x, 1);
        let s2 = b.shift_right(d, 2);
        let a1 = b.add(s1, s2);
        let d2 = b.register(a1);
        let a2 = b.add(a1, d2);
        b.output(a2, "y");
        let n2 = b.finish().unwrap();
        let r2 = RangeAnalysis::analyze(&n2, aligned_input_range(8, 8));
        let u2 = FaultUniverse::enumerate(&n2, &r2);
        assert!(u2.len() > u1.len());
    }

    #[test]
    fn ids_on_node_partition_the_universe() {
        let n = simple();
        let ranges = RangeAnalysis::analyze(&n, aligned_input_range(8, 8));
        let u = FaultUniverse::enumerate(&n, &ranges);
        let total: usize = n.arithmetic_ids().iter().map(|&a| u.ids_on_node(a).len()).sum();
        assert_eq!(total, u.len());
    }

    #[test]
    fn sign_region_cells_drop_impossible_carry_combos() {
        // x>>2 + x>>3: output msb sits above both operands' msbs at some
        // cells only when ranges force it; instead build a case with a
        // guaranteed sign region: two tiny operands in a wide word.
        let mut b = NetlistBuilder::new(12).unwrap();
        let x = b.input("x");
        let s6 = b.shift_right(x, 6);
        let s7 = b.shift_right(x, 7);
        let y = b.add_labeled(s6, s7, "sum");
        b.output(y, "y");
        let n = b.finish().unwrap();
        let ranges = RangeAnalysis::analyze(&n, aligned_input_range(12, 12));
        let node = n.find_label("sum").unwrap();
        let (_, msb) = ranges.active_span(&n, node).unwrap();
        let mask = range_combo_mask(&n, &ranges, node, msb);
        // T1 (001: both operands non-negative, carry 1) impossible at
        // the top sign cell; T6 (110) likewise.
        assert_eq!(mask & (1 << 1), 0, "T1 reachable: {mask:08b}");
        assert_eq!(mask & (1 << 6), 0, "T6 reachable: {mask:08b}");
        // T0 and T7 remain reachable.
        assert_ne!(mask & (1 << 0), 0);
        assert_ne!(mask & (1 << 7), 0);
    }

    #[test]
    fn range_mask_is_sound_for_observed_combos() {
        // Simulate and confirm every observed combo at every cell is
        // predicted reachable by the range mask.
        let mut b = NetlistBuilder::new(10).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let s = b.shift_right(d, 3);
        let y = b.sub_labeled(x, s, "diff");
        b.output(y, "y");
        let n = b.finish().unwrap();
        let ranges = RangeAnalysis::analyze(&n, aligned_input_range(10, 10));
        let node = n.find_label("diff").unwrap();

        // Reference: direct integer simulation of the subtractor cells.
        let q = fixedpoint::QFormat::new(10, 9).unwrap();
        let mut prev = 0i64;
        let mut observed = [0u8; 10];
        let mut rng = testkit::Rng::new(0xACE1);
        for _ in 0..2000 {
            let v = rng.signed(10);
            let a_bits = q.to_bits(v);
            let b_bits = q.to_bits(prev >> 3);
            let b_line = !b_bits;
            let mut carry = 1u64;
            for cell in 0..10 {
                let ab = (a_bits >> cell) & 1;
                let bb = (b_line >> cell) & 1;
                observed[cell as usize] |= 1 << ((ab << 2) | (bb << 1) | carry);
                let x1 = ab ^ bb;
                carry = (ab & bb) | (x1 & carry);
            }
            prev = v;
        }
        for cell in 0..10u32 {
            let mask = range_combo_mask(&n, &ranges, node, cell);
            assert_eq!(
                observed[cell as usize] & !mask,
                0,
                "cell {cell}: observed {:08b} not within predicted {mask:08b}",
                observed[cell as usize]
            );
        }
    }

    #[test]
    fn display_is_informative() {
        let n = simple();
        let ranges = RangeAnalysis::analyze(&n, aligned_input_range(8, 8));
        let u = FaultUniverse::enumerate(&n, &ranges);
        let s = u.site(FaultId(0)).to_string();
        assert!(s.contains("s-a-"));
        assert!(s.contains("cell"));
    }
}
