//! Sound static untestability screens for faults the purity sweep
//! cannot reach: cycle-accurate ternary reachability (activation) and a
//! bit-level observability mask (propagation).
//!
//! Both analyses answer one-sided questions, so both err conservative:
//!
//! - **Ternary reachability** (forward, from reset): simulate the
//!   netlist over three-valued words (`0`, `1`, unknown) with a fully
//!   unknown input every cycle, starting from the all-zero reset state.
//!   Each cycle's ternary state over-approximates every concrete state
//!   reachable at that cycle, so the union over cycles of the
//!   full-adder input combinations compatible with the state
//!   over-approximates the combinations that can *ever* occur. Exact
//!   per-cycle states are tracked through the warm-up (this is what
//!   proves the carry-save subtractor's `+1` seed redundancies: the
//!   carry LSB is zero only at reset, when the partial-sum registers
//!   are still zero too); once the state recurs or the warm-up bound
//!   passes, the tail is folded into a widened inductive invariant.
//! - **Observability mask** (backward): which bits of each node can
//!   *possibly* influence any primary output, over-approximated (every
//!   adder carry is assumed to propagate). A fault whose entire effect
//!   lands on unobservable bits is untestable. This is what proves the
//!   folded symmetric form's truncation redundancies — the `>> 1`
//!   halving discards its operand's LSB.

use faultsim::FaultSite;
use rtl::fulladder::{eval_faulty, eval_good};
use rtl::{Netlist, NodeId, NodeKind};

/// One ternary word: `known` flags bits that are constant, `value`
/// holds those constants (zero where unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Ternary {
    known: u64,
    value: u64,
}

impl Ternary {
    fn bit(self, i: u32) -> Option<bool> {
        if self.known >> i & 1 == 1 {
            Some(self.value >> i & 1 == 1)
        } else {
            None
        }
    }

    /// The join (least common knowledge): bits both sides know *and*
    /// agree on.
    fn join(self, other: Ternary) -> Ternary {
        let known = self.known & other.known & !(self.value ^ other.value);
        Ternary { known, value: self.value & known }
    }
}

/// Ternary sum/carry of one full-adder bit.
fn ternary_full_add(
    a: Option<bool>,
    b: Option<bool>,
    c: Option<bool>,
) -> (Option<bool>, Option<bool>) {
    let sum = match (a, b, c) {
        (Some(a), Some(b), Some(c)) => Some(a ^ b ^ c),
        _ => None,
    };
    // The majority is pinned by any two equal known inputs.
    let carry = match (a, b, c) {
        (Some(x), Some(y), _) if x == y => Some(x),
        (Some(x), _, Some(z)) if x == z => Some(x),
        (_, Some(y), Some(z)) if y == z => Some(y),
        (Some(a), Some(b), Some(c)) => Some((a & b) | ((a ^ b) & c)),
        _ => None,
    };
    (sum, carry)
}

/// The combined static screen over one netlist.
pub struct StaticScreen {
    /// Per-node ternary bits provably constant over *every* cycle.
    bits: Vec<Ternary>,
    /// Per-node, per-cell possible full-adder combinations, unioned
    /// over every cycle (empty for non-arithmetic nodes).
    combos: Vec<Vec<u8>>,
    /// Per-node mask of output-influencing bits.
    obs: Vec<u64>,
    width: u32,
}

impl StaticScreen {
    /// Runs both analyses.
    pub fn analyze(netlist: &Netlist, input_bits: u32) -> StaticScreen {
        let (bits, combos) = ternary_reachability(netlist, input_bits);
        let obs = observability(netlist);
        StaticScreen { bits, combos, obs, width: netlist.width() }
    }

    /// The full-adder input combinations that can occur at `cell` of an
    /// arithmetic node in *some* cycle of *some* input sequence from
    /// reset, as a `T0..T7` bitmask over-approximation (`0xFF` when
    /// nothing is pinned). The carry-in is rippled ternarily from the
    /// LSB within each cycle's state, so a provably-dead carry chain
    /// (e.g. a hardwired-zero operand bit) pins downstream
    /// combinations, and warm-up-only combinations stay separated from
    /// steady-state ones.
    pub fn possible_combos(&self, _netlist: &Netlist, node: NodeId, cell: u32) -> u8 {
        match self.combos[node.index()].get(cell as usize) {
            Some(&mask) => mask,
            None => 0xFF,
        }
    }

    /// Bit of a node provably constant in every cycle from reset
    /// (`None` when the bit can vary).
    pub fn known_bit(&self, node: NodeId, bit: u32) -> Option<bool> {
        self.bits[node.index()].bit(bit)
    }

    /// `true` if the fault is *provably untestable* by the static
    /// screens: either every detecting combination is impossible, or
    /// every output bit its effect can land on is unobservable.
    pub fn untestable(&self, netlist: &Netlist, site: &FaultSite) -> bool {
        let active = site.detecting_tests & self.possible_combos(netlist, site.node, site.cell);
        if active == 0 {
            return true;
        }
        // Effect category under the combinations that can occur.
        let mut sum_eff = false;
        let mut cout_eff = false;
        for t in 0..8u8 {
            if active >> t & 1 == 0 {
                continue;
            }
            let a = t >> 2 & 1 == 1;
            let b = t >> 1 & 1 == 1;
            let c = t & 1 == 1;
            let good = eval_good(a, b, c);
            let faulty = eval_faulty(a, b, c, site.representative);
            sum_eff |= good.0 != faulty.0;
            cout_eff |= good.1 != faulty.1;
        }
        let top = netlist.msb_trim(site.node);
        let mask = if self.width == 64 { !0u64 } else { (1u64 << self.width) - 1 };
        let mut eff = 0u64;
        if sum_eff {
            eff |= if site.cell >= top {
                // The top (and any trimmed) cell's sum is the sign the
                // cells above replicate.
                mask & (!0u64 << site.cell)
            } else {
                1 << site.cell
            };
        }
        if cout_eff && site.cell < top {
            eff |= mask & (!0u64 << (site.cell + 1));
        }
        eff & self.obs[site.node.index()] == 0
    }
}

/// One combinational evaluation of the netlist over ternary words:
/// `reg` supplies every register's state, the input is unknown above
/// its alignment zeros.
fn ternary_values(netlist: &Netlist, reg: &[Ternary], input: Ternary) -> Vec<Ternary> {
    let w = netlist.width();
    let mask = if w == 64 { !0u64 } else { (1u64 << w) - 1 };
    let nodes = netlist.nodes();
    let mut bits = vec![Ternary::default(); nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        bits[i] = match node.kind {
            NodeKind::Input => input,
            NodeKind::Const { raw } => Ternary { known: mask, value: raw as u64 & mask },
            NodeKind::Register { .. } => reg[i],
            NodeKind::Output { src } => bits[src.index()],
            NodeKind::Not { src } => {
                let s = bits[src.index()];
                Ternary { known: s.known, value: !s.value & s.known & mask }
            }
            NodeKind::SetLsb { src } => {
                let s = bits[src.index()];
                Ternary { known: s.known | 1, value: s.value | 1 }
            }
            NodeKind::ShiftRight { src, amount } => {
                let s = bits[src.index()];
                let mut out = Ternary::default();
                for i in 0..w {
                    let j = (i + amount).min(w - 1);
                    if let Some(v) = s.bit(j) {
                        out.known |= 1 << i;
                        out.value |= (v as u64) << i;
                    }
                }
                out
            }
            NodeKind::Add { a, b } | NodeKind::Sub { a, b } => {
                let is_sub = matches!(node.kind, NodeKind::Sub { .. });
                let at = bits[a.index()];
                let bt = bits[b.index()];
                let mut out = Ternary::default();
                let mut carry = Some(is_sub);
                for i in 0..w {
                    let b_line = bt.bit(i).map(|v| v ^ is_sub);
                    let (sum, cout) = ternary_full_add(at.bit(i), b_line, carry);
                    if let Some(v) = sum {
                        out.known |= 1 << i;
                        out.value |= (v as u64) << i;
                    }
                    carry = cout;
                }
                out
            }
            NodeKind::CsaSum { a, b, c } => {
                let (at, bt, ct) = (bits[a.index()], bits[b.index()], bits[c.index()]);
                let known = at.known & bt.known & ct.known;
                Ternary { known, value: (at.value ^ bt.value ^ ct.value) & known }
            }
            NodeKind::CsaCarry { a, b, c, .. } => {
                let (at, bt, ct) = (bits[a.index()], bits[b.index()], bits[c.index()]);
                let mut out = Ternary { known: 1, value: 0 };
                for i in 0..w - 1 {
                    if let Some(v) = ternary_full_add(at.bit(i), bt.bit(i), ct.bit(i)).1 {
                        out.known |= 1 << (i + 1);
                        out.value |= (v as u64) << (i + 1);
                    }
                }
                out
            }
            // Unknown kinds: nothing provable.
            _ => Ternary::default(),
        };
    }
    bits
}

/// The register state one cycle after `values` (each register latches
/// its source's ternary word).
fn ternary_next_regs(netlist: &Netlist, values: &[Ternary]) -> Vec<Ternary> {
    let nodes = netlist.nodes();
    let mut reg = vec![Ternary::default(); nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        if let NodeKind::Register { src } = node.kind {
            reg[i] = values[src.index()];
        }
    }
    reg
}

/// Folds one cycle's combinations into the per-node, per-cell union
/// masks: the per-cell carry ripple of `rtl::eval::cell_combos`, over
/// ternary operands.
fn accumulate_combos(netlist: &Netlist, values: &[Ternary], combos: &mut [Vec<u8>]) {
    let w = netlist.width();
    // `options(t)[v]` is whether bit value `v` is possible.
    let options = |t: Option<bool>| match t {
        Some(true) => [false, true],
        Some(false) => [true, false],
        None => [true, true],
    };
    let cell_mask = |a_t: Option<bool>, b_t: Option<bool>, c_t: Option<bool>| -> u8 {
        let mut mask = 0u8;
        for t in 0..8u8 {
            let a = t >> 2 & 1 == 1;
            let b = t >> 1 & 1 == 1;
            let c = t & 1 == 1;
            if options(a_t)[a as usize] && options(b_t)[b as usize] && options(c_t)[c as usize] {
                mask |= 1 << t;
            }
        }
        mask
    };
    for id in netlist.arithmetic_ids() {
        let out = &mut combos[id.index()];
        if out.is_empty() {
            out.resize(w as usize, 0);
        }
        match netlist.node(id).kind {
            NodeKind::Add { a, b } | NodeKind::Sub { a, b } => {
                let is_sub = matches!(netlist.node(id).kind, NodeKind::Sub { .. });
                let at = values[a.index()];
                let bt = values[b.index()];
                let mut carry = Some(is_sub);
                for cell in 0..w {
                    let b_line = bt.bit(cell).map(|v| v ^ is_sub);
                    out[cell as usize] |= cell_mask(at.bit(cell), b_line, carry);
                    carry = ternary_full_add(at.bit(cell), b_line, carry).1;
                }
            }
            NodeKind::CsaSum { a, b, c } => {
                let (at, bt, ct) = (values[a.index()], values[b.index()], values[c.index()]);
                for cell in 0..w {
                    out[cell as usize] |= cell_mask(at.bit(cell), bt.bit(cell), ct.bit(cell));
                }
            }
            // Carry-save carry words share their sum sibling's cells;
            // faults are enumerated on the sum node.
            _ => out.fill(0xFF),
        }
    }
}

/// Cycle-accurate ternary reachability from reset. Returns the
/// per-node all-cycle constant-bit invariant and the per-node,
/// per-cell possible-combination masks.
///
/// Exact ternary states are stepped cycle by cycle (each one a sound
/// per-cycle over-approximation, since ternary transfer functions
/// contain the concrete ones). If the state stabilizes the analysis is
/// complete — every later cycle repeats it. If it has not stabilized
/// within the warm-up bound, the remaining tail is covered by widening
/// the state to an inductive invariant (joining each step into its
/// predecessor until nothing changes) and folding that invariant's
/// combinations in once.
fn ternary_reachability(netlist: &Netlist, input_bits: u32) -> (Vec<Ternary>, Vec<Vec<u8>>) {
    let w = netlist.width();
    let mask = if w == 64 { !0u64 } else { (1u64 << w) - 1 };
    let align = w - input_bits;
    let input = Ternary { known: (1u64 << align) - 1, value: 0 };
    let nodes = netlist.nodes();
    let mut combos = vec![Vec::new(); nodes.len()];
    let mut invariant: Option<Vec<Ternary>> = None;
    let fold = |values: &[Ternary], combos: &mut Vec<Vec<u8>>, inv: &mut Option<Vec<Ternary>>| {
        accumulate_combos(netlist, values, combos);
        match inv {
            None => *inv = Some(values.to_vec()),
            Some(inv) => {
                for (i, v) in values.iter().enumerate() {
                    inv[i] = inv[i].join(*v);
                }
            }
        }
    };
    // Registers reset to zero: fully known.
    let mut reg = vec![Ternary { known: mask, value: 0 }; nodes.len()];
    let warmup = 2 * (netlist.register_indices().len() + 2);
    for _ in 0..warmup {
        let values = ternary_values(netlist, &reg, input);
        fold(&values, &mut combos, &mut invariant);
        let next = ternary_next_regs(netlist, &values);
        if next == reg {
            // Stabilized: every later cycle repeats this state.
            return (invariant.expect("at least one cycle folded"), combos);
        }
        reg = next;
    }
    // Widen the unstabilized tail into an inductive invariant.
    loop {
        let values = ternary_values(netlist, &reg, input);
        let mut next = ternary_next_regs(netlist, &values);
        for (i, n) in next.iter_mut().enumerate() {
            *n = n.join(reg[i]);
        }
        if next == reg {
            fold(&values, &mut combos, &mut invariant);
            return (invariant.expect("at least one cycle folded"), combos);
        }
        reg = next;
    }
}

/// Backward over-approximate observability: for each node, the bits
/// whose value can influence some primary output. Single reverse pass
/// — node ids are topologically ordered, so every user is visited
/// before its operands.
fn observability(netlist: &Netlist) -> Vec<u64> {
    let w = netlist.width();
    let mask = if w == 64 { !0u64 } else { (1u64 << w) - 1 };
    let nodes = netlist.nodes();
    let mut obs = vec![0u64; nodes.len()];
    // A carry makes operand bit `j` influence every sum bit at or
    // above `j`: the operand sees the down-closure of the user's mask.
    let down_closure = |m: u64| -> u64 {
        if m == 0 {
            0
        } else {
            let high = 63 - m.leading_zeros();
            if high >= 63 {
                !0
            } else {
                (1u64 << (high + 1)) - 1
            }
        }
    };
    for i in (0..nodes.len()).rev() {
        let m = match nodes[i].kind {
            NodeKind::Output { .. } => mask,
            _ => obs[i],
        };
        if m == 0 {
            continue;
        }
        match nodes[i].kind {
            NodeKind::Input | NodeKind::Const { .. } => {}
            NodeKind::Output { src } | NodeKind::Register { src } | NodeKind::Not { src } => {
                obs[src.index()] |= m;
            }
            NodeKind::SetLsb { src } => {
                obs[src.index()] |= m & !1;
            }
            NodeKind::ShiftRight { src, amount } => {
                // Node bit i reads src bit min(i + amount, w - 1).
                let mut s = 0u64;
                for bit in 0..w {
                    if m >> bit & 1 == 1 {
                        s |= 1 << (bit + amount).min(w - 1);
                    }
                }
                obs[src.index()] |= s;
            }
            NodeKind::Add { a, b } | NodeKind::Sub { a, b } => {
                let d = down_closure(m) & mask;
                obs[a.index()] |= d;
                obs[b.index()] |= d;
            }
            NodeKind::CsaSum { a, b, c } => {
                obs[a.index()] |= m;
                obs[b.index()] |= m;
                obs[c.index()] |= m;
            }
            NodeKind::CsaCarry { a, b, c, .. } => {
                obs[a.index()] |= m >> 1;
                obs[b.index()] |= m >> 1;
                obs[c.index()] |= m >> 1;
            }
            _ => {}
        }
    }
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultsim::FaultUniverse;
    use rtl::range::{aligned_input_range, RangeAnalysis};
    use rtl::NetlistBuilder;

    #[test]
    fn known_bits_track_alignment_and_setlsb() {
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let s = b.set_lsb(x);
        let d = b.register(s);
        let y = b.add_labeled(s, d, "acc");
        b.output(y, "y");
        let n = b.finish().unwrap();
        // 6-bit input aligned into 8 bits: low 2 bits known zero.
        let screen = StaticScreen::analyze(&n, 6);
        assert_eq!(screen.known_bit(x, 0), Some(false));
        assert_eq!(screen.known_bit(x, 1), Some(false));
        // SetLsb pins bit 0 to one...
        assert_eq!(screen.known_bit(s, 0), Some(true));
        assert_eq!(screen.known_bit(s, 1), Some(false));
        // ...but its register sees a reset zero in cycle 0, so over all
        // cycles only the still-zero bit stays constant.
        assert_eq!(screen.known_bit(d, 0), None);
        assert_eq!(screen.known_bit(d, 1), Some(false));
        // Adder bit 1: the carry out of bit 0 is unknown once the
        // register bit oscillates.
        assert_eq!(screen.known_bit(y, 1), None);
    }

    #[test]
    fn per_cycle_analysis_separates_warmup_from_steady_state() {
        // d holds 0 in cycle 1 and 1 forever after; the adder's bit-0
        // cell therefore sees (s=1, d=0) only at warm-up and (s=1, d=1)
        // afterwards — never (0, 0) or (0, 1).
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let s = b.set_lsb(x);
        let d = b.register(s);
        let y = b.add_labeled(s, d, "acc");
        b.output(y, "y");
        let n = b.finish().unwrap();
        let screen = StaticScreen::analyze(&n, 6);
        let possible = screen.possible_combos(&n, y, 0);
        // a = s (bit 0 always 1) -> only combos with the a-bit set.
        assert_eq!(possible & 0b0000_1111, 0, "a-bit-low combos must be impossible");
        // Carry into cell 0 is the ripple seed (0 for an adder).
        assert_eq!(possible & 0b1010_1010, 0, "cell 0 of an adder has no carry-in");
        // Both remaining combos occur: b=0 at warm-up, b=1 after.
        assert_eq!(possible, 0b0101_0000);
    }

    #[test]
    fn observability_sees_through_a_right_shift() {
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let pair = b.add_labeled(x, d, "pair");
        let half = b.shift_right(pair, 1);
        let y = b.add_labeled(half, x, "acc");
        b.output(y, "y");
        let n = b.finish().unwrap();
        let obs = observability(&n);
        // The halving discards `pair`'s LSB: bit 0 unobservable, the
        // rest visible.
        assert_eq!(obs[pair.index()] & 1, 0);
        assert_ne!(obs[pair.index()] & 2, 0);
        // The accumulator feeds the output directly.
        assert_eq!(obs[y.index()], 0xFF);
    }

    #[test]
    fn truncated_lsb_faults_are_proven_untestable() {
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let pair = b.add_labeled(x, d, "pair");
        let half = b.shift_right(pair, 1);
        let y = b.add_labeled(half, x, "acc");
        b.output(y, "y");
        let n = b.finish().unwrap();
        let r = RangeAnalysis::analyze(&n, aligned_input_range(8, 8));
        let u = FaultUniverse::enumerate(&n, &r);
        let screen = StaticScreen::analyze(&n, 8);
        let mut proved = 0;
        for id in u.ids() {
            let site = u.site(id);
            if screen.untestable(&n, site) {
                proved += 1;
                // Everything proven must be a pure-sum fault at the
                // truncated cell 0 of `pair`.
                assert_eq!(site.node, pair, "unexpected untestable site {site}");
                assert_eq!(site.cell, 0);
            }
        }
        assert!(proved > 0, "the truncated LSB must yield untestable faults");
    }
}
