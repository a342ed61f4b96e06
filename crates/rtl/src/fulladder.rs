//! Gate-level model of one full-adder cell and its stuck-at fault
//! universe.
//!
//! Every ripple-carry adder bit is the classic five-gate cell:
//!
//! ```text
//!   x1   = a XOR b
//!   sum  = x1 XOR ci
//!   and1 = a AND b
//!   and2 = x1 AND ci
//!   cout = and1 OR and2
//! ```
//!
//! Stuck-at-0/1 faults are modeled on all 16 circuit lines (stems and
//! fan-out branches). Faults are collapsed by *functional equivalence*:
//! two faults whose faulty `(sum, cout)` truth tables agree on every
//! reachable input combination are interchangeable for any test, so one
//! representative per class suffices. The same truth tables also tell us
//! exactly which of the eight cell tests `T0..T7` (test number = the
//! binary value `abc` of primary input, secondary input and carry-in —
//! the paper's Section 4.1 numbering) detect each class; the paper's
//! Table 2 falls out of this analysis (see `bist-core`).

/// One of the sixteen lines of the five-gate full-adder cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Line {
    /// Primary-input stem `a`.
    AStem,
    /// Branch of `a` into the sum XOR.
    AXor,
    /// Branch of `a` into the carry AND.
    AAnd,
    /// Secondary-input stem `b`.
    BStem,
    /// Branch of `b` into the sum XOR.
    BXor,
    /// Branch of `b` into the carry AND.
    BAnd,
    /// Carry-in stem.
    CiStem,
    /// Branch of carry-in into the sum XOR.
    CiXor,
    /// Branch of carry-in into the carry AND.
    CiAnd,
    /// Stem of the half-sum `x1 = a ^ b`.
    X1Stem,
    /// Branch of `x1` into the final XOR.
    X1Xor,
    /// Branch of `x1` into the second AND.
    X1And,
    /// Output of the first AND (`a & b`).
    And1,
    /// Output of the second AND (`x1 & ci`).
    And2,
    /// Sum output.
    Sum,
    /// Carry output.
    Cout,
}

/// All sixteen lines, in evaluation order.
pub const ALL_LINES: [Line; 16] = [
    Line::AStem,
    Line::AXor,
    Line::AAnd,
    Line::BStem,
    Line::BXor,
    Line::BAnd,
    Line::CiStem,
    Line::CiXor,
    Line::CiAnd,
    Line::X1Stem,
    Line::X1Xor,
    Line::X1And,
    Line::And1,
    Line::And2,
    Line::Sum,
    Line::Cout,
];

/// A single stuck-at fault on one cell line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaFault {
    /// The faulty line.
    pub line: Line,
    /// `true` for stuck-at-1, `false` for stuck-at-0.
    pub stuck_one: bool,
}

impl FaFault {
    /// Every stuck-at fault of the cell (32 uncollapsed faults).
    pub fn all() -> Vec<FaFault> {
        ALL_LINES
            .iter()
            .flat_map(|&line| {
                [FaFault { line, stuck_one: false }, FaFault { line, stuck_one: true }]
            })
            .collect()
    }
}

/// Fault-free evaluation of the cell for boolean inputs.
pub fn eval_good(a: bool, b: bool, ci: bool) -> (bool, bool) {
    let x1 = a ^ b;
    (x1 ^ ci, (a & b) | (x1 & ci))
}

/// Evaluation of the cell with one stuck-at fault injected.
pub fn eval_faulty(a: bool, b: bool, ci: bool, fault: FaFault) -> (bool, bool) {
    let f = |line: Line, v: bool| if line == fault.line { fault.stuck_one } else { v };
    let a_stem = f(Line::AStem, a);
    let a_xor = f(Line::AXor, a_stem);
    let a_and = f(Line::AAnd, a_stem);
    let b_stem = f(Line::BStem, b);
    let b_xor = f(Line::BXor, b_stem);
    let b_and = f(Line::BAnd, b_stem);
    let ci_stem = f(Line::CiStem, ci);
    let ci_xor = f(Line::CiXor, ci_stem);
    let ci_and = f(Line::CiAnd, ci_stem);
    let x1_stem = f(Line::X1Stem, a_xor ^ b_xor);
    let x1_xor = f(Line::X1Xor, x1_stem);
    let x1_and = f(Line::X1And, x1_stem);
    let and1 = f(Line::And1, a_and & b_and);
    let and2 = f(Line::And2, x1_and & ci_and);
    let sum = f(Line::Sum, x1_xor ^ ci_xor);
    let cout = f(Line::Cout, and1 | and2);
    (sum, cout)
}

/// Forces every fault in `faults` that sits on `line` into the 64-lane
/// word `v`, each only in its masked lanes — the one place the
/// stuck-at semantics of word-parallel evaluation is written down
/// (shared by [`eval_word`] and [`eval_word_sum_only`]).
///
/// # Example
///
/// ```
/// use bist_rtl::fulladder::{apply_line_faults, FaFault, Line};
///
/// // Stuck-at-1 on the sum line, forced only in lanes 1 and 3.
/// let faults = [(FaFault { line: Line::Sum, stuck_one: true }, 0b1010)];
/// assert_eq!(apply_line_faults(Line::Sum, 0b0100, &faults), 0b1110);
/// // Other lines — and unmasked lanes — pass through untouched.
/// assert_eq!(apply_line_faults(Line::Cout, 0b0100, &faults), 0b0100);
/// ```
#[inline]
pub fn apply_line_faults(line: Line, v: u64, faults: &[(FaFault, u64)]) -> u64 {
    let mut out = v;
    for &(fault, mask) in faults {
        if fault.line == line {
            if fault.stuck_one {
                out |= mask;
            } else {
                out &= !mask;
            }
        }
    }
    out
}

/// Word-parallel (64-lane bit-sliced) evaluation of the cell with a set
/// of per-lane faults. `faults` pairs each [`FaFault`] with a lane mask;
/// the fault is forced only in masked lanes.
///
/// The fast path (`faults` empty) is branch-free.
#[inline]
pub fn eval_word(a: u64, b: u64, ci: u64, faults: &[(FaFault, u64)]) -> (u64, u64) {
    if faults.is_empty() {
        let x1 = a ^ b;
        return (x1 ^ ci, (a & b) | (x1 & ci));
    }
    let apply = |line: Line, v: u64| -> u64 { apply_line_faults(line, v, faults) };
    let a_stem = apply(Line::AStem, a);
    let a_xor = apply(Line::AXor, a_stem);
    let a_and = apply(Line::AAnd, a_stem);
    let b_stem = apply(Line::BStem, b);
    let b_xor = apply(Line::BXor, b_stem);
    let b_and = apply(Line::BAnd, b_stem);
    let ci_stem = apply(Line::CiStem, ci);
    let ci_xor = apply(Line::CiXor, ci_stem);
    let ci_and = apply(Line::CiAnd, ci_stem);
    let x1_stem = apply(Line::X1Stem, a_xor ^ b_xor);
    let x1_xor = apply(Line::X1Xor, x1_stem);
    let x1_and = apply(Line::X1And, x1_stem);
    let and1 = apply(Line::And1, a_and & b_and);
    let and2 = apply(Line::And2, x1_and & ci_and);
    let sum = apply(Line::Sum, x1_xor ^ ci_xor);
    let cout = apply(Line::Cout, and1 | and2);
    (sum, cout)
}

/// A lane-masked fault list folded into one `(keep, force)` mask pair
/// per cell line: [`LineMasks::eval`] applies `v = (v & keep) | force`
/// on each line, which is [`eval_word`] with the per-line scan of the
/// fault list done once, up front.
///
/// The fold is exact for any list: a stuck-at-1 in lanes `m` sets them
/// in `force`, a stuck-at-0 clears them from both `keep` and `force`,
/// and folding in list order reproduces [`apply_line_faults`]'s
/// in-order application (the last fault on a lane wins).
///
/// # Example
///
/// ```
/// use bist_rtl::fulladder::{eval_word, FaFault, Line, LineMasks};
///
/// let faults = [
///     (FaFault { line: Line::X1Stem, stuck_one: true }, 0b0110),
///     (FaFault { line: Line::Cout, stuck_one: false }, 0b1100),
/// ];
/// let masks = LineMasks::from_faults(&faults);
/// let (a, b, ci) = (0b1010, 0b0110, 0b0011);
/// assert_eq!(masks.eval(a, b, ci), eval_word(a, b, ci, &faults));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineMasks {
    keep: [u64; 16],
    force: [u64; 16],
}

impl LineMasks {
    /// Folds a lane-masked fault list (the [`eval_word`] argument).
    pub fn from_faults(faults: &[(FaFault, u64)]) -> LineMasks {
        let mut masks = LineMasks { keep: [!0u64; 16], force: [0u64; 16] };
        for &(fault, lanes) in faults {
            let l = fault.line as usize;
            if fault.stuck_one {
                masks.force[l] |= lanes;
            } else {
                masks.keep[l] &= !lanes;
                masks.force[l] &= !lanes;
            }
        }
        masks
    }

    /// Word-parallel `(sum, cout)` of the cell under the folded faults;
    /// bit-identical to [`eval_word`] over the original list.
    #[inline]
    pub fn eval(&self, a: u64, b: u64, ci: u64) -> (u64, u64) {
        let apply = |line: Line, v: u64| -> u64 {
            (v & self.keep[line as usize]) | self.force[line as usize]
        };
        let a_stem = apply(Line::AStem, a);
        let a_xor = apply(Line::AXor, a_stem);
        let a_and = apply(Line::AAnd, a_stem);
        let b_stem = apply(Line::BStem, b);
        let b_xor = apply(Line::BXor, b_stem);
        let b_and = apply(Line::BAnd, b_stem);
        let ci_stem = apply(Line::CiStem, ci);
        let ci_xor = apply(Line::CiXor, ci_stem);
        let ci_and = apply(Line::CiAnd, ci_stem);
        let x1_stem = apply(Line::X1Stem, a_xor ^ b_xor);
        let x1_xor = apply(Line::X1Xor, x1_stem);
        let x1_and = apply(Line::X1And, x1_stem);
        let and1 = apply(Line::And1, a_and & b_and);
        let and2 = apply(Line::And2, x1_and & ci_and);
        let sum = apply(Line::Sum, x1_xor ^ ci_xor);
        let cout = apply(Line::Cout, and1 | and2);
        (sum, cout)
    }
}

/// Word-parallel evaluation of a *sum-only* cell — the MSB cell of a
/// sign-trimmed adder, which produces the sum bit but has no carry
/// logic ("the MSB logic ... does not contain any carry logic", paper
/// Section 4.1). Only the XOR-path lines exist; faults on carry-path
/// lines are ignored (they have no hardware to sit on).
#[inline]
pub fn eval_word_sum_only(a: u64, b: u64, ci: u64, faults: &[(FaFault, u64)]) -> u64 {
    if faults.is_empty() {
        return a ^ b ^ ci;
    }
    let apply = |line: Line, v: u64| -> u64 { apply_line_faults(line, v, faults) };
    // Stems and their single XOR branches coincide in this cell.
    let av = apply(Line::AXor, apply(Line::AStem, a));
    let bv = apply(Line::BXor, apply(Line::BStem, b));
    let civ = apply(Line::CiXor, apply(Line::CiStem, ci));
    let x1 = apply(Line::X1Xor, apply(Line::X1Stem, av ^ bv));
    apply(Line::Sum, x1 ^ civ)
}

/// The physical lines of a sum-only (trimmed MSB) cell.
pub const SUM_ONLY_LINES: [Line; 5] = [Line::AXor, Line::BXor, Line::CiXor, Line::X1Xor, Line::Sum];

/// Collapsed fault classes of a sum-only cell under a reachable-combo
/// mask; signatures are over the sum output alone (there is no carry
/// output to observe).
pub fn sum_only_fault_classes_masked(allowed_combos: u8) -> Vec<FaultClass> {
    let combos: Vec<(bool, bool, bool)> = (0u8..8)
        .filter(|t| allowed_combos & (1 << t) != 0)
        .map(|t| (t & 4 != 0, t & 2 != 0, t & 1 != 0))
        .collect();
    let eval = |a: bool, b: bool, ci: bool, fault: Option<FaFault>| -> bool {
        let faults: Vec<(FaFault, u64)> = fault.map(|f| (f, 1u64)).into_iter().collect();
        eval_word_sum_only(u64::from(a), u64::from(b), u64::from(ci), &faults) & 1 == 1
    };
    let mut groups: Vec<(Vec<bool>, FaultClass)> = Vec::new();
    for &line in &SUM_ONLY_LINES {
        for stuck_one in [false, true] {
            let fault = FaFault { line, stuck_one };
            let sig: Vec<bool> =
                combos.iter().map(|&(a, b, ci)| eval(a, b, ci, Some(fault))).collect();
            let good: Vec<bool> = combos.iter().map(|&(a, b, ci)| eval(a, b, ci, None)).collect();
            if sig == good {
                continue;
            }
            let mut tests = 0u8;
            for (&(a, b, ci), (&f, &g)) in combos.iter().zip(sig.iter().zip(&good)) {
                if f != g {
                    tests |= 1 << ((a as u8) << 2 | (b as u8) << 1 | ci as u8);
                }
            }
            if let Some((_, class)) = groups.iter_mut().find(|(s, _)| *s == sig) {
                class.members.push(fault);
            } else {
                groups.push((
                    sig,
                    FaultClass {
                        representative: fault,
                        members: vec![fault],
                        detecting_tests: tests,
                    },
                ));
            }
        }
    }
    groups.into_iter().map(|(_, c)| c).collect()
}

/// A functional-equivalence class of cell faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultClass {
    /// One representative fault (injected during simulation).
    pub representative: FaFault,
    /// Every member of the class, representative included.
    pub members: Vec<FaFault>,
    /// Bitmask over the eight input combinations `abc = 0..8`: bit `t`
    /// set means test `Tt` detects the class (differs in `sum` or `cout`).
    /// Only reachable combinations are considered.
    pub detecting_tests: u8,
}

/// Computes the collapsed fault classes of one cell.
///
/// `ci_constraint` restricts the reachable input combinations: the LSB
/// cell of an adder has carry-in fixed at 0 (at 1 for a subtractor), and
/// faults undetectable under the restriction are locally redundant and
/// omitted — the "redundancies induced by signal constraints" the paper
/// removes during design.
pub fn fault_classes(ci_constraint: Option<bool>) -> Vec<FaultClass> {
    let mask = match ci_constraint {
        None => 0xFF,
        Some(false) => 0b0101_0101,
        Some(true) => 0b1010_1010,
    };
    fault_classes_masked(mask)
}

/// Computes the collapsed fault classes of one cell when only the input
/// combinations in `allowed_combos` (bit `t` set ⇔ `abc = t` reachable)
/// can ever occur — the general form of the constraint-induced
/// redundancy elimination. Faults indistinguishable from the good cell
/// on every reachable combination are *provably redundant* and omitted;
/// faults indistinguishable from each other are collapsed.
pub fn fault_classes_masked(allowed_combos: u8) -> Vec<FaultClass> {
    let combos: Vec<(bool, bool, bool)> = (0u8..8)
        .filter(|t| allowed_combos & (1 << t) != 0)
        .map(|t| (t & 4 != 0, t & 2 != 0, t & 1 != 0))
        .collect();

    // Signature: faulty (sum, cout) on every reachable combination.
    let mut groups: Vec<(Vec<(bool, bool)>, FaultClass)> = Vec::new();
    for fault in FaFault::all() {
        let sig: Vec<(bool, bool)> =
            combos.iter().map(|&(a, b, ci)| eval_faulty(a, b, ci, fault)).collect();
        let good_sig: Vec<(bool, bool)> =
            combos.iter().map(|&(a, b, ci)| eval_good(a, b, ci)).collect();
        if sig == good_sig {
            continue; // locally redundant under the constraint
        }
        let mut tests = 0u8;
        for (&(a, b, ci), &faulty) in combos.iter().zip(&sig) {
            if faulty != eval_good(a, b, ci) {
                let t = (a as u8) << 2 | (b as u8) << 1 | ci as u8;
                tests |= 1 << t;
            }
        }
        if let Some((_, class)) = groups.iter_mut().find(|(s, _)| *s == sig) {
            class.members.push(fault);
        } else {
            groups.push((
                sig,
                FaultClass { representative: fault, members: vec![fault], detecting_tests: tests },
            ));
        }
    }
    groups.into_iter().map(|(_, c)| c).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_line_masks_match_the_fault_list_scan() {
        // Random lane-masked lists, conflicting faults on one line
        // included: the fold must equal in-order application exactly.
        let mut rng = testkit::Rng::new(0x9E37_79B9_7F4A_7C15);
        let mut next = || rng.next_u64();
        let all = FaFault::all();
        for _ in 0..2000 {
            let len = (next() % 6) as usize;
            let faults: Vec<(FaFault, u64)> =
                (0..len).map(|_| (all[(next() % 32) as usize], next())).collect();
            let masks = LineMasks::from_faults(&faults);
            let (a, b, ci) = (next(), next(), next());
            assert_eq!(masks.eval(a, b, ci), eval_word(a, b, ci, &faults), "{faults:?}");
        }
        assert_eq!(LineMasks::from_faults(&[]).eval(5, 3, 1), eval_word(5, 3, 1, &[]));
    }

    #[test]
    fn good_cell_is_a_full_adder() {
        for t in 0u8..8 {
            let (a, b, ci) = (t & 4 != 0, t & 2 != 0, t & 1 != 0);
            let (sum, cout) = eval_good(a, b, ci);
            let total = a as u8 + b as u8 + ci as u8;
            assert_eq!(sum as u8, total & 1);
            assert_eq!(cout as u8, total >> 1);
        }
    }

    #[test]
    fn faulty_eval_differs_somewhere_for_every_fault() {
        for fault in FaFault::all() {
            let mut differs = false;
            for t in 0u8..8 {
                let (a, b, ci) = (t & 4 != 0, t & 2 != 0, t & 1 != 0);
                if eval_faulty(a, b, ci, fault) != eval_good(a, b, ci) {
                    differs = true;
                }
            }
            assert!(differs, "fault {fault:?} is undetectable");
        }
    }

    #[test]
    fn word_eval_matches_boolean_eval() {
        // Pack all 8 input combos into lanes 0..8 and compare.
        let mut a = 0u64;
        let mut b = 0u64;
        let mut ci = 0u64;
        for t in 0u8..8 {
            if t & 4 != 0 {
                a |= 1 << t;
            }
            if t & 2 != 0 {
                b |= 1 << t;
            }
            if t & 1 != 0 {
                ci |= 1 << t;
            }
        }
        let (sum, cout) = eval_word(a, b, ci, &[]);
        for t in 0u8..8 {
            let (es, ec) = eval_good(t & 4 != 0, t & 2 != 0, t & 1 != 0);
            assert_eq!((sum >> t) & 1 == 1, es);
            assert_eq!((cout >> t) & 1 == 1, ec);
        }
    }

    #[test]
    fn word_eval_injects_fault_only_in_masked_lane() {
        let fault = FaFault { line: Line::Sum, stuck_one: true };
        // a=b=ci=0 in both lanes; fault masked into lane 1 only.
        let (sum, cout) = eval_word(0, 0, 0, &[(fault, 0b10)]);
        assert_eq!(sum, 0b10);
        assert_eq!(cout, 0);
    }

    #[test]
    fn word_eval_fault_on_input_branch() {
        let fault = FaFault { line: Line::AXor, stuck_one: true };
        // a=0,b=0,ci=0: faulty lane sees a_xor=1 -> sum=1, cout unaffected
        // (AAnd branch still 0).
        let (sum, cout) = eval_word(0, 0, 0, &[(fault, 1)]);
        assert_eq!(sum, 1);
        assert_eq!(cout, 0);
    }

    #[test]
    fn collapse_reduces_fault_count() {
        let classes = fault_classes(None);
        let total: usize = classes.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, 32, "all detectable faults are classified");
        assert!(classes.len() < 32, "collapsing merged something");
        assert!(classes.len() >= 16, "cell has many distinct behaviours");
        // Representatives are members.
        for c in &classes {
            assert!(c.members.contains(&c.representative));
            assert_ne!(c.detecting_tests, 0);
        }
    }

    #[test]
    fn classes_are_functionally_distinct() {
        let classes = fault_classes(None);
        for (i, a) in classes.iter().enumerate() {
            for b in classes.iter().skip(i + 1) {
                let sig = |f: FaFault| -> Vec<(bool, bool)> {
                    (0u8..8).map(|t| eval_faulty(t & 4 != 0, t & 2 != 0, t & 1 != 0, f)).collect()
                };
                assert_ne!(sig(a.representative), sig(b.representative));
            }
        }
    }

    #[test]
    fn sum_only_cell_behaves_like_three_input_xor() {
        for t in 0u8..8 {
            let (a, b, ci) = (t & 4 != 0, t & 2 != 0, t & 1 != 0);
            let s = eval_word_sum_only(u64::from(a), u64::from(b), u64::from(ci), &[]);
            assert_eq!(s & 1 == 1, a ^ b ^ ci);
        }
    }

    #[test]
    fn sum_only_faults_flip_sum_in_masked_lanes() {
        let f = FaFault { line: Line::BXor, stuck_one: true };
        let s = eval_word_sum_only(0, 0, 0, &[(f, 0b100)]);
        assert_eq!(s, 0b100);
        // Carry-path faults have no effect in a sum-only cell.
        let g = FaFault { line: Line::And1, stuck_one: true };
        assert_eq!(eval_word_sum_only(0, 0, 0, &[(g, 0b100)]), 0);
    }

    #[test]
    fn sum_only_classes_are_fewer_and_xor_path_only() {
        let full = fault_classes_masked(0xFF);
        let slim = sum_only_fault_classes_masked(0xFF);
        assert!(!slim.is_empty());
        assert!(slim.len() < full.len());
        let total: usize = slim.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, 10, "5 lines x 2 polarities");
        for c in &slim {
            for m in &c.members {
                assert!(SUM_ONLY_LINES.contains(&m.line));
            }
        }
        assert!(sum_only_fault_classes_masked(0).is_empty());
    }

    #[test]
    fn masked_classes_shrink_with_the_mask() {
        let full = fault_classes_masked(0xFF);
        let two = fault_classes_masked(0b0000_0101); // only T0 and T2
        assert!(two.len() < full.len());
        let total_two: usize = two.iter().map(|c| c.members.len()).sum();
        assert!(total_two < 32);
        for c in &two {
            assert_eq!(c.detecting_tests & !0b0000_0101, 0);
        }
        // A single reachable combo leaves only the classes that combo
        // distinguishes.
        let one = fault_classes_masked(0b0000_0001);
        assert!(!one.is_empty());
        assert!(one.len() <= two.len());
        // No reachable combos: everything is redundant.
        assert!(fault_classes_masked(0).is_empty());
    }

    #[test]
    fn constrained_lsb_cell_drops_carry_faults() {
        let unconstrained = fault_classes(None);
        let lsb_add = fault_classes(Some(false));
        // With ci pinned to 0 some faults become locally redundant, so
        // fewer classes (and strictly fewer total members) remain.
        let total_add: usize = lsb_add.iter().map(|c| c.members.len()).sum();
        assert!(total_add < 32);
        assert!(lsb_add.len() < unconstrained.len());
        for c in &lsb_add {
            // No class may claim detection by a test with ci=1.
            assert_eq!(c.detecting_tests & 0b10101010, 0);
        }
    }

    #[test]
    fn stuck_sum_line_detected_by_every_test() {
        let classes = fault_classes(None);
        let sum_sa0 = classes
            .iter()
            .find(|c| c.members.contains(&FaFault { line: Line::Sum, stuck_one: false }))
            .unwrap();
        // sum s-a-0 flips the output whenever the good sum is 1: tests
        // with odd population count (T1, T2, T4, T7).
        assert_eq!(sum_sa0.detecting_tests, 0b1001_0110);
    }

    #[test]
    fn some_fault_requires_t1_when_carry_cone_considered() {
        // Within a single cell, classes detected ONLY by T1 (abc=001):
        // e.g. the and2/x1and path faults that matter only when ci=1 and
        // exactly one... enumerate and require at least one class whose
        // mask is a subset of the "difficult" tests {T1,T2,T5,T6}.
        let classes = fault_classes(None);
        let difficult = (1u8 << 1) | (1 << 2) | (1 << 5) | (1 << 6);
        assert!(
            classes.iter().any(|c| c.detecting_tests & !difficult == 0),
            "no class is confined to the difficult tests"
        );
    }
}
