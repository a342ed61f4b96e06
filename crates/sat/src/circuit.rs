//! Hash-consed boolean circuit with lazy Tseitin emission into a [`Solver`].
//!
//! Gates are two-input AND and XOR nodes over *signed edges* ([`GLit`]):
//! bit 0 of the packed representation is a complement flag, mirroring the
//! literal packing of the solver. Structural hashing plus constant folding
//! keeps shared cones (fault-free vs. faulty copies of a netlist) physically
//! shared — the miter only pays for the downstream fanout of the fault site.
//!
//! CNF is emitted lazily: a gate gets a solver variable (and its defining
//! Tseitin clauses) only when some constraint actually references it, so
//! a solver holds only the cone of influence of what was asserted. The
//! emission walk is an explicit work stack because filter cones reach tens
//! of thousands of gates deep — native recursion would overflow.
//!
//! [`Circuit::truncate`] drops every gate added after a mark and forgets
//! every emitted literal: the redundancy prover keeps the good machine's
//! gates, adds one fault's gates after them, and truncates back before
//! the next fault emits into a fresh solver.

use crate::solver::{Lit, Solver};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A signed edge into the gate graph: `gate_index << 1 | complement`.
///
/// Two reserved values encode the constants: [`GLit::FALSE`] and
/// [`GLit::TRUE`] (gate index 0 is the constant-false node).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GLit(pub u32);

impl GLit {
    /// The constant-false edge.
    pub const FALSE: GLit = GLit(0);
    /// The constant-true edge.
    pub const TRUE: GLit = GLit(1);

    fn new(index: u32, complement: bool) -> Self {
        GLit(index << 1 | u32::from(complement))
    }

    fn index(self) -> u32 {
        self.0 >> 1
    }

    fn complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complement of this edge.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        GLit(self.0 ^ 1)
    }

    /// True when this edge is one of the two constants.
    #[must_use]
    pub fn is_const(self) -> bool {
        self.index() == 0
    }

    /// The boolean value, if this edge is constant.
    #[must_use]
    pub fn const_value(self) -> Option<bool> {
        self.is_const().then(|| self.complemented())
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Gate {
    /// A free input variable.
    Input,
    /// Two-input AND of signed edges (operands stored sorted).
    And(GLit, GLit),
    /// Two-input XOR of signed edges (operands stored sorted, sign-normalized).
    Xor(GLit, GLit),
}

/// Multiplicative hasher for the structural-hash table (the FxHash
/// step: add the word, multiply by an odd constant). The keys are the
/// circuit's own gates, never outside input, and the table is never
/// iterated, so neither flooding resistance nor hash order matters.
#[derive(Default)]
struct GateHasher(u64);

impl GateHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for GateHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The product's high bits are the well-mixed ones; the table
        // picks buckets by the low bits.
        self.0.rotate_left(26)
    }
}

/// `emitted` entry of a gate that has no solver variable yet.
const UNEMITTED: Lit = Lit(u32::MAX);

/// A hash-consed AND/XOR gate graph with lazy CNF emission.
pub struct Circuit {
    gates: Vec<Gate>,
    cons: HashMap<Gate, u32, BuildHasherDefault<GateHasher>>,
    /// Solver literal (positive polarity) of each gate, indexed like
    /// `gates`; [`UNEMITTED`] until the gate is emitted.
    emitted: Vec<Lit>,
    /// The gates with an `emitted` literal, in emission order.
    emission: Vec<u32>,
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit {
    /// An empty circuit (just the constant node).
    #[must_use]
    pub fn new() -> Self {
        Circuit {
            // Gate index 0 is the constant-false node; it is never emitted.
            gates: vec![Gate::Input],
            cons: HashMap::default(),
            emitted: vec![UNEMITTED],
            emission: Vec::new(),
        }
    }

    /// Number of gates, excluding the constant node.
    #[must_use]
    pub fn len(&self) -> usize {
        self.gates.len() - 1
    }

    /// True when the circuit holds no gates beyond the constant node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keeps the first `len` gates, dropping every later gate and its
    /// structural-hash entry, and forgets every emitted solver literal:
    /// the next [`Circuit::lit`] emits into a fresh solver. A gate built
    /// again after this gets the index and edge it would get in a circuit
    /// that was only ever built up to `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`Circuit::len`].
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.len(), "cannot truncate {} gates to {len}", self.len());
        for gate in self.gates.drain(len + 1..) {
            if gate != Gate::Input {
                self.cons.remove(&gate);
            }
        }
        self.emitted.truncate(len + 1);
        for idx in self.emission.drain(..) {
            if let Some(lit) = self.emitted.get_mut(idx as usize) {
                *lit = UNEMITTED;
            }
        }
    }

    /// Allocate a fresh primary input.
    pub fn input(&mut self) -> GLit {
        let idx = self.gates.len() as u32;
        self.gates.push(Gate::Input);
        self.emitted.push(UNEMITTED);
        GLit::new(idx, false)
    }

    /// AND of two edges, with constant folding and structural hashing.
    pub fn and(&mut self, a: GLit, b: GLit) -> GLit {
        // Constant and trivial cases.
        if a == GLit::FALSE || b == GLit::FALSE || a == b.not() {
            return GLit::FALSE;
        }
        if a == GLit::TRUE {
            return b;
        }
        if b == GLit::TRUE || a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Gate::And(a, b))
    }

    /// OR via De Morgan.
    pub fn or(&mut self, a: GLit, b: GLit) -> GLit {
        self.and(a.not(), b.not()).not()
    }

    /// XOR of two edges, with constant folding and sign normalization
    /// (complements on operands are hoisted onto the output).
    pub fn xor(&mut self, a: GLit, b: GLit) -> GLit {
        if a == b {
            return GLit::FALSE;
        }
        if a == b.not() {
            return GLit::TRUE;
        }
        if a.is_const() {
            return if a == GLit::TRUE { b.not() } else { b };
        }
        if b.is_const() {
            return if b == GLit::TRUE { a.not() } else { a };
        }
        let out_sign = a.complemented() ^ b.complemented();
        let (a, b) = (GLit::new(a.index(), false), GLit::new(b.index(), false));
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let g = self.intern(Gate::Xor(a, b));
        if out_sign {
            g.not()
        } else {
            g
        }
    }

    /// Three-way majority (the full-adder carry function).
    pub fn majority(&mut self, a: GLit, b: GLit, c: GLit) -> GLit {
        let ab = self.and(a, b);
        let ac = self.and(a, c);
        let bc = self.and(b, c);
        let t = self.or(ab, ac);
        self.or(t, bc)
    }

    /// If-then-else: `cond ? t : e`.
    pub fn mux(&mut self, cond: GLit, t: GLit, e: GLit) -> GLit {
        let a = self.and(cond, t);
        let b = self.and(cond.not(), e);
        self.or(a, b)
    }

    fn intern(&mut self, gate: Gate) -> GLit {
        if let Some(&idx) = self.cons.get(&gate) {
            return GLit::new(idx, false);
        }
        let idx = self.gates.len() as u32;
        self.gates.push(gate);
        self.emitted.push(UNEMITTED);
        self.cons.insert(gate, idx);
        GLit::new(idx, false)
    }

    /// The solver literal for `edge`, emitting Tseitin clauses for its cone
    /// on first use. Constants must be handled by the caller — pass only
    /// non-constant edges (checked).
    pub fn lit(&mut self, solver: &mut Solver, edge: GLit) -> Lit {
        assert!(!edge.is_const(), "constant edges have no solver literal");
        // Iterative post-order emission: cones run ~20k gates deep.
        let mut stack: Vec<(u32, bool)> = vec![(edge.index(), false)];
        while let Some((idx, expanded)) = stack.pop() {
            if self.emitted[idx as usize] != UNEMITTED {
                continue;
            }
            let gate = self.gates[idx as usize];
            if !expanded {
                stack.push((idx, true));
                match gate {
                    Gate::Input => {}
                    Gate::And(a, b) | Gate::Xor(a, b) => {
                        for op in [a, b] {
                            if !op.is_const() && self.emitted[op.index() as usize] == UNEMITTED {
                                stack.push((op.index(), false));
                            }
                        }
                    }
                }
                continue;
            }
            let out = Lit::pos(solver.new_var());
            match gate {
                Gate::Input => {}
                Gate::And(a, b) => {
                    let la = self.operand_lit(a);
                    let lb = self.operand_lit(b);
                    // out <-> a & b
                    solver.add_clause(&[out.negate(), la]);
                    solver.add_clause(&[out.negate(), lb]);
                    solver.add_clause(&[out, la.negate(), lb.negate()]);
                }
                Gate::Xor(a, b) => {
                    let la = self.operand_lit(a);
                    let lb = self.operand_lit(b);
                    // out <-> a ^ b
                    solver.add_clause(&[out.negate(), la, lb]);
                    solver.add_clause(&[out.negate(), la.negate(), lb.negate()]);
                    solver.add_clause(&[out, la.negate(), lb]);
                    solver.add_clause(&[out, la, lb.negate()]);
                }
            }
            self.emitted[idx as usize] = out;
            self.emission.push(idx);
        }
        let base = self.emitted[edge.index() as usize];
        if edge.complemented() {
            base.negate()
        } else {
            base
        }
    }

    /// Literal for an operand edge that is already emitted (internal).
    fn operand_lit(&self, edge: GLit) -> Lit {
        debug_assert!(!edge.is_const());
        let base = self.emitted[edge.index() as usize];
        debug_assert_ne!(base, UNEMITTED);
        if edge.complemented() {
            base.negate()
        } else {
            base
        }
    }

    /// Assert that `edge` is true in every model (handles constants).
    /// Returns `false` if this makes the instance trivially unsatisfiable.
    pub fn assert_true(&mut self, solver: &mut Solver, edge: GLit) -> bool {
        match edge.const_value() {
            Some(true) => true,
            Some(false) => solver.add_clause(&[]),
            None => {
                let l = self.lit(solver, edge);
                solver.add_clause(&[l])
            }
        }
    }

    /// Assert that at least one of `edges` is true. Constant-true edges make
    /// the constraint vacuous; constant-false edges are dropped.
    pub fn assert_any(&mut self, solver: &mut Solver, edges: &[GLit]) -> bool {
        let mut lits = Vec::with_capacity(edges.len());
        for &e in edges {
            match e.const_value() {
                Some(true) => return true,
                Some(false) => {}
                None => lits.push(self.lit(solver, e)),
            }
        }
        solver.add_clause(&lits)
    }

    /// Evaluate `edge` under the solver's current SAT model.
    #[must_use]
    pub fn model_value(&self, solver: &Solver, edge: GLit) -> bool {
        if let Some(v) = edge.const_value() {
            return v;
        }
        // Unemitted gates are unconstrained; evaluate structurally from
        // emitted fringes so witnesses stay consistent.
        let base = match self.emitted[edge.index() as usize] {
            UNEMITTED => self.eval_structural(solver, edge.index()),
            l => solver.model_lit(l),
        };
        base ^ edge.complemented()
    }

    fn eval_structural(&self, solver: &Solver, index: u32) -> bool {
        match self.gates[index as usize] {
            Gate::Input => false, // unconstrained input: any value works
            Gate::And(a, b) => self.model_value(solver, a) && self.model_value(solver, b),
            Gate::Xor(a, b) => self.model_value(solver, a) ^ self.model_value(solver, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    #[test]
    fn constant_folding() {
        let mut c = Circuit::new();
        let x = c.input();
        assert_eq!(c.and(x, GLit::FALSE), GLit::FALSE);
        assert_eq!(c.and(x, GLit::TRUE), x);
        assert_eq!(c.and(x, x.not()), GLit::FALSE);
        assert_eq!(c.xor(x, x), GLit::FALSE);
        assert_eq!(c.xor(x, x.not()), GLit::TRUE);
        assert_eq!(c.xor(x, GLit::FALSE), x);
        assert_eq!(c.xor(x, GLit::TRUE), x.not());
    }

    #[test]
    fn structural_hashing_shares_gates() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let a = c.and(x, y);
        let b = c.and(y, x);
        assert_eq!(a, b);
        let n = c.len();
        let _ = c.and(x, y);
        assert_eq!(c.len(), n);
        // XOR sign normalization: x ^ !y == !(x ^ y).
        let p = c.xor(x, y.not());
        let q = c.xor(x, y);
        assert_eq!(p, q.not());
    }

    #[test]
    fn tseitin_xor_and_chain_solves() {
        let mut c = Circuit::new();
        let mut s = Solver::new();
        let x = c.input();
        let y = c.input();
        let z = c.input();
        // f = (x & y) ^ z; assert f and !z -> x & y must hold.
        let xy = c.and(x, y);
        let f = c.xor(xy, z);
        assert!(c.assert_true(&mut s, f));
        assert!(c.assert_true(&mut s, z.not()));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(c.model_value(&s, x));
        assert!(c.model_value(&s, y));
        assert!(!c.model_value(&s, z));
    }

    #[test]
    fn shared_cone_miter_of_identical_functions_is_unsat() {
        let mut c = Circuit::new();
        let mut s = Solver::new();
        let x = c.input();
        let y = c.input();
        // Two structurally different forms of the same function:
        // x ^ y  vs  (x & !y) | (!x & y).
        let a = c.xor(x, y);
        let t1 = c.and(x, y.not());
        let t2 = c.and(x.not(), y);
        let b = c.or(t1, t2);
        let diff = c.xor(a, b);
        // diff folds to a real gate network; the miter must be UNSAT.
        assert!(c.assert_true(&mut s, diff) || diff == GLit::FALSE);
        if diff != GLit::FALSE {
            assert_eq!(s.solve(), SolveResult::Unsat);
        }
    }

    #[test]
    fn majority_matches_truth_table() {
        for bits in 0..8u32 {
            let mut c = Circuit::new();
            let mut s = Solver::new();
            let ins: Vec<GLit> = (0..3).map(|_| c.input()).collect();
            let m = c.majority(ins[0], ins[1], ins[2]);
            for (i, &l) in ins.iter().enumerate() {
                let want = bits >> i & 1 == 1;
                let edge = if want { l } else { l.not() };
                assert!(c.assert_true(&mut s, edge));
            }
            assert_eq!(s.solve(), SolveResult::Sat);
            let expect = bits.count_ones() >= 2;
            assert_eq!(c.model_value(&s, m), expect, "bits {bits:03b}");
        }
    }

    #[test]
    fn truncate_forgets_everything_added_since() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let f = c.and(x, y);
        let mark = c.len();
        let mut s = Solver::new();
        let lf = c.lit(&mut s, f);
        assert_eq!(lf, Lit::pos(2), "x, y, then the AND");

        // First use: a fresh input and an XOR, both emitted.
        let z = c.input();
        let g = c.xor(f, z);
        let _ = c.lit(&mut s, g);

        // After truncating, the same slots hold different gates: neither
        // the old hash-cons entry nor any old emitted literal may survive.
        c.truncate(mark);
        assert_eq!(c.len(), mark);
        assert_eq!(c.input(), z);
        let h = c.and(f, z);
        assert_eq!(h, g, "the AND takes the slot the XOR had");
        let mut fresh = Solver::new();
        let lh = c.lit(&mut fresh, h);
        assert_eq!(fresh.num_vars(), 5, "x, y, f, z and the AND are emitted afresh");
        assert_eq!(lh, Lit::pos(4));
        let g2 = c.xor(f, z);
        assert_ne!(g2, h);
        assert_eq!(c.len(), mark + 3);
        fresh.add_clause(&[lh]);
        assert_eq!(fresh.solve(), SolveResult::Sat);
        assert!(c.model_value(&fresh, x) && c.model_value(&fresh, y) && c.model_value(&fresh, z));
    }
}
