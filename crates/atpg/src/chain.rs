//! Chain-decomposition justification for accumulator-window faults.
//!
//! The residues the stimulus sweeps cannot crack live on accumulator
//! adders: their cells demand a *joint* condition on both operands
//! (for example "both operand bits zero at the sign cell while the
//! low bits generate a carry") that neither constant streams nor
//! two-phase probes reach. But in every filter form this workspace
//! builds, an accumulator operand is structurally a **signed sum of
//! independently-controllable terms**:
//!
//! - transposed form: the partial-sum register unrolls into one CSD
//!   product per earlier tap, each a pure function of its own delayed
//!   sample;
//! - folded symmetric form: the combinational chain unrolls into one
//!   product per coefficient pair, each a function of its own
//!   pair-adder pre-sum, realizable through two dedicated delay-line
//!   slots.
//!
//! Because the terms draw on **pairwise-disjoint** input samples, the
//! joint condition decomposes exactly. The key reduction: the
//! full-adder combination at cell `c` depends only on the operand
//! values **mod `2^(c+1)`** (the cell bits and the carry out of the
//! low bits). Each operand's reachable residue set is a subset-sum
//! closure over its terms' value menus, computed exactly by a bitset
//! convolution over `Z_{2^(c+1)}`. The solver therefore returns one
//! of:
//!
//! - a constructive witness — residues realizing a detecting
//!   combination, walked back through the closure stages into
//!   concrete term entries and an input pattern (still confirmed on
//!   the fault oracle by the caller);
//! - a **sound untestability proof** — the menus are exhaustive, the
//!   slots disjoint, and (checked) the fault site is outside the
//!   operand cones, so an empty intersection over every detecting
//!   combination means no input stream ever activates the fault;
//! - unknown — the structure did not decompose, and other strategies
//!   must decide.

use crate::cone::{ConeAnalysis, ConeEval, Purity};
use faultsim::FaultSite;
use rtl::eval::{cell_combos, node_word};
use rtl::{Netlist, NodeId, NodeKind};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Arc, Mutex, PoisonError};

/// One row of a term's value menu: the term's word and the sample(s)
/// realizing it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    value: i64,
    /// Sample for the term's first slot.
    u: i64,
    /// Sample for the second slot (pair terms only).
    v: i64,
}

/// The delay-line slot(s) a term's samples occupy.
#[derive(Debug, Clone, Copy)]
enum Slots {
    /// A pure term: one sample, `delay` cycles before the probe.
    Sample { delay: u32 },
    /// A pair term: `u` lands `du` cycles before the probe, `v` lands
    /// `dv` cycles before it.
    Pair { du: u32, dv: u32 },
}

impl Slots {
    fn delays(self) -> [Option<u32>; 2] {
        match self {
            Slots::Sample { delay } => [Some(delay), None],
            Slots::Pair { du, dv } => [Some(du), Some(dv)],
        }
    }
}

/// One independently-controllable summand of an operand.
#[derive(Debug, Clone)]
struct Term {
    sign: i64,
    slots: Slots,
    entries: Arc<Vec<Entry>>,
}

/// An operand decomposed as `constant + Σ sign·term`.
#[derive(Debug, Clone, Default)]
struct Decomposition {
    constant: i64,
    terms: Vec<Term>,
    /// Indices of every node visited while unrolling (the operand's
    /// combined cone) — used to rule out the fault site feeding its
    /// own operands.
    support: HashSet<usize>,
}

/// What the solver established for one fault.
#[derive(Debug)]
pub enum ChainOutcome {
    /// Input patterns realizing a detecting combination, one per
    /// feasible combination. Each still needs the fault oracle's
    /// confirmation (activation is proven; observability is not).
    Patterns(Vec<Vec<i64>>),
    /// Sound proof that no input stream activates any detecting
    /// combination: the fault is untestable.
    Unactivatable,
    /// The operands did not decompose; nothing was established.
    Unknown,
}

/// A fixed-size bit set over `Z_m` residues supporting the cyclic
/// shift-or that implements subset-sum convolution.
#[derive(Clone)]
struct ResidueSet {
    words: Vec<u64>,
    bits: usize,
}

impl ResidueSet {
    fn new(bits: usize) -> Self {
        assert!(bits.is_power_of_two());
        ResidueSet { words: vec![0; bits.div_ceil(64)], bits }
    }

    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    fn is_full(&self) -> bool {
        if self.bits < 64 {
            self.words[0] == (1u64 << self.bits) - 1
        } else {
            self.words.iter().all(|&w| w == u64::MAX)
        }
    }

    fn fill(&mut self) {
        if self.bits < 64 {
            self.words[0] = (1u64 << self.bits) - 1;
        } else {
            self.words.fill(u64::MAX);
        }
    }

    /// `self |= rotate_left(src, sh)` over the `bits`-residue ring.
    fn or_rotated(&mut self, src: &ResidueSet, sh: usize) {
        debug_assert_eq!(self.bits, src.bits);
        let sh = sh % self.bits;
        if self.bits < 64 {
            let mask = (1u64 << self.bits) - 1;
            let x = src.words[0];
            let rot = if sh == 0 { x } else { ((x << sh) | (x >> (self.bits - sh))) & mask };
            self.words[0] |= rot;
            return;
        }
        let n = self.words.len();
        let (word_sh, bit_sh) = (sh / 64, sh % 64);
        for i in 0..n {
            let w = src.words[i];
            if w == 0 {
                continue;
            }
            let j = (i + word_sh) % n;
            if bit_sh == 0 {
                self.words[j] |= w;
            } else {
                self.words[j] |= w << bit_sh;
                self.words[(j + 1) % n] |= w >> (64 - bit_sh);
            }
        }
    }
}

/// Distinct reachable pre-sums, each with the first realizing
/// `(u, v)` sample pair, ascending.
type PreMenu = Vec<(i64, i64, i64)>;

/// Subset-sum stages: entry `k` holds the residues reachable by the
/// constant plus the first `k` terms.
type StageTable = Vec<ResidueSet>;

/// One of the engine's memo tables. Every entry is a pure function of
/// the netlist and its key, so threads may share the table: see
/// [`memoized`].
type Memo<K, V> = Mutex<HashMap<K, Arc<V>>>;

/// Looks `key` up in `cache`, building and inserting the entry on a
/// miss. The lock is held for the lookup and for the insert, never
/// while `build` runs, so two threads missing the same key at once
/// both build it; the entries are equal and the first insert wins. A
/// poisoned lock is taken over: each update is one insert of a
/// finished entry, so the map is valid whenever the lock is free.
fn memoized<K: Eq + Hash, V>(cache: &Memo<K, V>, key: K, build: impl FnOnce() -> V) -> Arc<V> {
    let lock = || cache.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(hit) = lock().get(&key) {
        return Arc::clone(hit);
    }
    let built = Arc::new(build());
    Arc::clone(lock().entry(key).or_insert(built))
}

/// The chain-decomposition engine for one netlist. It is `Sync`: its
/// memo tables sit behind locks, so the threads of one session share
/// them.
pub struct ChainJustifier<'n> {
    netlist: &'n Netlist,
    /// The owning justifier's purity classification.
    purity: Arc<ConeAnalysis>,
    input_bits: u32,
    align: u32,
    /// Value menus for pure nodes, keyed by node index (one entry per
    /// input sample, in sample order; exhaustive by construction).
    sample_tables: Memo<usize, Vec<Entry>>,
    /// Value menus for pair-factored subgraphs, keyed by the factored
    /// node's index (one entry per distinct reachable value;
    /// exhaustive by construction).
    pair_tables: Memo<usize, Vec<Entry>>,
    /// Distinct reachable pre-sums per pair base — exhaustive by
    /// construction.
    pre_menus: Memo<usize, PreMenu>,
    /// Subset-sum stages per (operand node, modulus bits).
    stage_cache: Memo<(usize, u32), StageTable>,
    /// Node values under the all-zero sample (constants included).
    const_values: Vec<i64>,
}

impl<'n> ChainJustifier<'n> {
    /// An engine for `input_bits`-wide samples left-aligned into the
    /// datapath, over the netlist's purity classification `purity`.
    pub fn new(netlist: &'n Netlist, purity: Arc<ConeAnalysis>, input_bits: u32) -> Self {
        let mut ev = ConeEval::new(netlist, input_bits);
        ev.eval(0);
        let const_values = ev.values().to_vec();
        ChainJustifier {
            netlist,
            purity,
            input_bits,
            align: netlist.width() - input_bits,
            sample_tables: Mutex::default(),
            pair_tables: Mutex::default(),
            pre_menus: Mutex::default(),
            stage_cache: Mutex::default(),
            const_values,
        }
    }

    fn lo(&self) -> i64 {
        -(1i64 << (self.input_bits - 1))
    }

    fn hi(&self) -> i64 {
        1i64 << (self.input_bits - 1)
    }

    /// Decides a fault on an adder or subtractor cell: a witness
    /// pattern per feasible detecting combination, a sound
    /// untestability proof, or `Unknown`.
    pub fn solve(&self, site: &FaultSite, flush: usize) -> ChainOutcome {
        let (a_op, b_op) = match self.netlist.node(site.node).kind {
            NodeKind::Add { a, b } | NodeKind::Sub { a, b } => (a, b),
            _ => return ChainOutcome::Unknown,
        };
        // Faults inside one CSD product: both operands are functions
        // of the same pair pre-sum — a single-variable problem the
        // shared-base path decides exhaustively.
        if let Some(outcome) = self.shared_base_solve(site, a_op, b_op, flush) {
            return outcome;
        }
        let (Some(da), Some(db)) = (self.decompose(a_op), self.decompose(b_op)) else {
            return ChainOutcome::Unknown;
        };
        // Terms must draw on pairwise-disjoint delay slots, or the
        // sides are not independently assignable.
        let mut slots = HashSet::new();
        for term in da.terms.iter().chain(&db.terms) {
            for d in term.slots.delays().into_iter().flatten() {
                if !slots.insert(d) {
                    return ChainOutcome::Unknown;
                }
            }
        }
        let max_delay = slots.iter().copied().max().unwrap_or(0);
        if max_delay > 120 {
            return ChainOutcome::Unknown;
        }
        // An untestability verdict additionally needs the operand
        // cones free of the fault site itself (else the menus,
        // computed fault-free, do not bound the faulty machine).
        let sound =
            !da.support.contains(&site.node.index()) && !db.support.contains(&site.node.index());
        let m_bits = site.cell + 1;
        let stages_a = self.stages(a_op, &da, m_bits);
        let stages_b = self.stages(b_op, &db, m_bits);
        let is_sub = matches!(self.netlist.node(site.node).kind, NodeKind::Sub { .. });
        let mut patterns = Vec::new();
        for t in 0..8u8 {
            if site.detecting_tests & (1 << t) == 0 {
                continue;
            }
            let pairs = feasible_pairs(
                stages_a.last().expect("stages start at the constant"),
                stages_b.last().expect("stages start at the constant"),
                is_sub,
                site.cell,
                t,
                PAIRS_PER_COMBO,
            );
            if pairs.is_empty() {
                continue;
            }
            // Residues pin only the low bits: diversify the walk salt
            // and the free-word context too, so high bits and the
            // surrounding accumulator state (which decide downstream
            // propagation) vary across candidates. Sparse combinations
            // (few feasible pairs) get extra salts per pair so the
            // witness count stays level.
            let spread = PAIRS_PER_COMBO.div_ceil(pairs.len());
            // Propagation through downstream truncation is context-
            // sensitive (a few percent of contexts succeed on the
            // hardest sites), so the witness budget per combination is
            // sized for it: this is the classic ATPG random-fill of
            // don't-care positions around pinned deterministic bits.
            let variants = (WITNESS_BUDGET / (pairs.len() * spread)).clamp(3, 24) as u64;
            for (pi, &(ra, rb)) in pairs.iter().enumerate() {
                for s in 0..spread {
                    let salt = pi * spread + s;
                    let picks_a = reconstruct(&da, &stages_a, ra, m_bits, salt);
                    let picks_b = reconstruct(&db, &stages_b, rb, m_bits, salt);
                    for variant in 0..variants {
                        patterns.push(self.pattern(
                            &da,
                            &picks_a,
                            &db,
                            &picks_b,
                            max_delay,
                            flush,
                            (site.node.index() as u64) << 16 ^ (salt as u64) << 8 ^ variant,
                            variant != 0,
                        ));
                    }
                }
            }
        }
        if !patterns.is_empty() {
            ChainOutcome::Patterns(patterns)
        } else if sound {
            ChainOutcome::Unactivatable
        } else {
            ChainOutcome::Unknown
        }
    }

    /// Decides a fault whose operands both factor through the *same*
    /// pair base — a fault inside one CSD product, where the pre-sum
    /// is the only free variable. The pre-sum menu is exhaustive, so
    /// this path is decisive in both directions: spread witnesses when
    /// a detecting combination is reached, a sound untestability proof
    /// when none is. `None` when the operands do not share a base
    /// (the general decomposition path applies instead).
    fn shared_base_solve(
        &self,
        site: &FaultSite,
        a_op: NodeId,
        b_op: NodeId,
        flush: usize,
    ) -> Option<ChainOutcome> {
        if !matches!(self.purity.purity(a_op), Purity::Window)
            || !matches!(self.purity.purity(b_op), Purity::Window)
        {
            return None;
        }
        let mut scratch = Decomposition::default();
        let base = self.pair_base(a_op, &mut scratch)?;
        if self.pair_base(b_op, &mut scratch)? != base {
            return None;
        }
        let (NodeKind::Add { a: p1, b: p2 } | NodeKind::Sub { a: p1, b: p2 }) =
            self.netlist.node(base).kind
        else {
            unreachable!("pair bases are adders");
        };
        let (Purity::Pure(d1), Purity::Pure(d2)) = (self.purity.purity(p1), self.purity.purity(p2))
        else {
            unreachable!("pair bases have pure operands");
        };
        let menu = self.pre_menu(base, p1, p2);
        // Cone members between the base and both operands, ascending
        // id (creation order is topological).
        let mut members: Vec<usize> = Vec::new();
        let mut stack = vec![a_op, b_op];
        let mut seen = HashSet::new();
        while let Some(n) = stack.pop() {
            if n == base || !seen.insert(n.index()) {
                continue;
            }
            members.push(n.index());
            for op in self.netlist.node(n).kind.operands() {
                if !matches!(self.purity.purity(op), Purity::Const) {
                    stack.push(op);
                }
            }
        }
        members.sort_unstable();
        let sound = !scratch.support.contains(&site.node.index());
        let q = self.netlist.format();
        let site_kind = self.netlist.node(site.node).kind;
        let mut values = self.const_values.clone();
        let mut hits: Vec<Vec<(i64, i64)>> = vec![Vec::new(); 8];
        for &(s, u, v) in menu.iter() {
            values[base.index()] = s;
            for &m in &members {
                values[m] = node_word(q, self.netlist.nodes()[m].kind, &values);
            }
            let t = cell_combos(q, site_kind, &values)[site.cell as usize];
            if site.detecting_tests & (1 << t) != 0 {
                hits[t as usize].push((u, v));
            }
        }
        let len = d1.max(d2) as usize + 1;
        let mut patterns = Vec::new();
        for list in hits.iter().filter(|l| !l.is_empty()) {
            // Spread the witnesses across the menu: the pre-sum pins
            // the combination, but downstream propagation still varies
            // with it.
            let step = list.len().div_ceil(PAIRS_PER_COMBO);
            for &(u, v) in list.iter().step_by(step) {
                // The fault cone is pure in exactly the two slots, so
                // every other word is free context: diversify it (and
                // prepend a warm-up) to vary the accumulator state the
                // activated difference must propagate through.
                for variant in 0..3u64 {
                    let pre = if variant == 0 { 0 } else { 8 };
                    let mut words = vec![0i64; pre + len + flush];
                    if variant > 0 {
                        let mut state = (base.index() as u64) << 8 | variant;
                        let span = (self.hi() - self.lo()) as u64;
                        for w in words.iter_mut() {
                            *w = (self.lo() + (splitmix(&mut state) % span) as i64) << self.align;
                        }
                    }
                    words[pre + len - 1 - d1 as usize] = u << self.align;
                    words[pre + len - 1 - d2 as usize] = v << self.align;
                    patterns.push(words);
                }
            }
        }
        Some(if !patterns.is_empty() {
            ChainOutcome::Patterns(patterns)
        } else if sound {
            ChainOutcome::Unactivatable
        } else {
            ChainOutcome::Unknown
        })
    }

    /// The subset-sum stages of one operand over `Z_{2^m_bits}`:
    /// `stages[k]` holds the residues reachable by the constant plus
    /// the first `k` terms (so the last stage is the operand's exact
    /// reachable residue set).
    fn stages(&self, op: NodeId, d: &Decomposition, m_bits: u32) -> Arc<StageTable> {
        memoized(&self.stage_cache, (op.index(), m_bits), || {
            let m = 1usize << m_bits;
            let mut stages = Vec::with_capacity(d.terms.len() + 1);
            let mut first = ResidueSet::new(m);
            first.set(residue(d.constant, m_bits));
            stages.push(first);
            for term in &d.terms {
                let prev = stages.last().expect("stages start at the constant");
                let mut next = ResidueSet::new(m);
                if prev.is_full() {
                    next.fill();
                } else {
                    let deltas: HashSet<usize> =
                        term.entries.iter().map(|e| residue(term.sign * e.value, m_bits)).collect();
                    for delta in deltas {
                        next.or_rotated(prev, delta);
                    }
                }
                stages.push(next);
            }
            stages
        })
    }

    /// The raw input pattern realizing one entry pick per term on each
    /// side, flush appended. With `context` set, the words no term
    /// claims — the operands provably do not depend on them — are
    /// filled from a deterministic stream keyed by `seed`, and a
    /// warm-up prefix is prepended: activation is unchanged, but the
    /// accumulator state the activated difference propagates through
    /// varies.
    #[allow(clippy::too_many_arguments)]
    fn pattern(
        &self,
        da: &Decomposition,
        picks_a: &[usize],
        db: &Decomposition,
        picks_b: &[usize],
        max_delay: u32,
        flush: usize,
        seed: u64,
        context: bool,
    ) -> Vec<i64> {
        let len = max_delay as usize + 1;
        let pre = if context { 8 } else { 0 };
        let mut words = vec![0i64; pre + len + flush];
        if context {
            let mut state = seed;
            let span = (self.hi() - self.lo()) as u64;
            for w in words.iter_mut() {
                *w = (self.lo() + (splitmix(&mut state) % span) as i64) << self.align;
            }
        }
        let mut place = |d: &Decomposition, picks: &[usize]| {
            for (term, &pick) in d.terms.iter().zip(picks) {
                let e = term.entries[pick];
                match term.slots {
                    Slots::Sample { delay } => {
                        words[pre + len - 1 - delay as usize] = e.u << self.align;
                    }
                    Slots::Pair { du, dv } => {
                        words[pre + len - 1 - du as usize] = e.u << self.align;
                        words[pre + len - 1 - dv as usize] = e.v << self.align;
                    }
                }
            }
        };
        place(da, picks_a);
        place(db, picks_b);
        words
    }

    /// Decomposes an operand into `constant + Σ sign·term`, or `None`
    /// when its structure does not unroll.
    fn decompose(&self, node: NodeId) -> Option<Decomposition> {
        let mut out = Decomposition::default();
        if self.unroll(node, 0, 1, &mut out) && out.terms.len() <= 96 {
            Some(out)
        } else {
            None
        }
    }

    fn unroll(&self, node: NodeId, delay: u32, sign: i64, out: &mut Decomposition) -> bool {
        let q = self.netlist.format();
        out.support.insert(node.index());
        match self.purity.purity(node) {
            Purity::Const => {
                out.constant = q.wrap(out.constant + sign * self.const_values[node.index()]);
                true
            }
            Purity::Pure(d) => {
                out.terms.push(Term {
                    sign,
                    slots: Slots::Sample { delay: d + delay },
                    entries: self.sample_table(node),
                });
                true
            }
            Purity::Window => match self.netlist.node(node).kind {
                NodeKind::Register { src } => self.unroll(src, delay + 1, sign, out),
                NodeKind::Add { a, b } | NodeKind::Sub { a, b } => {
                    // A whole CSD product over one pair pre-sum factors
                    // as a single term; only unfactorable adders unroll
                    // into their operands.
                    if let Some(term) = self.pair_term(node, delay, sign, out) {
                        out.terms.push(term);
                        return true;
                    }
                    let flip = if matches!(self.netlist.node(node).kind, NodeKind::Sub { .. }) {
                        -sign
                    } else {
                        sign
                    };
                    self.unroll(a, delay, sign, out) && self.unroll(b, delay, flip, out)
                }
                _ => {
                    if let Some(term) = self.pair_term(node, delay, sign, out) {
                        out.terms.push(term);
                        true
                    } else {
                        false
                    }
                }
            },
        }
    }

    /// Tries to express a window node as a single term over one
    /// pair-adder pre-sum: the node's input dependence must factor
    /// entirely through one `Add`/`Sub` of two pure operands at
    /// distinct delays.
    fn pair_term(
        &self,
        node: NodeId,
        delay: u32,
        sign: i64,
        out: &mut Decomposition,
    ) -> Option<Term> {
        let base = self.pair_base(node, out)?;
        let (NodeKind::Add { a: p1, b: p2 } | NodeKind::Sub { a: p1, b: p2 }) =
            self.netlist.node(base).kind
        else {
            unreachable!("pair bases are adders");
        };
        let (Purity::Pure(d1), Purity::Pure(d2)) = (self.purity.purity(p1), self.purity.purity(p2))
        else {
            unreachable!("pair bases have pure operands");
        };
        let entries = self.pair_table(node, base, p1, p2);
        Some(Term { sign, slots: Slots::Pair { du: d1 + delay, dv: d2 + delay }, entries })
    }

    /// `true` if the node is an adder/subtractor of two pure operands
    /// (necessarily at distinct delays, or it would itself be pure).
    fn is_pair_base(&self, node: NodeId) -> bool {
        matches!(self.purity.purity(node), Purity::Window)
            && match self.netlist.node(node).kind {
                NodeKind::Add { a, b } | NodeKind::Sub { a, b } => {
                    matches!(self.purity.purity(a), Purity::Pure(_))
                        && matches!(self.purity.purity(b), Purity::Pure(_))
                }
                _ => false,
            }
    }

    /// The unique pair base the node's input dependence factors
    /// through, if any. Visited nodes join the decomposition's support
    /// either way.
    fn pair_base(&self, node: NodeId, out: &mut Decomposition) -> Option<NodeId> {
        if self.is_pair_base(node) {
            return Some(node);
        }
        let mut base: Option<NodeId> = None;
        let mut stack = vec![node];
        let mut seen = HashSet::new();
        let mut ok = true;
        while let Some(n) = stack.pop() {
            if !seen.insert(n.index()) {
                continue;
            }
            for op in self.netlist.node(n).kind.operands() {
                match self.purity.purity(op) {
                    Purity::Const => {}
                    // A pure leaf outside the base mixes in its own
                    // sample: not factorable.
                    Purity::Pure(_) => ok = false,
                    Purity::Window => {
                        if self.is_pair_base(op) {
                            seen.insert(op.index());
                            match base {
                                None => base = Some(op),
                                Some(b) if b == op => {}
                                Some(_) => ok = false,
                            }
                        } else if matches!(
                            self.netlist.node(op).kind,
                            NodeKind::Register { .. } | NodeKind::Input
                        ) {
                            ok = false;
                        } else {
                            stack.push(op);
                        }
                    }
                }
            }
            if !ok {
                break;
            }
        }
        out.support.extend(seen);
        if ok {
            base
        } else {
            None
        }
    }

    /// The value menu of a pure node, one entry per input sample —
    /// exhaustive over the node's reachable values.
    fn sample_table(&self, node: NodeId) -> Arc<Vec<Entry>> {
        memoized(&self.sample_tables, node.index(), || {
            let mut ev = ConeEval::new(self.netlist, self.input_bits);
            (self.lo()..self.hi())
                .map(|u| {
                    ev.eval(u);
                    Entry { value: ev.value(node), u, v: 0 }
                })
                .collect()
        })
    }

    /// The value menu of a pair-factored subgraph: the node evaluated
    /// over **every** reachable pre-sum value (full `(u, v)` product
    /// enumeration), each with a concrete realizing sample pair —
    /// exhaustive over the term's reachable values.
    fn pair_table(&self, node: NodeId, base: NodeId, p1: NodeId, p2: NodeId) -> Arc<Vec<Entry>> {
        memoized(&self.pair_tables, node.index(), || {
            let menu = self.pre_menu(base, p1, p2);
            // Members of the cone between base and node, ascending id
            // (creation order is topological).
            let mut members: Vec<usize> = Vec::new();
            let mut stack = vec![node];
            let mut seen = HashSet::new();
            while let Some(n) = stack.pop() {
                if n == base || !seen.insert(n.index()) {
                    continue;
                }
                members.push(n.index());
                for op in self.netlist.node(n).kind.operands() {
                    if !matches!(self.purity.purity(op), Purity::Const) {
                        stack.push(op);
                    }
                }
            }
            members.sort_unstable();
            let q = self.netlist.format();
            let mut values = self.const_values.clone();
            let mut entries = Vec::new();
            let mut seen_values = HashSet::new();
            for &(s, u, v) in menu.iter() {
                values[base.index()] = s;
                for &m in &members {
                    values[m] = node_word(q, self.netlist.nodes()[m].kind, &values);
                }
                let value = values[node.index()];
                if seen_values.insert(value) {
                    entries.push(Entry { value, u, v });
                }
            }
            entries
        })
    }

    /// Every distinct reachable pre-sum of a pair base, ascending,
    /// each with the first realizing `(u, v)` sample pair — exhaustive
    /// by full product enumeration over the pure operands' menus.
    fn pre_menu(&self, base: NodeId, p1: NodeId, p2: NodeId) -> Arc<PreMenu> {
        memoized(&self.pre_menus, base.index(), || {
            let (q, kind) = (self.netlist.format(), self.netlist.node(base).kind);
            let f1 = self.sample_table(p1);
            let f2 = self.sample_table(p2);
            // Pre-sums are width-wrapped: index by offset from the most
            // negative representable value.
            let width = self.netlist.width();
            let span = 1usize << width;
            let offset = 1i64 << (width - 1);
            let mut witness: Vec<Option<(i64, i64)>> = vec![None; span];
            let mut values = vec![0i64; self.netlist.nodes().len()];
            for e1 in f1.iter() {
                values[p1.index()] = e1.value;
                for e2 in f2.iter() {
                    values[p2.index()] = e2.value;
                    let s = node_word(q, kind, &values);
                    let idx = (s + offset) as usize;
                    if witness[idx].is_none() {
                        witness[idx] = Some((e1.u, e2.u));
                    }
                }
            }
            witness
                .iter()
                .enumerate()
                .filter_map(|(idx, w)| w.map(|(u, v)| (idx as i64 - offset, u, v)))
                .collect()
        })
    }
}

/// `x mod 2^m_bits`, non-negative.
fn residue(x: i64, m_bits: u32) -> usize {
    (x & ((1i64 << m_bits) - 1)) as usize
}

/// splitmix64: a tiny deterministic stream for context filler words.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Residue pairs collected per feasible combination.
const PAIRS_PER_COMBO: usize = 8;

/// Target witness patterns per feasible combination (split across
/// residue pairs, reconstruction salts, and context variants).
const WITNESS_BUDGET: usize = 96;

/// Residue pairs `(ra, rb)` over `Z_{2^(cell+1)}` realizing
/// full-adder combination `t = (a << 2) | (b_line << 1) | ci` at
/// `cell`, up to `limit` of them. Deterministic, and deliberately
/// spread across the sets (a golden-ratio walk over the `a` low
/// parts, both window edges on the `b` side): residues pin only the
/// low bits, so diversity here buys diversity in the downstream
/// propagation the caller still has to win. Empty iff the combination
/// is infeasible.
fn feasible_pairs(
    ra_set: &ResidueSet,
    rb_set: &ResidueSet,
    is_sub: bool,
    cell: u32,
    t: u8,
    limit: usize,
) -> Vec<(usize, usize)> {
    let m = 1usize << cell; // weight of the target cell
    let want_a = t >> 2 & 1 != 0;
    let want_b_line = t >> 1 & 1 != 0;
    let want_ci = t & 1 != 0;
    // The b operand's own cell bit: complemented on the line for Sub.
    let want_b = want_b_line != is_sub;
    if cell == 0 {
        // No low bits: the carry-in is the subtractor's +1 (or 0).
        if want_ci != is_sub {
            return Vec::new();
        }
        let ra = usize::from(want_a);
        let rb = usize::from(want_b);
        return if ra_set.get(ra) && rb_set.get(rb) { vec![(ra, rb)] } else { Vec::new() };
    }
    // Low parts present in rb_set within the required cell-bit half.
    let rb_half = usize::from(want_b) * m;
    let rb_lows: Vec<usize> = (0..m).filter(|&low| rb_set.get(rb_half + low)).collect();
    if rb_lows.is_empty() {
        return Vec::new();
    }
    let ra_half = usize::from(want_a) * m;
    let mut out = Vec::new();
    for i in 0..m {
        // Odd multiplier mod a power of two: a bijective scramble.
        let a_low = i.wrapping_mul(0x9E37_79B1) % m;
        if !ra_set.get(ra_half + a_low) {
            continue;
        }
        // The required carry out of the low bits pins the b operand's
        // low part into one contiguous window.
        let (lo, hi) = if is_sub {
            // ci = 1 iff a_low >= b_low (borrow-free low subtraction).
            if want_ci {
                (0, a_low + 1)
            } else {
                (a_low + 1, m)
            }
        } else if want_ci {
            // ci = 1 iff a_low + b_low >= m (empty when a_low == 0).
            (m - a_low, m)
        } else {
            (0, m - a_low)
        };
        if lo >= hi {
            continue;
        }
        let first = rb_lows.partition_point(|&x| x < lo);
        let last = rb_lows.partition_point(|&x| x < hi);
        if first == last {
            continue;
        }
        // Both edges of the window, when distinct.
        out.push((ra_half + a_low, rb_half + rb_lows[first]));
        if last - 1 > first && out.len() < limit {
            out.push((ra_half + a_low, rb_half + rb_lows[last - 1]));
        }
        if out.len() >= limit {
            break;
        }
    }
    out
}

/// Walks a target residue back through the subset-sum stages,
/// returning one entry pick per term. `salt` rotates each menu's scan
/// order so repeated walks to the same residue choose different
/// concrete entries.
fn reconstruct(
    d: &Decomposition,
    stages: &[ResidueSet],
    target: usize,
    m_bits: u32,
    salt: usize,
) -> Vec<usize> {
    let m = 1usize << m_bits;
    let mut picks = vec![0usize; d.terms.len()];
    let mut r = target;
    for k in (0..d.terms.len()).rev() {
        let term = &d.terms[k];
        let len = term.entries.len();
        let start = salt.wrapping_mul(104_729) % len;
        let mut found = false;
        for j in 0..len {
            let i = (start + j) % len;
            let delta = residue(term.sign * term.entries[i].value, m_bits);
            let prev = (r + m - delta) % m;
            if stages[k].get(prev) {
                picks[k] = i;
                r = prev;
                found = true;
                break;
            }
        }
        assert!(found, "stage {k} admits no predecessor for residue {r}");
    }
    debug_assert_eq!(r, residue(d.constant, m_bits), "walk must end at the constant");
    picks
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl::eval::ScalarSim;
    use rtl::NetlistBuilder;

    fn engine(netlist: &Netlist, input_bits: u32) -> ChainJustifier<'_> {
        ChainJustifier::new(netlist, Arc::new(ConeAnalysis::analyze(netlist)), input_bits)
    }

    /// The combination `cell` of `node` sees under `values`.
    fn combo(netlist: &Netlist, values: &[i64], node: NodeId, cell: u32) -> u8 {
        cell_combos(netlist.format(), netlist.node(node).kind, values)[cell as usize]
    }

    /// Every pair `feasible_pair` returns must realize its requested
    /// combination under the simulator's ripple arithmetic.
    #[test]
    fn feasible_pairs_realize_their_combination() {
        let mut b = NetlistBuilder::new(12).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let add = b.add_labeled(x, d, "add");
        let sub = b.sub_labeled(x, d, "sub");
        b.output(add, "ya");
        b.output(sub, "ys");
        let n = b.finish().unwrap();
        let mut values = vec![0i64; n.nodes().len()];
        let mut state = 11u64;
        for cell in 0..10u32 {
            let m = 1usize << (cell + 1);
            let mut ra = ResidueSet::new(m);
            let mut rb = ResidueSet::new(m);
            for _ in 0..m.div_ceil(3).max(2) {
                ra.set(splitmix(&mut state) as usize % m);
                rb.set(splitmix(&mut state) as usize % m);
            }
            for t in 0..8u8 {
                for (is_sub, node) in [(false, add), (true, sub)] {
                    for (a_res, b_res) in feasible_pairs(&ra, &rb, is_sub, cell, t, 8) {
                        assert!(ra.get(a_res) && rb.get(b_res));
                        // Any words with those low residues produce
                        // the combination at the cell.
                        values[x.index()] = a_res as i64;
                        values[d.index()] = b_res as i64;
                        assert_eq!(
                            combo(&n, &values, node, cell),
                            t,
                            "cell={cell} t={t} is_sub={is_sub} ra={a_res} rb={b_res}"
                        );
                    }
                }
            }
        }
    }

    /// Brute force over every two-word input stream of a two-tap
    /// accumulator: the solver's verdicts must match exactly — every
    /// reached combination solved with a pattern that replays, every
    /// unreached combination proven unactivatable.
    #[test]
    fn solver_matches_brute_force_on_a_two_tap_accumulator() {
        let input_bits = 6u32;
        let mut b = NetlistBuilder::new(12).unwrap();
        let x = b.input("x");
        let m1 = b.shift_right(x, 2);
        let r = b.register(m1);
        let m0 = b.shift_right(x, 1);
        let acc = b.add_labeled(r, m0, "acc");
        let y = b.register(acc);
        b.output(y, "y");
        let n = b.finish().unwrap();
        let cj = engine(&n, input_bits);
        let align = n.width() - input_bits;
        let (lo, hi) = (-(1i64 << (input_bits - 1)), 1i64 << (input_bits - 1));
        let mut sim = ScalarSim::new(&n);
        for cell in [0u32, 3, 7] {
            // Every combination some (x1, x2) stream reaches at the
            // probe cycle.
            let mut reached = [false; 8];
            for x1 in lo..hi {
                for x2 in lo..hi {
                    sim.reset();
                    sim.step(x1 << align);
                    sim.step(x2 << align);
                    let t = combo(&n, sim.values(), acc, cell);
                    reached[t as usize] = true;
                }
            }
            for t in 0..8u8 {
                let fault =
                    rtl::fulladder::FaFault { line: rtl::fulladder::Line::X1And, stuck_one: true };
                let site = FaultSite {
                    node: acc,
                    cell,
                    representative: fault,
                    members: 1,
                    member_faults: vec![fault],
                    detecting_tests: 1 << t,
                };
                match cj.solve(&site, 2) {
                    ChainOutcome::Patterns(pats) => {
                        assert!(reached[t as usize], "cell={cell} t={t} false positive");
                        // The reconstructed pattern really drives t at
                        // the probe cycle (two flush words follow it).
                        let p = &pats[0];
                        sim.reset();
                        let mut seen = None;
                        for (i, &w) in p.iter().enumerate() {
                            sim.step(w);
                            if i + 2 == p.len() - 1 {
                                seen = Some(combo(&n, sim.values(), acc, cell));
                            }
                        }
                        assert_eq!(seen, Some(t), "cell={cell} pattern misses its combo");
                    }
                    ChainOutcome::Unactivatable => {
                        assert!(!reached[t as usize], "cell={cell} t={t} false negative");
                    }
                    ChainOutcome::Unknown => panic!("two-tap accumulator must decompose"),
                }
            }
        }
    }

    #[test]
    fn folded_product_factors_through_its_pair_base() {
        // pre = (x >> 1) + (x.z2 >> 1); product = (pre >> 1) + (pre >> 3).
        let mut b = NetlistBuilder::new(12).unwrap();
        let x = b.input("x");
        let z1 = b.register(x);
        let z2 = b.register(z1);
        let h1 = b.shift_right(x, 1);
        let h2 = b.shift_right(z2, 1);
        let pre = b.add_labeled(h1, h2, "pre");
        let s1 = b.shift_right(pre, 1);
        let s3 = b.shift_right(pre, 3);
        let product = b.add_labeled(s1, s3, "product");
        b.output(product, "y");
        let n = b.finish().unwrap();
        let cj = engine(&n, 8);
        let d = cj.decompose(product).expect("product must factor");
        assert_eq!(d.terms.len(), 1);
        let Slots::Pair { du, dv } = d.terms[0].slots else {
            panic!("expected a pair term, got {:?}", d.terms[0].slots);
        };
        assert_eq!((du, dv), (0, 2));
        // Every menu entry must be consistent: evaluating the sample
        // pair through a scalar run reproduces the recorded value.
        let mut sim = ScalarSim::new(&n);
        for e in d.terms[0].entries.iter().take(64) {
            sim.reset();
            // v arrives two cycles before u (delay 2 vs 0).
            sim.step(e.v << 4);
            sim.step(0);
            sim.step(e.u << 4);
            assert_eq!(sim.values()[product.index()], e.value, "entry {e:?}");
        }
    }
}
