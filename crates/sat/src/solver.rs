//! A compact CDCL SAT solver.
//!
//! The solver implements the standard conflict-driven clause-learning loop:
//! two-watched-literal unit propagation (with a cached *blocker* literal per
//! watch to skip most clause visits), first-UIP conflict analysis with
//! one-step clause minimization (a literal goes when its reason clause is
//! covered by the learnt clause and level-0 literals), VSIDS-style
//! exponential variable activity with phase saving, Luby-sequence restarts,
//! and incremental solving under assumptions. A conflict budget turns the
//! decision procedure three-valued: [`SolveResult::Unknown`] is returned
//! when the budget is exhausted, so callers never block on a pathological
//! instance.
//!
//! Clauses live in a single flat `u32` arena rather than `Vec<Vec<Lit>>`,
//! which keeps propagation cache-friendly. [`Solver::clone_from`] resets a
//! solver to a copy of another while reusing its allocations, down to each
//! watch list: the redundancy prover resets one working solver to its
//! fully-loaded base instance per fault instead of re-encoding the shared
//! fault-free cone or allocating a fresh copy.

use std::fmt::Write as _;

/// A propositional literal: variable index shifted left once, LSB = sign.
///
/// `Lit(2 * v)` is the positive literal of variable `v`, `Lit(2 * v + 1)`
/// the negative one — the same packing the `rtl` crate uses for
/// complemented gate edges, so translation is a shift.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lit(pub u32);

impl Lit {
    /// Positive literal of variable `var`.
    #[must_use]
    pub fn pos(var: u32) -> Self {
        Lit(var << 1)
    }

    /// Negative literal of variable `var`.
    #[must_use]
    pub fn neg(var: u32) -> Self {
        Lit(var << 1 | 1)
    }

    /// The variable this literal mentions.
    #[must_use]
    pub fn var(self) -> u32 {
        self.0 >> 1
    }

    /// True when this is the negated polarity.
    #[must_use]
    pub fn sign(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complement literal.
    #[must_use]
    pub fn negate(self) -> Self {
        Lit(self.0 ^ 1)
    }

    /// DIMACS integer form: 1-based, negative for negated literals.
    #[must_use]
    pub fn dimacs(self) -> i64 {
        let v = i64::from(self.var()) + 1;
        if self.sign() {
            -v
        } else {
            v
        }
    }
}

/// Three-valued outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A model satisfying all clauses (and assumptions) was found.
    Sat,
    /// The clause set is unsatisfiable under the given assumptions.
    Unsat,
    /// The conflict budget ran out before a verdict was reached.
    Unknown,
}

/// Cumulative search statistics, reset never, monotone across `solve` calls.
#[derive(Clone, Copy, Default, Debug)]
pub struct SolverStats {
    /// Conflicts encountered (clause-learning events).
    pub conflicts: u64,
    /// Decision literals picked.
    pub decisions: u64,
    /// Literals enqueued by unit propagation.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently retained.
    pub learnts: u64,
}

/// Truth value of a variable in the current (partial) assignment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Value {
    True,
    False,
    Undef,
}

impl Value {
    fn from_bool(b: bool) -> Self {
        if b {
            Value::True
        } else {
            Value::False
        }
    }

    fn negate(self) -> Self {
        match self {
            Value::True => Value::False,
            Value::False => Value::True,
            Value::Undef => Value::Undef,
        }
    }
}

/// Reference to a clause: offset into the arena. `NO_REASON` marks decisions.
type ClauseRef = u32;
const NO_REASON: ClauseRef = u32::MAX;

/// One watcher entry: the clause and a cached blocker literal that, when
/// true, lets propagation skip loading the clause at all.
#[derive(Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Arena layout per clause: `[len, activity_bits, lit0, lit1, ...]`.
const HDR: usize = 2;

/// A compact CDCL solver over literals created with [`Solver::new_var`].
pub struct Solver {
    num_vars: u32,
    arena: Vec<u32>,
    /// Offsets of original (problem) clauses, for the DIMACS dump.
    originals: Vec<ClauseRef>,
    /// Offsets of learnt clauses, for periodic reduction.
    learnts: Vec<ClauseRef>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<Value>,
    /// Saved phase per variable; decisions re-use the last polarity.
    phases: Vec<bool>,
    levels: Vec<u32>,
    reasons: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    /// Binary-heap order index for VSIDS (lazy heap: simple max scan over
    /// a small candidate stack would be too slow; we keep a real heap).
    heap: Vec<u32>,
    heap_pos: Vec<u32>,
    /// Scratch marks for conflict analysis.
    seen: Vec<bool>,
    /// True once an unconditional (level-0) conflict has been derived.
    unsat: bool,
    stats: SolverStats,
    /// Conflict budget for the next `solve` call; `u64::MAX` = unbounded.
    budget: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Solver {
    fn clone(&self) -> Self {
        let mut s = Solver::new();
        s.clone_from(self);
        s
    }

    /// Resets `self` to a copy of `source`, reusing `self`'s allocations
    /// down to each watch list.
    fn clone_from(&mut self, source: &Self) {
        // Destructured so a new field cannot be left out of the copy.
        let Solver {
            num_vars,
            arena,
            originals,
            learnts,
            watches,
            assigns,
            phases,
            levels,
            reasons,
            trail,
            trail_lim,
            prop_head,
            activity,
            var_inc,
            cla_inc,
            heap,
            heap_pos,
            seen,
            unsat,
            stats,
            budget,
        } = source;
        self.num_vars = *num_vars;
        self.arena.clone_from(arena);
        self.originals.clone_from(originals);
        self.learnts.clone_from(learnts);
        self.watches.clone_from(watches);
        self.assigns.clone_from(assigns);
        self.phases.clone_from(phases);
        self.levels.clone_from(levels);
        self.reasons.clone_from(reasons);
        self.trail.clone_from(trail);
        self.trail_lim.clone_from(trail_lim);
        self.prop_head = *prop_head;
        self.activity.clone_from(activity);
        self.var_inc = *var_inc;
        self.cla_inc = *cla_inc;
        self.heap.clone_from(heap);
        self.heap_pos.clone_from(heap_pos);
        self.seen.clone_from(seen);
        self.unsat = *unsat;
        self.stats = *stats;
        self.budget = *budget;
    }
}

impl Solver {
    /// An empty instance with no variables or clauses.
    #[must_use]
    pub fn new() -> Self {
        Solver {
            num_vars: 0,
            arena: Vec::new(),
            originals: Vec::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phases: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            seen: Vec::new(),
            unsat: false,
            stats: SolverStats::default(),
            budget: u64::MAX,
        }
    }

    /// Allocate a fresh variable and return its index.
    pub fn new_var(&mut self) -> u32 {
        let v = self.num_vars;
        self.num_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assigns.push(Value::Undef);
        self.phases.push(false);
        self.levels.push(0);
        self.reasons.push(NO_REASON);
        self.activity.push(0.0);
        self.heap_pos.push(u32::MAX);
        self.seen.push(false);
        self.heap_insert(v);
        v
    }

    /// Number of variables allocated so far.
    #[must_use]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Cumulative search statistics.
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Limit the next [`Solver::solve`] call to `conflicts` conflicts;
    /// exceeding the budget yields [`SolveResult::Unknown`].
    pub fn set_conflict_budget(&mut self, conflicts: u64) {
        self.budget = conflicts;
    }

    /// Add a clause (a disjunction of literals). Returns `false` if the
    /// instance is already unsatisfiable at level 0.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.backtrack_to(0);
        if self.unsat {
            return false;
        }
        // Sort/dedup, drop false literals, detect tautologies.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        let mut out: Vec<Lit> = Vec::with_capacity(c.len());
        for &l in &c {
            debug_assert!(l.var() < self.num_vars, "literal references unknown var");
            if c.binary_search(&l.negate()).is_ok() {
                return true; // tautology
            }
            match self.value_lit(l) {
                Value::True => return true, // already satisfied at level 0
                Value::False => {}          // drop
                Value::Undef => out.push(l),
            }
        }
        match out.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(out[0], NO_REASON);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                let cref = self.alloc_clause(&out, false);
                self.originals.push(cref);
                self.attach(cref);
                true
            }
        }
    }

    /// Solve with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_assuming(&[])
    }

    /// Solve under the given assumption literals. On [`SolveResult::Sat`]
    /// the model (including the assumptions) is readable via
    /// [`Solver::model_value`]. The solver state is reusable afterwards.
    pub fn solve_assuming(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.unsat {
            return SolveResult::Unsat;
        }
        self.backtrack_to(0);
        let budget_limit = self.stats.conflicts.saturating_add(self.budget);
        let mut restart_idx: u64 = 0;
        let mut next_restart = self.stats.conflicts + 32 * luby(restart_idx);
        let mut max_learnts = (self.originals.len() as u64 / 3).max(2000);
        let result = 'outer: loop {
            if let Some(confl) = self.propagate() {
                // Conflict.
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    break 'outer SolveResult::Unsat;
                }
                let (learnt, backtrack_level) = self.analyze(confl);
                self.backtrack_to(backtrack_level);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], NO_REASON);
                } else {
                    let cref = self.alloc_clause(&learnt, true);
                    self.learnts.push(cref);
                    self.stats.learnts = self.learnts.len() as u64;
                    self.attach(cref);
                    self.bump_clause(cref);
                    self.enqueue(learnt[0], cref);
                }
                self.decay_activities();
                if self.stats.conflicts >= budget_limit {
                    break 'outer SolveResult::Unknown;
                }
                if self.stats.conflicts >= next_restart {
                    restart_idx += 1;
                    next_restart = self.stats.conflicts + 32 * luby(restart_idx);
                    self.stats.restarts += 1;
                    self.backtrack_to(0);
                }
                if self.learnts.len() as u64 > max_learnts {
                    self.reduce_learnts();
                    max_learnts += max_learnts / 10;
                }
            } else {
                // No conflict: place the next pending assumption as a
                // pseudo-decision (decision levels 1..=k mirror assumption
                // indices; already-implied assumptions get an empty level so
                // the alignment holds), then branch.
                let mut placed = false;
                let mut refuted = false;
                while self.decision_level() < assumptions.len() {
                    let a = assumptions[self.decision_level()];
                    match self.value_lit(a) {
                        Value::True => self.trail_lim.push(self.trail.len()),
                        Value::False => {
                            refuted = true;
                            break;
                        }
                        Value::Undef => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, NO_REASON);
                            placed = true;
                            break;
                        }
                    }
                }
                if refuted {
                    break 'outer SolveResult::Unsat;
                }
                if placed {
                    continue;
                }
                match self.pick_branch() {
                    Some(lit) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(lit, NO_REASON);
                    }
                    None => break 'outer SolveResult::Sat,
                }
            }
        };
        if result != SolveResult::Sat {
            self.backtrack_to(0);
        }
        self.budget = u64::MAX;
        result
    }

    /// Truth value of `var` in the most recent SAT model. Only meaningful
    /// directly after a `solve*` call returned [`SolveResult::Sat`].
    #[must_use]
    pub fn model_value(&self, var: u32) -> bool {
        matches!(self.assigns[var as usize], Value::True)
    }

    /// Truth value of a literal in the most recent SAT model.
    #[must_use]
    pub fn model_lit(&self, lit: Lit) -> bool {
        self.model_value(lit.var()) != lit.sign()
    }

    /// Serialize the original clause set in DIMACS CNF format, for
    /// debugging with external solvers.
    #[must_use]
    pub fn dimacs(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "p cnf {} {}", self.num_vars, self.originals.len());
        for &cref in &self.originals {
            let len = self.arena[cref as usize] as usize;
            let base = cref as usize + HDR;
            for i in 0..len {
                let _ = write!(out, "{} ", Lit(self.arena[base + i]).dimacs());
            }
            out.push_str("0\n");
        }
        out
    }

    // ----- internals ------------------------------------------------------

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn value_lit(&self, l: Lit) -> Value {
        let v = self.assigns[l.var() as usize];
        if l.sign() {
            v.negate()
        } else {
            v
        }
    }

    fn alloc_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        let cref = self.arena.len() as ClauseRef;
        self.arena.push(lits.len() as u32);
        self.arena.push(if learnt { f32::to_bits(0.0) } else { 0 });
        self.arena.extend(lits.iter().map(|l| l.0));
        cref
    }

    fn clause_lits(&self, cref: ClauseRef) -> &[u32] {
        let len = self.arena[cref as usize] as usize;
        let base = cref as usize + HDR;
        &self.arena[base..base + len]
    }

    fn attach(&mut self, cref: ClauseRef) {
        let base = cref as usize + HDR;
        let l0 = Lit(self.arena[base]);
        let l1 = Lit(self.arena[base + 1]);
        self.watches[l0.negate().0 as usize].push(Watcher { cref, blocker: l1 });
        self.watches[l1.negate().0 as usize].push(Watcher { cref, blocker: l0 });
    }

    fn detach(&mut self, cref: ClauseRef) {
        let base = cref as usize + HDR;
        let l0 = Lit(self.arena[base]);
        let l1 = Lit(self.arena[base + 1]);
        for l in [l0, l1] {
            let ws = &mut self.watches[l.negate().0 as usize];
            if let Some(pos) = ws.iter().position(|w| w.cref == cref) {
                ws.swap_remove(pos);
            }
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.value_lit(lit), Value::Undef);
        let v = lit.var() as usize;
        self.assigns[v] = Value::from_bool(!lit.sign());
        self.phases[v] = !lit.sign();
        self.levels[v] = self.decision_level() as u32;
        self.reasons[v] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation. Returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.prop_head < self.trail.len() {
            let p = self.trail[self.prop_head];
            self.prop_head += 1;
            self.stats.propagations += 1;
            // Take the watcher list out to sidestep aliasing; entries we
            // keep are written back in place.
            let mut ws = std::mem::take(&mut self.watches[p.0 as usize]);
            let mut kept = 0;
            let mut conflict: Option<ClauseRef> = None;
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value_lit(w.blocker) == Value::True {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let cref = w.cref;
                let len = self.arena[cref as usize] as usize;
                let base = cref as usize + HDR;
                // Normalize so the false literal (negate of p) sits at slot 1.
                let not_p = p.negate();
                if Lit(self.arena[base]) == not_p {
                    self.arena.swap(base, base + 1);
                }
                debug_assert_eq!(Lit(self.arena[base + 1]), not_p);
                let first = Lit(self.arena[base]);
                if first != w.blocker && self.value_lit(first) == Value::True {
                    ws[kept] = Watcher { cref, blocker: first };
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..len {
                    let lk = Lit(self.arena[base + k]);
                    if self.value_lit(lk) != Value::False {
                        self.arena.swap(base + 1, base + k);
                        self.watches[lk.negate().0 as usize].push(Watcher { cref, blocker: first });
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting under the current assignment.
                ws[kept] = Watcher { cref, blocker: first };
                kept += 1;
                if self.value_lit(first) == Value::False {
                    // Conflict: keep remaining watchers and bail.
                    while i < ws.len() {
                        ws[kept] = ws[i];
                        kept += 1;
                        i += 1;
                    }
                    conflict = Some(cref);
                } else {
                    self.enqueue(first, cref);
                }
            }
            ws.truncate(kept);
            self.watches[p.0 as usize] = ws;
            if conflict.is_some() {
                self.prop_head = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 = asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = confl;
        loop {
            self.bump_clause(cref);
            let lits: Vec<Lit> = self.clause_lits(cref).iter().map(|&u| Lit(u)).collect();
            let start = usize::from(p.is_some());
            for &q in &lits[start..] {
                let v = q.var() as usize;
                if !self.seen[v] && self.levels[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.levels[v] as usize >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Pick the next literal on the trail marked `seen`.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let lit = self.trail[index];
            let v = lit.var() as usize;
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = lit.negate();
                break;
            }
            cref = self.reasons[v];
            debug_assert_ne!(cref, NO_REASON);
            p = Some(lit);
        }
        // Local minimization: drop literals whose reason clause is entirely
        // covered by the remaining literals (self-subsuming resolution).
        let keep: Vec<bool> =
            learnt.iter().enumerate().map(|(i, &l)| i == 0 || !self.redundant(l)).collect();
        let mut minimized: Vec<Lit> =
            learnt.iter().zip(&keep).filter_map(|(&l, &k)| k.then_some(l)).collect();
        // Compute backtrack level = max level among non-asserting literals.
        let backtrack = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.levels[minimized[i].var() as usize]
                    > self.levels[minimized[max_i].var() as usize]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.levels[minimized[1].var() as usize] as usize
        };
        for l in &learnt {
            self.seen[l.var() as usize] = false;
        }
        (minimized, backtrack)
    }

    /// True when `l` is implied by the other literals of the learnt clause
    /// (single-step self-subsumption: its reason's literals are all seen or
    /// at level 0).
    fn redundant(&self, l: Lit) -> bool {
        let v = l.var() as usize;
        let r = self.reasons[v];
        if r == NO_REASON {
            return false;
        }
        self.clause_lits(r).iter().all(|&u| {
            let q = Lit(u);
            let qv = q.var() as usize;
            qv == v || self.seen[qv] || self.levels[qv] == 0
        })
    }

    fn backtrack_to(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level];
        for i in (bound..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assigns[v as usize] = Value::Undef;
            self.reasons[v as usize] = NO_REASON;
            self.heap_insert(v);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level);
        self.prop_head = self.prop_head.min(bound);
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v as usize] == Value::Undef {
                let phase = self.phases[v as usize];
                return Some(if phase { Lit::pos(v) } else { Lit::neg(v) });
            }
        }
        None
    }

    fn bump_var(&mut self, v: u32) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_pos[v as usize] != u32::MAX {
            self.heap_sift_up(self.heap_pos[v as usize] as usize);
        }
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let slot = cref as usize + 1;
        let mut act = f32::from_bits(self.arena[slot]);
        act += self.cla_inc as f32;
        if act > 1e20 {
            for &lc in &self.learnts {
                let s = lc as usize + 1;
                self.arena[s] = f32::to_bits(f32::from_bits(self.arena[s]) * 1e-20);
            }
            self.cla_inc *= 1e-20;
            act = f32::from_bits(self.arena[slot]) + self.cla_inc as f32;
        }
        self.arena[slot] = f32::to_bits(act);
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    /// Drop the less-active half of the learnt clauses, keeping any that
    /// currently serve as a propagation reason. Detached clauses stay in the
    /// arena as garbage; our instances are short-lived so no compaction.
    ///
    /// Clauses are detached least active first: each detach reorders its
    /// watch lists, so a fixed order keeps the search reproducible.
    fn reduce_learnts(&mut self) {
        use std::collections::HashSet;
        let locked: HashSet<ClauseRef> = self
            .trail
            .iter()
            .map(|l| self.reasons[l.var() as usize])
            .filter(|&r| r != NO_REASON)
            .collect();
        let mut order: Vec<ClauseRef> = self.learnts.clone();
        order.sort_by(|&a, &b| {
            let aa = f32::from_bits(self.arena[a as usize + 1]);
            let ab = f32::from_bits(self.arena[b as usize + 1]);
            aa.partial_cmp(&ab).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut doomed: Vec<ClauseRef> =
            order.iter().take(order.len() / 2).copied().filter(|c| !locked.contains(c)).collect();
        for &cref in &doomed {
            self.detach(cref);
        }
        doomed.sort_unstable();
        self.learnts.retain(|c| doomed.binary_search(c).is_err());
        self.stats.learnts = self.learnts.len() as u64;
    }

    // ----- activity heap --------------------------------------------------

    fn heap_insert(&mut self, v: u32) {
        if self.heap_pos[v as usize] != u32::MAX {
            return;
        }
        self.heap_pos[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<u32> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top as usize] = u32::MAX;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.activity[self.heap[i] as usize] <= self.activity[self.heap[parent] as usize] {
                break;
            }
            self.heap_swap(i, parent);
            i = parent;
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len()
                && self.activity[self.heap[l] as usize] > self.activity[self.heap[best] as usize]
            {
                best = l;
            }
            if r < self.heap.len()
                && self.activity[self.heap[r] as usize] > self.activity[self.heap[best] as usize]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_pos[self.heap[a] as usize] = a as u32;
        self.heap_pos[self.heap[b] as usize] = b as u32;
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ...
fn luby(x: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = x;
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i32) -> Lit {
        if v > 0 {
            Lit::pos(v as u32 - 1)
        } else {
            Lit::neg((-v) as u32 - 1)
        }
    }

    fn solver_with_vars(n: u32) -> Solver {
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        s
    }

    #[test]
    fn trivial_sat_and_model() {
        let mut s = solver_with_vars(2);
        s.add_clause(&[lit(1), lit(2)]);
        s.add_clause(&[lit(-1)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(!s.model_value(0));
        assert!(s.model_value(1));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = solver_with_vars(1);
        s.add_clause(&[lit(1)]);
        assert!(!s.add_clause(&[lit(-1)]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p(i,j): pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = solver_with_vars(6);
        let p = |i: u32, j: u32| Lit::pos(i * 2 + j);
        for i in 0..3 {
            s.add_clause(&[p(i, 0), p(i, 1)]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    s.add_clause(&[p(a, j).negate(), p(b, j).negate()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_are_incremental() {
        let mut s = solver_with_vars(3);
        // x1 -> x2, x2 -> x3
        s.add_clause(&[lit(-1), lit(2)]);
        s.add_clause(&[lit(-2), lit(3)]);
        assert_eq!(s.solve_assuming(&[lit(1), lit(-3)]), SolveResult::Unsat);
        // Same solver, different assumptions: still usable.
        assert_eq!(s.solve_assuming(&[lit(1)]), SolveResult::Sat);
        assert!(s.model_value(2));
        assert_eq!(s.solve_assuming(&[lit(-3)]), SolveResult::Sat);
        assert!(!s.model_value(0));
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // A moderately hard pigeonhole with a 1-conflict budget.
        let holes = 4u32;
        let pigeons = 5u32;
        let mut s = solver_with_vars(pigeons * holes);
        let p = |i: u32, j: u32| Lit::pos(i * holes + j);
        for i in 0..pigeons {
            let c: Vec<Lit> = (0..holes).map(|j| p(i, j)).collect();
            s.add_clause(&c);
        }
        for j in 0..holes {
            for a in 0..pigeons {
                for b in (a + 1)..pigeons {
                    s.add_clause(&[p(a, j).negate(), p(b, j).negate()]);
                }
            }
        }
        s.set_conflict_budget(1);
        assert_eq!(s.solve(), SolveResult::Unknown);
        // Unbudgeted retry completes.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        // Deterministic xorshift for clause sampling.
        let mut state = 0x1234_5678_u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..40 {
            let n = 8u32;
            let m = 3 + (round % 30) as usize + round as usize / 2;
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..m {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (rnd() % u64::from(n)) as u32;
                    let sign = rnd() & 1 == 1;
                    c.push(if sign { Lit::neg(v) } else { Lit::pos(v) });
                }
                clauses.push(c);
            }
            // Brute force.
            let mut brute_sat = false;
            'asg: for bits in 0..(1u32 << n) {
                for c in &clauses {
                    let ok = c.iter().any(|l| {
                        let val = bits >> l.var() & 1 == 1;
                        val != l.sign()
                    });
                    if !ok {
                        continue 'asg;
                    }
                }
                brute_sat = true;
                break;
            }
            let mut s = solver_with_vars(n);
            for c in &clauses {
                s.add_clause(c);
            }
            let got = s.solve();
            let want = if brute_sat { SolveResult::Sat } else { SolveResult::Unsat };
            assert_eq!(got, want, "round {round}");
            if got == SolveResult::Sat {
                // The model must satisfy every clause.
                for c in &clauses {
                    assert!(c.iter().any(|&l| s.model_lit(l)));
                }
            }
        }
    }

    #[test]
    fn dimacs_dump_lists_original_clauses() {
        let mut s = solver_with_vars(2);
        s.add_clause(&[lit(1), lit(-2)]);
        let d = s.dimacs();
        assert!(d.starts_with("p cnf 2 1"));
        assert!(d.contains("1 -2 0"));
    }

    #[test]
    fn cloned_solver_is_independent() {
        let mut s = solver_with_vars(2);
        s.add_clause(&[lit(1), lit(2)]);
        let mut t = s.clone();
        t.add_clause(&[lit(-1)]);
        t.add_clause(&[lit(-2)]);
        assert_eq!(t.solve(), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn luby_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }
}
