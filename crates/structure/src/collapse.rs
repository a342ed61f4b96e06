//! Structural fault collapsing over the gate graph.
//!
//! Fault points are gate outputs and gate input pins, each with two
//! stuck-at polarities. A polarity-aware union-find merges points that
//! are *exactly* functionally equivalent — the modified Boolean
//! networks are identical functions, so the faulty machines agree
//! cycle-for-cycle on every input sequence:
//!
//! * **wire** — a pin fault equals its driver's output fault when the
//!   driver has fanout 1 (the pin *is* the net); this is what chains
//!   equivalences transitively through fanout-free regions and across
//!   cell and node boundaries (carry-out into next cell's carry stem,
//!   producer sum into a consumer operand stem);
//! * **buffer** — a buffer's output s-a-v equals its input pin s-a-v;
//! * **inverter** — an inverter's output s-a-v equals its input pin
//!   s-a-¬v;
//! * **AND** — output s-a-0 equals every input pin s-a-0;
//! * **OR** — output s-a-1 equals every input pin s-a-1.
//!
//! XOR gates admit no input/output equivalence. Fault *dominance* is
//! handled on a strictly separate track: per-gate pairs (AND output
//! s-a-1 ⊃ input s-a-1, OR output s-a-0 ⊃ input s-a-0) are counted,
//! and a cell-level dominance relation — class `D` is *dominated* by
//! class `G` when `G`'s faulty cell outputs agree with `D`'s on every
//! input combination where `G` differs from the fault-free cell, so
//! any vector detecting `G` detects `D` identically — marks classes as
//! non-[`prime`](CollapsedUniverse::prime). Dominated classes are
//! **never merged**: dominance preserves detect/miss verdicts (per
//! vector) yet not detection *cycles* or MISR signatures, so merging
//! would break byte-identity; the prime flags feed the collapse census
//! and test-generation prioritization only (see `DESIGN.md` §13).
//!
//! The site projection then lifts gate-level classes back onto the
//! [`faultsim::FaultUniverse`]: two sites merge when a member fault of
//! one is structurally equivalent to a member fault of the other,
//! restricted to members whose *unmasked* cell truth table matches
//! their site representative's. That restriction keeps the whole chain
//! exact — masked-only members (equivalent to their representative only
//! on reachable input combinations) stay collapsed within their cell
//! exactly as the seed fault model defines, but are never used to
//! equate two representative machines.

use crate::graph::GateGraph;
use crate::graph::GateKind;
use faultsim::{FaultId, FaultUniverse};
use rtl::fulladder::{eval_word, eval_word_sum_only, FaFault};
use rtl::{Netlist, NodeKind};
use std::collections::HashMap;

/// The collapsed fault universe: which sites to simulate, and how to
/// expand their verdicts back over every site.
#[derive(Debug, Clone)]
pub struct CollapsedUniverse {
    /// Class representatives, in ascending [`FaultId`] order. The
    /// representative of a class is its lowest member id.
    pub representatives: Vec<FaultId>,
    /// For every site of the analyzed universe, the index of its
    /// class representative within `representatives`.
    pub class_map: Vec<u32>,
    /// Per class: `true` when the class is *prime* (not dominated by
    /// any other class). Non-prime classes are still simulated — the
    /// flag feeds the collapse census and test-generation ranking, not
    /// verdict reconstruction.
    pub prime: Vec<bool>,
}

impl CollapsedUniverse {
    /// Number of prime (non-dominated) classes — the classical
    /// collapsed-universe size quoted against the raw line count.
    pub fn prime_count(&self) -> usize {
        self.prime.iter().filter(|&&p| p).count()
    }
}

/// Union counts per collapsing rule, plus the counted (never merged)
/// dominance pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeCounts {
    /// Fanout-1 pin/driver unions (the transitive chaining rule).
    pub wire: usize,
    /// Buffer input/output unions.
    pub buffer: usize,
    /// Inverter input/output unions (polarity-flipping).
    pub inverter: usize,
    /// AND-gate s-a-0 input/output unions.
    pub and_inputs: usize,
    /// OR-gate s-a-1 input/output unions.
    pub or_inputs: usize,
    /// Gate-level dominance pairs observed (reported, never merged).
    pub dominance_pairs: usize,
    /// Classes marked non-prime by cell-level dominance analysis.
    pub dominated_classes: usize,
}

/// Polarity-aware union-find over fault points.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind { parent: (0..n as u32).collect() }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Unions two keys; `true` when they were in different classes.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        // Deterministic: the smaller root wins.
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
        true
    }
}

/// Key of a (point, stuck-at polarity) pair in the union-find.
fn key(point: u32, stuck_one: bool) -> u32 {
    point * 2 + u32::from(stuck_one)
}

/// Runs the gate-level rules and returns the union-find plus per-rule
/// counts.
fn gate_level_classes(graph: &GateGraph) -> (UnionFind, MergeCounts) {
    let mut uf = UnionFind::new(graph.fault_points() * 2);
    let mut counts = MergeCounts::default();
    for (g, gate) in graph.gates().iter().enumerate() {
        let g = g as u32;
        match gate.kind {
            GateKind::Buf | GateKind::Output | GateKind::Dff => {
                // Output taps and register inputs are wiring for fault
                // purposes: the pin is the same net as the stem below
                // (Dff *outputs* are separate fault points — the rule
                // never crosses the state boundary).
                if gate.kind == GateKind::Buf {
                    for v in [false, true] {
                        counts.buffer += usize::from(
                            uf.union(key(graph.out_point(g), v), key(graph.pin_point(g, 0), v)),
                        );
                    }
                }
            }
            GateKind::Not => {
                for v in [false, true] {
                    counts.inverter += usize::from(
                        uf.union(key(graph.out_point(g), v), key(graph.pin_point(g, 0), !v)),
                    );
                }
            }
            GateKind::And => {
                for j in 0..gate.pins.len() {
                    counts.and_inputs += usize::from(
                        uf.union(key(graph.out_point(g), false), key(graph.pin_point(g, j), false)),
                    );
                }
                counts.dominance_pairs += gate.pins.len();
            }
            GateKind::Or => {
                for j in 0..gate.pins.len() {
                    counts.or_inputs += usize::from(
                        uf.union(key(graph.out_point(g), true), key(graph.pin_point(g, j), true)),
                    );
                }
                counts.dominance_pairs += gate.pins.len();
            }
            GateKind::Input | GateKind::Const(_) | GateKind::Xor => {}
        }
        // Wire rule: a fanout-1 driver's output is the same net as the
        // one pin it feeds.
        for (j, &p) in gate.pins.iter().enumerate() {
            if graph.fanout(p) == 1 {
                for v in [false, true] {
                    counts.wire += usize::from(
                        uf.union(key(graph.pin_point(g, j), v), key(graph.out_point(p), v)),
                    );
                }
            }
        }
    }
    (uf, counts)
}

/// How a site's cell is evaluated by the simulator, which fixes the
/// truth table its member faults are compared on.
#[derive(Clone, Copy, PartialEq)]
enum CellMode {
    /// Full five-gate cell: sum and carry both compared.
    Full,
    /// Trimmed adder/subtractor top cell
    /// ([`rtl::fulladder::eval_word_sum_only`]).
    SumOnlyTop,
    /// Carry-save top cell: evaluated as a full cell but the carry is
    /// discarded, so only the sum is compared.
    CsaTop,
}

fn cell_mode(netlist: &Netlist, site: &faultsim::FaultSite) -> CellMode {
    match netlist.node(site.node).kind {
        NodeKind::CsaSum { .. } => {
            if site.cell == netlist.width() - 1 {
                CellMode::CsaTop
            } else {
                CellMode::Full
            }
        }
        _ => {
            if site.cell >= netlist.msb_trim(site.node) {
                CellMode::SumOnlyTop
            } else {
                CellMode::Full
            }
        }
    }
}

/// The *unmasked* truth table of a faulty cell: outputs on all eight
/// `(a, b-line, ci)` combinations, packed into one word.
fn truth_table(fault: FaFault, mode: CellMode) -> u32 {
    let mut tt = 0u32;
    let faults = [(fault, !0u64)];
    for combo in 0..8u32 {
        let a = if combo & 4 != 0 { !0u64 } else { 0 };
        let b = if combo & 2 != 0 { !0u64 } else { 0 };
        let ci = if combo & 1 != 0 { !0u64 } else { 0 };
        match mode {
            CellMode::Full => {
                let (s, c) = eval_word(a, b, ci, &faults);
                tt |= ((s & 1) as u32) << (2 * combo);
                tt |= ((c & 1) as u32) << (2 * combo + 1);
            }
            CellMode::SumOnlyTop => {
                tt |= ((eval_word_sum_only(a, b, ci, &faults) & 1) as u32) << combo;
            }
            CellMode::CsaTop => {
                let (s, _) = eval_word(a, b, ci, &faults);
                tt |= ((s & 1) as u32) << combo;
            }
        }
    }
    tt
}

/// The fault-free cell truth table for a mode, packed like
/// [`truth_table`].
fn good_table(mode: CellMode) -> u32 {
    let mut tt = 0u32;
    for combo in 0..8u32 {
        let a = if combo & 4 != 0 { !0u64 } else { 0 };
        let b = if combo & 2 != 0 { !0u64 } else { 0 };
        let ci = if combo & 1 != 0 { !0u64 } else { 0 };
        match mode {
            CellMode::Full => {
                let (s, c) = eval_word(a, b, ci, &[]);
                tt |= ((s & 1) as u32) << (2 * combo);
                tt |= ((c & 1) as u32) << (2 * combo + 1);
            }
            CellMode::SumOnlyTop => {
                tt |= ((eval_word_sum_only(a, b, ci, &[]) & 1) as u32) << combo;
            }
            CellMode::CsaTop => {
                let (s, _) = eval_word(a, b, ci, &[]);
                tt |= ((s & 1) as u32) << combo;
            }
        }
    }
    tt
}

/// The packed output field of one input combination in a truth table.
fn field(tt: u32, combo: u32, mode: CellMode) -> u32 {
    match mode {
        CellMode::Full => (tt >> (2 * combo)) & 3,
        CellMode::SumOnlyTop | CellMode::CsaTop => (tt >> combo) & 1,
    }
}

/// The raw per-line stuck-at universe of the active cells: both
/// polarities of every fault line of every `(node, cell)` that owns at
/// least one site, *before* any masked-equivalence screening. Full
/// cells carry 16 lines; trimmed and carry-save top cells carry only
/// the 5 sum-cone lines. This is the classical denominator collapse
/// ratios are quoted against.
pub fn raw_line_count(netlist: &Netlist, universe: &FaultUniverse) -> usize {
    let mut seen: std::collections::HashSet<(usize, u32)> = std::collections::HashSet::new();
    let mut total = 0;
    for site in universe.sites() {
        if seen.insert((site.node.index(), site.cell)) {
            total += match cell_mode(netlist, site) {
                CellMode::Full => 32,
                CellMode::SumOnlyTop | CellMode::CsaTop => 10,
            };
        }
    }
    total
}

/// Collapses a fault universe over a netlist's gate graph.
///
/// The returned [`CollapsedUniverse`] is positional over `universe`:
/// `class_map[i]` maps site `i` to its representative's index within
/// `representatives`.
pub fn collapse(
    netlist: &Netlist,
    graph: &GateGraph,
    universe: &FaultUniverse,
) -> (CollapsedUniverse, MergeCounts) {
    let (mut uf, mut counts) = gate_level_classes(graph);

    // Project gate-level classes onto sites: two sites are equivalent
    // when they own structurally-merged member faults (exact members
    // only — their unmasked truth table must match their site
    // representative's).
    let n_sites = universe.len();
    let mut site_uf = UnionFind::new(n_sites);
    let mut owner: HashMap<u32, u32> = HashMap::new();
    let mut site_tt = Vec::with_capacity(n_sites);
    let mut site_mode = Vec::with_capacity(n_sites);
    for (s, site) in universe.sites().iter().enumerate() {
        let mode = cell_mode(netlist, site);
        let rep_tt = truth_table(site.representative, mode);
        site_tt.push(rep_tt);
        site_mode.push(mode);
        for member in std::iter::once(site.representative).chain(site.member_faults.iter().copied())
        {
            if truth_table(member, mode) != rep_tt {
                continue;
            }
            let root =
                uf.find(key(graph.fault_point(site.node, site.cell, member), member.stuck_one));
            match owner.get(&root) {
                Some(&t) => {
                    site_uf.union(s as u32, t);
                }
                None => {
                    owner.insert(root, s as u32);
                }
            }
        }
    }

    // Classes in ascending order: a class's representative is its
    // lowest site id, so one ascending sweep assigns class indices.
    let mut class_index: HashMap<u32, u32> = HashMap::new();
    let mut representatives = Vec::new();
    let mut class_map = vec![0u32; n_sites];
    for s in 0..n_sites as u32 {
        let root = site_uf.find(s);
        let idx = *class_index.entry(root).or_insert_with(|| {
            representatives.push(FaultId(s));
            (representatives.len() - 1) as u32
        });
        class_map[s as usize] = idx;
    }

    // Cell-level dominance census. Sites are grouped by (node, cell);
    // within a group, class G dominates class D when G's faulty cell
    // table agrees with D's on every input combination where G differs
    // from the fault-free cell — any vector detecting G then detects D
    // with the identical corruption on that vector. Diff sets grow
    // strictly along edges (distinct classes have distinct tables), so
    // the relation is acyclic; a class is marked non-prime only when a
    // *root* class (no incoming edges anywhere) dominates it, keeping
    // every dropped class certified by a kept witness.
    let mut groups: HashMap<(usize, u32), Vec<u32>> = HashMap::new();
    for (s, site) in universe.sites().iter().enumerate() {
        groups.entry((site.node.index(), site.cell)).or_default().push(s as u32);
    }
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for sites in groups.values() {
        let mode = site_mode[sites[0] as usize];
        let good = good_table(mode);
        let diffs: Vec<Vec<u32>> = sites
            .iter()
            .map(|&s| {
                (0..8)
                    .filter(|&t| field(site_tt[s as usize], t, mode) != field(good, t, mode))
                    .collect()
            })
            .collect();
        for (i, &g) in sites.iter().enumerate() {
            if diffs[i].is_empty() {
                continue;
            }
            for &d in sites.iter() {
                let (gc, dc) = (class_map[g as usize], class_map[d as usize]);
                if gc == dc {
                    continue;
                }
                if diffs[i].iter().all(|&t| {
                    field(site_tt[d as usize], t, mode) == field(site_tt[g as usize], t, mode)
                }) {
                    edges.push((gc, dc));
                }
            }
        }
    }
    let mut has_incoming = vec![false; representatives.len()];
    for &(_, d) in &edges {
        has_incoming[d as usize] = true;
    }
    let mut prime = vec![true; representatives.len()];
    for &(g, d) in &edges {
        if !has_incoming[g as usize] {
            prime[d as usize] = false;
        }
    }
    counts.dominated_classes = prime.iter().filter(|&&p| !p).count();

    (CollapsedUniverse { representatives, class_map, prime }, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GateGraph;
    use rtl::fulladder::Line;
    use rtl::range::{aligned_input_range, RangeAnalysis};
    use rtl::NetlistBuilder;

    fn chained(width: u32) -> rtl::Netlist {
        // Two adders in series: a1's sum word feeds only a2, so the
        // wire rule chains classes across the node boundary.
        let mut b = NetlistBuilder::new(width).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let s = b.shift_right(d, 1);
        let a1 = b.add_labeled(x, s, "a1");
        let d2 = b.register(x);
        let a2 = b.add_labeled(a1, d2, "a2");
        b.output(a2, "y");
        b.finish().unwrap()
    }

    fn universe_of(n: &rtl::Netlist) -> FaultUniverse {
        let ranges = RangeAnalysis::analyze(n, aligned_input_range(n.width(), n.width()));
        FaultUniverse::enumerate(n, &ranges)
    }

    #[test]
    fn collapse_is_a_partition_with_lowest_id_representatives() {
        let n = chained(8);
        let g = GateGraph::expand(&n);
        let u = universe_of(&n);
        let (c, _) = collapse(&n, &g, &u);
        assert_eq!(c.class_map.len(), u.len());
        assert!(!c.representatives.is_empty());
        assert!(c.representatives.len() <= u.len());
        // Ascending, unique representatives.
        assert!(c.representatives.windows(2).all(|w| w[0] < w[1]));
        // Every site maps to a valid class whose representative id is
        // no larger than the site's own id.
        for (s, &cls) in c.class_map.iter().enumerate() {
            let rep = c.representatives[cls as usize];
            assert!(rep.index() <= s);
            // The representative maps to itself.
            assert_eq!(c.class_map[rep.index()], cls);
        }
    }

    #[test]
    fn ripple_carry_merges_adjacent_cells() {
        let n = chained(8);
        let g = GateGraph::expand(&n);
        let u = universe_of(&n);
        let (c, counts) = collapse(&n, &g, &u);
        assert!(counts.wire > 0);
        assert!(counts.and_inputs > 0);
        assert!(counts.or_inputs > 0);
        assert!(counts.dominance_pairs > 0);
        // A Cout class and the next cell's CiStem class must share a
        // structural class somewhere in the adder.
        let a1 = n.find_label("a1").unwrap();
        let mut merged_across_cells = false;
        for (s, site) in u.sites().iter().enumerate() {
            if site.node != a1 {
                continue;
            }
            for (t, other) in u.sites().iter().enumerate().skip(s + 1) {
                if other.node == a1 && other.cell != site.cell && c.class_map[s] == c.class_map[t] {
                    merged_across_cells = true;
                }
            }
        }
        assert!(merged_across_cells, "no cross-cell merge in a ripple adder");
    }

    #[test]
    fn carry_or_output_sa0_is_dominated_and_never_merged() {
        let n = chained(8);
        let g = GateGraph::expand(&n);
        let u = universe_of(&n);
        let (c, counts) = collapse(&n, &g, &u);
        assert_eq!(c.prime.len(), c.representatives.len());
        assert_eq!(counts.dominated_classes, c.representatives.len() - c.prime_count());
        assert!(counts.dominated_classes > 0, "no dominated classes in a ripple adder");
        // Cout s-a-0 in an interior full cell is classically dominated:
        // And1 s-a-0 is detected by the same vectors with the same
        // corruption. The class stays in the representative set — prime
        // flags never shrink the simulated universe.
        let a1 = n.find_label("a1").unwrap();
        let mut found = false;
        for (s, site) in u.sites().iter().enumerate() {
            if site.node != a1 || site.cell != 2 {
                continue;
            }
            let members =
                std::iter::once(site.representative).chain(site.member_faults.iter().copied());
            for f in members {
                if f.line == Line::Cout && !f.stuck_one {
                    found = true;
                    assert!(!c.prime[c.class_map[s] as usize], "Cout s-a-0 class not dominated");
                }
            }
        }
        assert!(found, "no Cout s-a-0 site in cell 2");
        // The raw-line denominator covers every active cell at full
        // per-line granularity, so it exceeds the site count.
        assert!(raw_line_count(&n, &u) > u.len());
    }

    #[test]
    fn merged_sites_are_machine_equivalent_under_direct_simulation() {
        // The decisive soundness check: pick merged pairs and co-simulate
        // both faults in separate lanes — every cycle must agree.
        let n = chained(8);
        let g = GateGraph::expand(&n);
        let u = universe_of(&n);
        let (c, _) = collapse(&n, &g, &u);
        let mut checked = 0;
        for (s, site) in u.sites().iter().enumerate() {
            let rep = c.representatives[c.class_map[s] as usize];
            if rep.index() == s || checked >= 24 {
                continue;
            }
            let rep_site = &u.sites()[rep.index()];
            let mut sim = rtl::sim::BitSlicedSim::new(&n);
            sim.set_faults(
                rep_site.node,
                vec![rtl::sim::CellFault {
                    cell: rep_site.cell,
                    fault: rep_site.representative,
                    lanes: 1 << 1,
                }],
            );
            let member_fault =
                rtl::sim::CellFault { cell: site.cell, fault: site.representative, lanes: 1 << 2 };
            if site.node == rep_site.node {
                let mut faults = sim_faults(rep_site, 1 << 1);
                faults.push(member_fault);
                sim.set_faults(site.node, faults);
            } else {
                sim.set_faults(site.node, vec![member_fault]);
            }
            let mut rng = testkit::Rng::new(0x1234_5678);
            for _ in 0..256 {
                sim.step(rng.signed(n.width()));
                for out in n.output_ids() {
                    assert_eq!(
                        sim.lane_value(out, 1),
                        sim.lane_value(out, 2),
                        "sites {s} and {} diverged",
                        rep.index()
                    );
                }
            }
            checked += 1;
        }
        assert!(checked > 0, "no merged pairs to check");
    }

    fn sim_faults(site: &faultsim::FaultSite, lanes: u64) -> Vec<rtl::sim::CellFault> {
        vec![rtl::sim::CellFault { cell: site.cell, fault: site.representative, lanes }]
    }

    #[test]
    fn xor_paths_do_not_merge_sum_classes_with_operands() {
        // The Sum line of a cell whose output fans out (accumulator
        // feeding register + output) must stay its own class.
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let y = b.add_labeled(x, d, "acc");
        let d2 = b.register(y);
        let z = b.add_labeled(y, d2, "acc2");
        b.output(z, "y");
        let n = b.finish().unwrap();
        let g = GateGraph::expand(&n);
        let u = universe_of(&n);
        let (c, _) = collapse(&n, &g, &u);
        let acc = n.find_label("acc").unwrap();
        // acc's sum word fans out to d2 and acc2: no Sum-line class of
        // acc may merge with any class on acc2.
        for (s, site) in u.sites().iter().enumerate() {
            if site.node != acc || site.representative.line != Line::Sum {
                continue;
            }
            for (t, other) in u.sites().iter().enumerate() {
                if other.node != acc {
                    assert_ne!(c.class_map[s], c.class_map[t], "fanned-out sum merged");
                }
            }
        }
    }
}
