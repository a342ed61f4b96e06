use crate::node::{Node, NodeId, NodeKind};
use crate::RtlError;
use fixedpoint::QFormat;

/// Incremental construction of a [`Netlist`].
///
/// All nodes share one datapath width. Construction methods return the
/// new node's id; [`NetlistBuilder::finish`] validates the graph and
/// computes the combinational evaluation order.
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    width: u32,
    nodes: Vec<Node>,
}

impl NetlistBuilder {
    /// Starts a netlist with the given datapath width (2..=63 bits).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::InvalidWidth`] for unsupported widths.
    pub fn new(width: u32) -> Result<Self, RtlError> {
        if !(2..=63).contains(&width) {
            return Err(RtlError::InvalidWidth { width });
        }
        Ok(NetlistBuilder { width, nodes: Vec::new() })
    }

    fn push(&mut self, kind: NodeKind, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { kind, label: label.into() });
        id
    }

    /// Adds an external input port.
    pub fn input(&mut self, label: impl Into<String>) -> NodeId {
        self.push(NodeKind::Input, label)
    }

    /// Adds a constant word (wrapped into the datapath width).
    pub fn constant(&mut self, raw: i64) -> NodeId {
        let q = QFormat::new(self.width, self.width - 1).expect("validated width");
        self.push(NodeKind::Const { raw: q.wrap(raw) }, String::new())
    }

    /// Adds a delay register on `src`.
    pub fn register(&mut self, src: NodeId) -> NodeId {
        self.push(NodeKind::Register { src }, String::new())
    }

    /// Adds a delay register with a label.
    pub fn register_labeled(&mut self, src: NodeId, label: impl Into<String>) -> NodeId {
        self.push(NodeKind::Register { src }, label)
    }

    /// Adds a ripple-carry adder `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(NodeKind::Add { a, b }, String::new())
    }

    /// Adds a labeled ripple-carry adder `a + b`.
    pub fn add_labeled(&mut self, a: NodeId, b: NodeId, label: impl Into<String>) -> NodeId {
        self.push(NodeKind::Add { a, b }, label)
    }

    /// Adds a ripple-carry subtractor `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(NodeKind::Sub { a, b }, String::new())
    }

    /// Adds a labeled ripple-carry subtractor `a - b`.
    pub fn sub_labeled(&mut self, a: NodeId, b: NodeId, label: impl Into<String>) -> NodeId {
        self.push(NodeKind::Sub { a, b }, label)
    }

    /// Adds a hardwired arithmetic right shift.
    pub fn shift_right(&mut self, src: NodeId, amount: u32) -> NodeId {
        self.push(NodeKind::ShiftRight { src, amount }, String::new())
    }

    /// Adds a bitwise inverter bank (`!src`).
    pub fn not_word(&mut self, src: NodeId) -> NodeId {
        self.push(NodeKind::Not { src }, String::new())
    }

    /// Adds an LSB-tie (`src | 1`) — wiring for carry-save subtraction.
    pub fn set_lsb(&mut self, src: NodeId) -> NodeId {
        self.push(NodeKind::SetLsb { src }, String::new())
    }

    /// Adds a carry-save (3:2 compressor) stage and returns its
    /// `(sum, carry)` node pair. Faults for the stage's shared
    /// full-adder cells are injected on the returned sum node.
    pub fn csa(
        &mut self,
        a: NodeId,
        b: NodeId,
        c: NodeId,
        label: impl Into<String>,
    ) -> (NodeId, NodeId) {
        let label = label.into();
        let sum = self.push(NodeKind::CsaSum { a, b, c }, label.clone());
        let carry = self.push(
            NodeKind::CsaCarry { a, b, c, sum },
            if label.is_empty() { String::new() } else { format!("{label}.carry") },
        );
        (sum, carry)
    }

    /// Adds an output port observing `src`.
    pub fn output(&mut self, src: NodeId, label: impl Into<String>) -> NodeId {
        self.push(NodeKind::Output { src }, label)
    }

    /// Validates the graph and freezes it into a [`Netlist`].
    ///
    /// # Errors
    ///
    /// * [`RtlError::UnknownNode`] for an operand that does not name an
    ///   *earlier* node of this builder: dangling references, and
    ///   forward ones such as an id borrowed from another netlist. Every
    ///   operand therefore points backwards, so the node order is a
    ///   topological order even through registers — the netlist has no
    ///   feedback, which the fault simulator's time-parallel good trace
    ///   relies on.
    /// * [`RtlError::CombinationalCycle`] if a cycle exists that does not
    ///   pass through a register (unreachable while operands point
    ///   backwards; kept as a second line of defence).
    /// * [`RtlError::MissingPort`] if there is no input or no output.
    pub fn finish(self) -> Result<Netlist, RtlError> {
        let n = self.nodes.len();
        for (i, node) in self.nodes.iter().enumerate() {
            for op in node.kind.operands() {
                if op.index() >= i {
                    return Err(RtlError::UnknownNode { node: op });
                }
            }
        }
        if !self.nodes.iter().any(|x| matches!(x.kind, NodeKind::Input)) {
            return Err(RtlError::MissingPort { kind: "input" });
        }
        if !self.nodes.iter().any(|x| matches!(x.kind, NodeKind::Output { .. })) {
            return Err(RtlError::MissingPort { kind: "output" });
        }

        // Kahn's algorithm over combinational edges (registers are
        // sources: they read stored state, not their operand).
        let mut indegree = vec![0usize; n];
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            if matches!(node.kind, NodeKind::Register { .. }) {
                continue;
            }
            for op in node.kind.operands() {
                indegree[i] += 1;
                fanout[op.index()].push(i as u32);
            }
        }
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut ready: Vec<u32> = (0..n as u32).filter(|&i| indegree[i as usize] == 0).collect();
        while let Some(i) = ready.pop() {
            order.push(i);
            for &j in &fanout[i as usize] {
                indegree[j as usize] -= 1;
                if indegree[j as usize] == 0 {
                    ready.push(j);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n).find(|&i| indegree[i] > 0).expect("cycle exists");
            return Err(RtlError::CombinationalCycle { node: NodeId(stuck as u32) });
        }

        let registers: Vec<u32> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, x)| matches!(x.kind, NodeKind::Register { .. }))
            .map(|(i, _)| i as u32)
            .collect();
        let inputs: Vec<u32> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, x)| matches!(x.kind, NodeKind::Input))
            .map(|(i, _)| i as u32)
            .collect();
        let outputs: Vec<u32> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, x)| matches!(x.kind, NodeKind::Output { .. }))
            .map(|(i, _)| i as u32)
            .collect();

        let msb_trim = vec![self.width - 1; self.nodes.len()];
        Ok(Netlist {
            width: self.width,
            nodes: self.nodes,
            order,
            registers,
            inputs,
            outputs,
            msb_trim,
        })
    }
}

/// A validated, immutable netlist.
#[derive(Debug, Clone)]
pub struct Netlist {
    width: u32,
    nodes: Vec<Node>,
    /// Combinational evaluation order (topological).
    order: Vec<u32>,
    registers: Vec<u32>,
    inputs: Vec<u32>,
    outputs: Vec<u32>,
    /// Per-node top full-adder cell; cells above it are sign-extension
    /// wiring (see [`Netlist::with_sign_trimming`]).
    msb_trim: Vec<u32>,
}

impl Netlist {
    /// Datapath width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The datapath word format (`Q1.(width-1)`).
    pub fn format(&self) -> QFormat {
        QFormat::new(self.width, self.width - 1).expect("validated width")
    }

    /// All nodes, indexable by [`NodeId::index`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The id of the node at `index` in the node table.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn node_id(&self, index: usize) -> NodeId {
        assert!(index < self.nodes.len(), "node index {index} out of range");
        NodeId(index as u32)
    }

    /// Ids of all nodes, in creation order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Topological combinational evaluation order (node indices).
    pub fn eval_order(&self) -> &[u32] {
        &self.order
    }

    /// Indices of register nodes.
    pub fn register_indices(&self) -> &[u32] {
        &self.registers
    }

    /// Input port ids, in creation order.
    pub fn input_ids(&self) -> Vec<NodeId> {
        self.inputs.iter().map(|&i| NodeId(i)).collect()
    }

    /// Output port ids, in creation order.
    pub fn output_ids(&self) -> Vec<NodeId> {
        self.outputs.iter().map(|&i| NodeId(i)).collect()
    }

    /// Finds a node by label.
    pub fn find_label(&self, label: &str) -> Option<NodeId> {
        self.nodes.iter().position(|x| x.label == label).map(|i| NodeId(i as u32))
    }

    /// Ids of all adders and subtractors, in creation order.
    pub fn arithmetic_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, x)| x.kind.is_arithmetic())
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Applies the sign-extension optimization implied by a value-range
    /// analysis: every adder/subtractor keeps full-adder cells only up
    /// to its range's MSB; the top kept cell loses its carry logic
    /// (nothing consumes the carry) and the bits above are wired to the
    /// sign — the paper's "scaling techniques to identify and remove
    /// redundant sign bits". Fault-free behaviour is unchanged (the
    /// range analysis guarantees those bits equal the sign); *faulty*
    /// behaviour honors the reduced hardware.
    pub fn with_sign_trimming(mut self, ranges: &crate::range::RangeAnalysis) -> Netlist {
        let trims: Vec<(usize, u32)> = self
            .arithmetic_ids()
            .into_iter()
            // Carry-save stages are not trimmed: every cell's carry
            // output feeds the next stage's shifted carry word.
            .filter(|&id| !matches!(self.node(id).kind, NodeKind::CsaSum { .. }))
            .filter_map(|id| ranges.active_span(&self, id).map(|(_, msb)| (id.index(), msb)))
            .collect();
        for (idx, msb) in trims {
            self.msb_trim[idx] = msb;
        }
        self
    }

    /// The top full-adder cell of a node after sign trimming (defaults
    /// to `width - 1` when untrimmed).
    pub fn msb_trim(&self, id: NodeId) -> u32 {
        self.msb_trim[id.index()]
    }

    /// Structural statistics (the rows of the paper's Table 1, minus the
    /// fault count which depends on the fault model in `bist-faultsim`).
    pub fn stats(&self) -> NetlistStats {
        let mut s = NetlistStats { width: self.width, ..NetlistStats::default() };
        for node in &self.nodes {
            match node.kind {
                NodeKind::Input => s.inputs += 1,
                NodeKind::Const { .. } => s.constants += 1,
                NodeKind::Register { .. } => s.registers += 1,
                NodeKind::Add { .. } => s.adders += 1,
                NodeKind::Sub { .. } => s.subtractors += 1,
                NodeKind::ShiftRight { .. } => s.shifts += 1,
                NodeKind::Output { .. } => s.outputs += 1,
                NodeKind::CsaSum { .. } => s.csa_stages += 1,
                NodeKind::CsaCarry { .. } | NodeKind::Not { .. } | NodeKind::SetLsb { .. } => {}
            }
        }
        s
    }
}

/// Structural element counts of a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Datapath width in bits.
    pub width: u32,
    /// Input ports.
    pub inputs: u32,
    /// Output ports.
    pub outputs: u32,
    /// Constant words.
    pub constants: u32,
    /// Delay registers.
    pub registers: u32,
    /// Ripple-carry adders.
    pub adders: u32,
    /// Ripple-carry subtractors.
    pub subtractors: u32,
    /// Hardwired shifts.
    pub shifts: u32,
    /// Carry-save (3:2 compressor) stages.
    pub csa_stages: u32,
}

impl NetlistStats {
    /// Adders plus subtractors plus carry-save stages — the "adders"
    /// column of the paper's Table 1 (which counts all adder-class
    /// elements).
    pub fn arithmetic(&self) -> u32 {
        self.adders + self.subtractors + self.csa_stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Netlist {
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let d = b.register_labeled(x, "z1");
        let s = b.shift_right(d, 1);
        let y = b.add_labeled(x, s, "acc");
        b.output(y, "y");
        b.finish().unwrap()
    }

    #[test]
    fn builder_produces_valid_netlist() {
        let n = toy();
        assert_eq!(n.width(), 8);
        assert_eq!(n.stats().adders, 1);
        assert_eq!(n.stats().registers, 1);
        assert_eq!(n.stats().shifts, 1);
        assert_eq!(n.input_ids().len(), 1);
        assert_eq!(n.output_ids().len(), 1);
        assert_eq!(n.find_label("acc"), Some(NodeId(3)));
        assert_eq!(n.find_label("nope"), None);
        assert_eq!(n.arithmetic_ids(), vec![NodeId(3)]);
    }

    #[test]
    fn eval_order_respects_dependencies() {
        let n = toy();
        let pos: Vec<usize> = {
            let mut p = vec![0; n.nodes().len()];
            for (rank, &i) in n.eval_order().iter().enumerate() {
                p[i as usize] = rank;
            }
            p
        };
        for (i, node) in n.nodes().iter().enumerate() {
            if matches!(node.kind, NodeKind::Register { .. }) {
                continue;
            }
            for op in node.kind.operands() {
                assert!(pos[op.index()] < pos[i], "node {i} evaluated before operand");
            }
        }
    }

    #[test]
    fn rejects_invalid_width() {
        assert!(NetlistBuilder::new(1).is_err());
        assert!(NetlistBuilder::new(64).is_err());
        assert!(NetlistBuilder::new(2).is_ok());
    }

    #[test]
    fn rejects_missing_ports() {
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        assert_eq!(b.clone().finish().unwrap_err(), RtlError::MissingPort { kind: "output" });
        b.output(x, "y");
        assert!(b.finish().is_ok());

        let mut b2 = NetlistBuilder::new(8).unwrap();
        let c = b2.constant(1);
        b2.output(c, "y");
        assert_eq!(b2.finish().unwrap_err(), RtlError::MissingPort { kind: "input" });
    }

    #[test]
    fn register_cycles_are_legal_combinational_are_not() {
        // No cycle of any kind can be expressed: a cycle needs an
        // operand id that points forward, and the builder's own ids
        // always point backwards. A dangling forward id is rejected as
        // an unknown node (see `borrowed_forward_ids_are_rejected` for
        // one that names a real node). Chained registers are legal.
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let d1 = b.register(x);
        let d2 = b.register(d1);
        let fwd = NodeId(10);
        let bad = b.add(d2, fwd);
        b.output(bad, "y");
        assert!(matches!(b.finish(), Err(RtlError::UnknownNode { .. })));
    }

    #[test]
    fn borrowed_forward_ids_are_rejected() {
        // An id taken from another netlist can name a node this builder
        // creates later: here a register fed by the adder after it —
        // register feedback. `finish` refuses the forward operand.
        let donor = toy();
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let fwd = donor.node_id(2);
        let d = b.register(fwd);
        let acc = b.add(x, d);
        assert_eq!(acc, fwd, "the borrowed id names the adder");
        b.output(acc, "y");
        assert_eq!(b.finish().unwrap_err(), RtlError::UnknownNode { node: fwd });

        // A node may not name itself either.
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let own = donor.node_id(1);
        let d = b.register(own);
        assert_eq!(d, own);
        b.output(x, "y");
        assert_eq!(b.finish().unwrap_err(), RtlError::UnknownNode { node: own });
    }

    #[test]
    fn constants_wrap_into_width() {
        let mut b = NetlistBuilder::new(4).unwrap();
        let c = b.constant(9); // wraps to -7 in 4 bits
        let x = b.input("x");
        let s = b.add(c, x);
        b.output(s, "y");
        let n = b.finish().unwrap();
        match n.node(NodeId(0)).kind {
            NodeKind::Const { raw } => assert_eq!(raw, -7),
            _ => panic!("expected const"),
        }
    }
}
