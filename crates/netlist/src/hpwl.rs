//! Half-perimeter wirelength (HPWL) evaluation over realized layouts,
//! with incremental per-net bounding boxes.
//!
//! The evaluator keeps one bounding box (really: one HPWL value) per
//! net, plus the placement and implementation choice of every module it
//! has seen. A *full* evaluation recomputes every net; an *incremental*
//! [`HpwlEvaluator::update`] diffs the new layout against the stored
//! placements and recomputes only the nets incident to modules that
//! actually moved or changed shape (plus every pad-connected net when
//! the envelope changed, since pad positions scale with the envelope).
//! Both paths run the identical per-net arithmetic, so incremental and
//! full evaluation agree exactly — a property the proptest suite pins.

use core::fmt;

use fp_geom::{Coord, PlacedRect, Rect};
use fp_tree::layout::{Assignment, Layout};
use fp_tree::{FloorplanTree, ModuleId, NodeKind};

use crate::model::{BoundEndpoint, BoundNetlist, PinOffset};

/// Errors evaluating a layout against a bound netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalError {
    /// A net references a module the layout does not place.
    Unplaced {
        /// The missing module's id.
        module: ModuleId,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Unplaced { module } => {
                write!(f, "layout does not place module {module}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Callback receiving each changed module's incident-net list while a
/// layout is stored.
type TouchedSink<'a> = &'a mut dyn FnMut(&[u32]);

/// The incremental HPWL evaluator. Create one per bound netlist and
/// feed it layouts; it is deliberately independent of any particular
/// floorplan *topology* (modules are tracked by id), so one evaluator
/// serves an entire annealing run across changing trees.
#[derive(Debug, Clone)]
pub struct HpwlEvaluator<'a> {
    bound: &'a BoundNetlist,
    /// Per module id: last seen `(placement, implementation choice)`.
    placements: Vec<Option<(PlacedRect, usize)>>,
    envelope: Rect,
    net_hpwl: Vec<u64>,
    total: u128,
    evals: u64,
    nets_touched: u64,
    last_touched: u64,
    dirty: Vec<bool>,
    /// Scratch buffers reused by [`HpwlEvaluator::store_layout`] — it
    /// runs on every incremental probe, where per-call allocations
    /// would dominate small-net updates.
    choice_scratch: Vec<usize>,
    stack_scratch: Vec<usize>,
}

impl<'a> HpwlEvaluator<'a> {
    /// A fresh evaluator over `bound` with no placements yet.
    #[must_use]
    pub fn new(bound: &'a BoundNetlist) -> Self {
        HpwlEvaluator {
            bound,
            placements: vec![None; bound.module_count()],
            envelope: Rect::new(1, 1),
            net_hpwl: vec![0; bound.net_count()],
            total: 0,
            evals: 0,
            nets_touched: 0,
            last_touched: 0,
            dirty: vec![false; bound.net_count()],
            choice_scratch: Vec::new(),
            stack_scratch: Vec::new(),
        }
    }

    /// The current total HPWL (sum of per-net half-perimeters).
    #[must_use]
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Evaluations performed (full + incremental).
    #[must_use]
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Net bounding boxes recomputed over the evaluator's lifetime.
    #[must_use]
    pub fn nets_touched(&self) -> u64 {
        self.nets_touched
    }

    /// Nets recomputed by the most recent evaluation.
    #[must_use]
    pub fn last_touched(&self) -> u64 {
        self.last_touched
    }

    /// Nets in the bound netlist this evaluator scores.
    #[must_use]
    pub fn nets(&self) -> usize {
        self.bound.net_count()
    }

    /// Full evaluation: stores the layout and recomputes every net.
    ///
    /// # Errors
    ///
    /// [`EvalError::Unplaced`] when a net references a module absent
    /// from the layout.
    pub fn evaluate_full(
        &mut self,
        tree: &FloorplanTree,
        layout: &Layout,
        assignment: &Assignment,
    ) -> Result<u128, EvalError> {
        self.store_layout(tree, layout, assignment, None);
        let mut total: u128 = 0;
        for net in 0..self.bound.net_count() {
            let h = self.net_hpwl_of(net)?;
            self.net_hpwl[net] = h;
            total += u128::from(h);
        }
        self.total = total;
        self.evals += 1;
        self.last_touched = self.bound.net_count() as u64;
        self.nets_touched += self.last_touched;
        Ok(total)
    }

    /// Incremental evaluation: diffs `layout` against the stored
    /// placements and recomputes only the touched nets. The first call
    /// (or a call after module count changes) degenerates to a full
    /// evaluation.
    ///
    /// # Errors
    ///
    /// Same as [`HpwlEvaluator::evaluate_full`].
    pub fn update(
        &mut self,
        tree: &FloorplanTree,
        layout: &Layout,
        assignment: &Assignment,
    ) -> Result<u128, EvalError> {
        if self.evals == 0 {
            return self.evaluate_full(tree, layout, assignment);
        }
        let mut dirty_nets: Vec<u32> = Vec::new();
        let mark = |nets: &[u32], dirty: &mut Vec<bool>, dirty_nets: &mut Vec<u32>| {
            for &n in nets {
                if !dirty[n as usize] {
                    dirty[n as usize] = true;
                    dirty_nets.push(n);
                }
            }
        };
        let envelope_before = self.envelope;
        // Borrow `dirty` locally so `store_layout` can mark nets while
        // placements are rewritten in place.
        let mut dirty = std::mem::take(&mut self.dirty);
        self.store_layout(
            tree,
            layout,
            assignment,
            Some(&mut |nets| {
                mark(nets, &mut dirty, &mut dirty_nets);
            }),
        );
        if self.envelope != envelope_before {
            mark(&self.bound.pad_nets, &mut dirty, &mut dirty_nets);
        }
        for &n in &dirty_nets {
            dirty[n as usize] = false;
        }
        self.dirty = dirty;

        for &n in &dirty_nets {
            let n = n as usize;
            let h = self.net_hpwl_of(n)?;
            self.total -= u128::from(self.net_hpwl[n]);
            self.net_hpwl[n] = h;
            self.total += u128::from(h);
        }
        self.evals += 1;
        self.last_touched = dirty_nets.len() as u64;
        self.nets_touched += self.last_touched;
        Ok(self.total)
    }

    /// Writes the layout's placements into the evaluator, invoking
    /// `touched` with each changed module's incident-net list.
    fn store_layout(
        &mut self,
        tree: &FloorplanTree,
        layout: &Layout,
        assignment: &Assignment,
        mut touched: Option<TouchedSink<'_>>,
    ) {
        self.envelope = layout.envelope;
        // `layout.placed` is in placement traversal order; choices are in
        // `leaves_in_order` (depth-first, left-to-right) order — key both
        // by leaf node id. The DFS runs inline over scratch buffers
        // instead of allocating `tree.leaves_in_order()` per call.
        let mut choice_of = std::mem::take(&mut self.choice_scratch);
        choice_of.clear();
        choice_of.resize(tree.len(), 0);
        let mut stack = std::mem::take(&mut self.stack_scratch);
        stack.clear();
        if !tree.is_empty() {
            stack.push(tree.root());
        }
        let mut next_choice = assignment.choices.iter();
        while let Some(id) = stack.pop() {
            let Some(node) = tree.node(id) else { continue };
            if matches!(node.kind, NodeKind::Leaf(_)) {
                choice_of[id] = next_choice.next().copied().unwrap_or(0);
            } else {
                stack.extend(node.children.iter().rev());
            }
        }
        self.stack_scratch = stack;
        for (leaf, rect) in &layout.placed {
            let module = match tree.node(*leaf).map(|n| n.kind) {
                Some(NodeKind::Leaf(m)) => m,
                _ => continue,
            };
            if module >= self.placements.len() {
                continue;
            }
            let choice = choice_of.get(*leaf).copied().unwrap_or(0);
            let next = Some((*rect, choice));
            if self.placements[module] != next {
                self.placements[module] = next;
                if let Some(touched) = touched.as_deref_mut() {
                    touched(self.bound.incident(module));
                }
            }
        }
        self.choice_scratch = choice_of;
    }

    /// The pad's position scaled from the declared die onto the current
    /// envelope (round-to-nearest; exact at the boundary corners).
    fn pad_point(&self, pad: usize) -> (Coord, Coord) {
        let p = self.bound.pads[pad].position;
        match self.bound.die {
            Some(die) if die.w > 0 && die.h > 0 => {
                let scale = |v: Coord, from: Coord, to: Coord| -> Coord {
                    ((u128::from(v) * u128::from(to) + u128::from(from) / 2) / u128::from(from))
                        as Coord
                };
                (
                    scale(p.x, die.w, self.envelope.w),
                    scale(p.y, die.h, self.envelope.h),
                )
            }
            _ => (p.x, p.y),
        }
    }

    /// The pin's absolute position on its module's current placement.
    fn pin_point(&self, pin: u32, place: PlacedRect, choice: usize) -> (Coord, Coord) {
        let decl = &self.bound.pins[pin as usize];
        let (dx, dy) = match &decl.offset {
            PinOffset::Fraction { fx, fy } => {
                // w, h ≤ MAX_COORD = 2^40 < 2^53: the f64 products are
                // exact enough that rounding is deterministic.
                let dx = (fx * place.size.w as f64).round() as Coord;
                let dy = (fy * place.size.h as f64).round() as Coord;
                (dx.min(place.size.w), dy.min(place.size.h))
            }
            PinOffset::PerImpl(offsets) => {
                let k = choice.min(offsets.len().saturating_sub(1));
                offsets.get(k).copied().unwrap_or((0, 0))
            }
        };
        (place.origin.x + dx, place.origin.y + dy)
    }

    /// Recomputes one net's half-perimeter from current placements.
    fn net_hpwl_of(&self, net: usize) -> Result<u64, EvalError> {
        let mut min_x = Coord::MAX;
        let mut max_x = 0;
        let mut min_y = Coord::MAX;
        let mut max_y = 0;
        for &ep in &self.bound.nets[net].endpoints {
            let (x, y) = match ep {
                BoundEndpoint::Module { module, pin } => {
                    let Some((place, choice)) = self.placements[module] else {
                        return Err(EvalError::Unplaced { module });
                    };
                    self.pin_point(pin, place, choice)
                }
                BoundEndpoint::Pad(pad) => self.pad_point(pad as usize),
            };
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        if min_x == Coord::MAX {
            return Ok(0); // unreachable: nets have ≥ 2 endpoints
        }
        Ok((max_x - min_x) + (max_y - min_y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random_netlist;
    use crate::model::{Endpoint, Net, Netlist, Pad, Pin};
    use fp_geom::Point;
    use fp_tree::{generators, layout, Module, ModuleLibrary};

    fn two_module_setup() -> (FloorplanTree, ModuleLibrary, Netlist) {
        let mut lib = ModuleLibrary::new();
        let a = lib.add(Module::new("a", vec![Rect::new(4, 2), Rect::new(2, 4)]));
        let b = lib.add(Module::new("b", vec![Rect::new(3, 3)]));
        let mut tree = FloorplanTree::new();
        let la = tree.leaf(a);
        let lb = tree.leaf(b);
        let root = tree.slice(fp_tree::CutDir::Vertical, vec![la, lb]);
        tree.set_root(root);

        let mut netlist = Netlist::new("t");
        netlist.die = Some(Rect::new(10, 10));
        netlist.pads.push(Pad {
            name: "io".into(),
            position: Point::new(0, 0),
        });
        netlist.pins.push(Pin {
            module: "a".into(),
            name: "p".into(),
            offset: PinOffset::Fraction { fx: 1.0, fy: 0.0 },
        });
        netlist.pins.push(Pin {
            module: "b".into(),
            name: "q".into(),
            offset: PinOffset::PerImpl(vec![(0, 3)]),
        });
        netlist.nets.push(Net {
            name: "n0".into(),
            endpoints: vec![Endpoint::Pin(0), Endpoint::Pin(1)],
        });
        netlist.nets.push(Net {
            name: "n1".into(),
            endpoints: vec![Endpoint::Pin(1), Endpoint::Pad(0)],
        });
        (tree, lib, netlist)
    }

    #[test]
    fn hand_checked_hpwl() {
        let (tree, lib, netlist) = two_module_setup();
        let bound = netlist.bind(&lib).expect("binds");
        let mut eval = HpwlEvaluator::new(&bound);
        // Choice 0 for both: a = 4x2 at (0,0), b = 3x3 at (4,0); envelope 7x3.
        let assignment = layout::Assignment::first_fit(2);
        let l = layout::realize(&tree, &lib, &assignment).expect("realizes");
        let total = eval.evaluate_full(&tree, &l, &assignment).expect("evals");
        // n0: a.p at (4, 0), b.q at (4, 3) -> 0 + 3 = 3.
        // n1: b.q at (4, 3), pad at scaled (0, 0) -> 4 + 3 = 7.
        assert_eq!(total, 10);
        assert_eq!(eval.last_touched(), 2);
    }

    #[test]
    fn incremental_matches_full_on_choice_change() {
        let (tree, lib, netlist) = two_module_setup();
        let bound = netlist.bind(&lib).expect("binds");
        let mut eval = HpwlEvaluator::new(&bound);
        let a0 = layout::Assignment::first_fit(2);
        let l0 = layout::realize(&tree, &lib, &a0).expect("realizes");
        eval.update(&tree, &l0, &a0).expect("full");
        // Flip module a to its 2x4 implementation.
        let a1 = layout::Assignment::new(vec![1, 0]);
        let l1 = layout::realize(&tree, &lib, &a1).expect("realizes");
        let incremental = eval.update(&tree, &l1, &a1).expect("incremental");
        let mut fresh = HpwlEvaluator::new(&bound);
        let full = fresh.evaluate_full(&tree, &l1, &a1).expect("full");
        assert_eq!(incremental, full);
    }

    #[test]
    fn incremental_touches_fewer_nets_than_full() {
        let bench = generators::fp1();
        let lib = generators::module_library(&bench.tree, 3, 7);
        let netlist = random_netlist(&lib, 40, 5);
        let bound = netlist.bind(&lib).expect("binds");
        let leaves = bench.tree.leaves_in_order().len();
        let mut eval = HpwlEvaluator::new(&bound);
        let a0 = layout::Assignment::first_fit(leaves);
        let l0 = layout::realize(&bench.tree, &lib, &a0).expect("realizes");
        eval.update(&bench.tree, &l0, &a0).expect("full");
        assert_eq!(eval.last_touched(), 40);
        // An identical layout touches nothing.
        let same = eval.update(&bench.tree, &l0, &a0).expect("noop");
        assert_eq!(eval.last_touched(), 0);
        assert_eq!(same, eval.total());
    }

    #[test]
    fn unplaced_module_is_reported() {
        let (_, lib, netlist) = two_module_setup();
        let bound = netlist.bind(&lib).expect("binds");
        let mut eval = HpwlEvaluator::new(&bound);
        // A tree that instantiates only module 1 leaves module 0 unplaced.
        let mut tree = FloorplanTree::new();
        let la = tree.leaf(1);
        let lb = tree.leaf(1);
        let root = tree.slice(fp_tree::CutDir::Vertical, vec![la, lb]);
        tree.set_root(root);
        let assignment = layout::Assignment::first_fit(2);
        let l = layout::realize(&tree, &lib, &assignment).expect("realizes");
        assert_eq!(
            eval.evaluate_full(&tree, &l, &assignment),
            Err(EvalError::Unplaced { module: 0 })
        );
    }
}
