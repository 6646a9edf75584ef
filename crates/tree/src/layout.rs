//! Layout realization: turning an implementation choice into placed
//! rectangles, and validating the result.
//!
//! Given a floorplan tree, a module library, and one chosen implementation
//! per leaf, the realizer computes every block's minimal size bottom-up
//! (slice composition and the closed-form wheel envelope) and then assigns
//! concrete coordinates top-down. The resulting layout is the physical
//! witness of an optimizer solution: the envelope area must equal the
//! optimizer's reported area, no two modules may overlap, and every module
//! must lie inside the envelope — all of which [`Layout::validate`] checks.

use core::fmt;

use fp_geom::{first_overlap, Area, Coord, PlacedRect, Point, Rect};
use fp_shape::combine::Compose;

use crate::{wheel, CutDir, FloorplanTree, ModuleLibrary, NodeId, NodeKind};

/// One implementation choice per leaf, in [`FloorplanTree::leaves_in_order`]
/// order: `choices[i]` indexes the implementation list of the module at the
/// `i`-th leaf.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Assignment {
    /// Implementation indices, one per leaf.
    pub choices: Vec<usize>,
}

impl Assignment {
    /// Wraps a choice vector.
    #[must_use]
    pub fn new(choices: Vec<usize>) -> Self {
        Assignment { choices }
    }

    /// The all-zeros assignment (every module's first implementation) for
    /// a tree with `leaves` leaves.
    #[must_use]
    pub fn first_fit(leaves: usize) -> Self {
        Assignment {
            choices: vec![0; leaves],
        }
    }
}

/// Errors reported when realizing an assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutError {
    /// The assignment length does not match the leaf count.
    ChoiceCount {
        /// Choices supplied.
        got: usize,
        /// Leaves in the tree.
        expected: usize,
    },
    /// A leaf references a module missing from the library.
    MissingModule {
        /// The leaf node.
        leaf: NodeId,
        /// The missing module id.
        module: usize,
    },
    /// A choice index is out of range for its module's implementation list.
    ChoiceOutOfRange {
        /// The leaf node.
        leaf: NodeId,
        /// The choice index.
        choice: usize,
        /// The implementation count.
        len: usize,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::ChoiceCount { got, expected } => {
                write!(f, "assignment has {got} choices for {expected} leaves")
            }
            LayoutError::MissingModule { leaf, module } => {
                write!(f, "leaf {leaf} references missing module {module}")
            }
            LayoutError::ChoiceOutOfRange { leaf, choice, len } => {
                write!(
                    f,
                    "leaf {leaf} choice {choice} out of range ({len} implementations)"
                )
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// A realized floorplan: every module placed, plus the enveloping
/// rectangle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// `(leaf node id, placed rectangle)` for every module instance.
    pub placed: Vec<(NodeId, PlacedRect)>,
    /// The enveloping rectangle (minimal for the given choices).
    pub envelope: Rect,
}

impl Layout {
    /// The envelope area.
    #[must_use]
    pub fn area(&self) -> Area {
        self.envelope.area()
    }

    /// Envelope area minus the summed module areas (all padding).
    #[must_use]
    pub fn dead_space(&self) -> Area {
        let used: Area = self.placed.iter().map(|(_, r)| r.area()).sum();
        self.area() - used
    }

    /// Polygonizes the dead space into connected whitespace regions
    /// (scanline union over the placed rectangles). The report's total is
    /// exactly [`Layout::dead_space`].
    #[must_use]
    pub fn whitespace(&self) -> fp_geom::WhitespaceReport {
        let rects: Vec<PlacedRect> = self.placed.iter().map(|&(_, r)| r).collect();
        fp_geom::whitespace(self.envelope, &rects)
    }

    /// Full layout post-processing: whitespace regions plus the merged
    /// rectilinear outlines of the occupied area, for export.
    #[must_use]
    pub fn polygonize(&self) -> fp_geom::Polygonized {
        let rects: Vec<PlacedRect> = self.placed.iter().map(|&(_, r)| r).collect();
        fp_geom::polygonize(self.envelope, &rects)
    }

    /// Renders the layout as ASCII art, at most `max_cols` characters wide.
    /// Each module is filled with a letter (`a`–`z` cycling by leaf order);
    /// dead space is `.`.
    ///
    /// ```
    /// use fp_tree::{generators, layout};
    ///
    /// let bench = generators::fig1();
    /// let lib = generators::module_library(&bench.tree, 3, 7);
    /// let realized = layout::realize(&bench.tree, &lib, &layout::Assignment::first_fit(5))?;
    /// let art = realized.to_ascii(40);
    /// assert!(art.lines().count() > 1);
    /// # Ok::<(), fp_tree::layout::LayoutError>(())
    /// ```
    #[must_use]
    pub fn to_ascii(&self, max_cols: usize) -> String {
        let max_cols = max_cols.max(4) as u64;
        if self.envelope.w == 0 || self.envelope.h == 0 {
            return String::new();
        }
        // Scale so the envelope fits in max_cols columns (2 chars per cell
        // horizontally keeps aspect roughly square in terminals).
        let scale = self.envelope.w.div_ceil(max_cols).max(1);
        let cols = (self.envelope.w.div_ceil(scale)) as usize;
        let rows = (self.envelope.h.div_ceil(scale)) as usize;
        let mut grid = vec![vec![b'.'; cols]; rows];
        for (ord, &(_, r)) in self.placed.iter().enumerate() {
            let glyph = b'a' + (ord % 26) as u8;
            let x0 = (r.x_min() / scale) as usize;
            let x1 = ((r.x_max().div_ceil(scale)) as usize).min(cols);
            let y0 = (r.y_min() / scale) as usize;
            let y1 = ((r.y_max().div_ceil(scale)) as usize).min(rows);
            for row in grid.iter_mut().take(y1).skip(y0) {
                for cell in row.iter_mut().take(x1).skip(x0) {
                    *cell = glyph;
                }
            }
        }
        // y grows upward: print top row first.
        let mut out = String::with_capacity(rows * (cols + 1));
        for row in grid.iter().rev() {
            out.push_str(core::str::from_utf8(row).expect("ascii"));
            out.push('\n');
        }
        out
    }

    /// Checks physical validity: no two modules overlap and every module
    /// lies inside the envelope. Returns a description of the first
    /// violation, if any.
    #[must_use]
    pub fn validate(&self) -> Option<String> {
        let rects: Vec<PlacedRect> = self.placed.iter().map(|&(_, r)| r).collect();
        if let Some((i, j)) = first_overlap(&rects) {
            return Some(format!(
                "modules at leaves {} and {} overlap ({} vs {})",
                self.placed[i].0, self.placed[j].0, rects[i], rects[j]
            ));
        }
        let env = PlacedRect::new(Point::ORIGIN, self.envelope);
        for &(leaf, r) in &self.placed {
            if !r.contained_in(&env) {
                return Some(format!("module at leaf {leaf} escapes the envelope: {r}"));
            }
        }
        None
    }
}

/// Realizes an assignment into a concrete layout with the minimal
/// envelope.
///
/// # Errors
///
/// Returns a [`LayoutError`] if the assignment does not match the tree and
/// library.
///
/// # Panics
///
/// Panics if `tree` fails validation (call [`FloorplanTree::validate`]
/// first for a graceful error).
///
/// # Example
///
/// ```
/// use fp_tree::{generators, layout};
///
/// let bench = generators::fig1();
/// let lib = generators::module_library(&bench.tree, 3, 7);
/// let assignment = layout::Assignment::first_fit(5);
/// let realized = layout::realize(&bench.tree, &lib, &assignment)?;
/// assert_eq!(realized.placed.len(), 5);
/// assert_eq!(realized.validate(), None);
/// # Ok::<(), fp_tree::layout::LayoutError>(())
/// ```
pub fn realize(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    assignment: &Assignment,
) -> Result<Layout, LayoutError> {
    assert!(tree.validate().is_ok(), "realize requires a valid tree");
    let leaves = tree.leaves_in_order();
    if assignment.choices.len() != leaves.len() {
        return Err(LayoutError::ChoiceCount {
            got: assignment.choices.len(),
            expected: leaves.len(),
        });
    }

    // Resolve each leaf's chosen rectangle.
    let mut chosen: Vec<Option<Rect>> = vec![None; tree.len()];
    for (&leaf, &choice) in leaves.iter().zip(&assignment.choices) {
        let module = match tree.node(leaf).expect("leaf exists").kind {
            NodeKind::Leaf(m) => m,
            _ => unreachable!("leaves_in_order returns leaves"),
        };
        let m = library
            .get(module)
            .ok_or(LayoutError::MissingModule { leaf, module })?;
        let rect = m
            .implementations()
            .get(choice)
            .ok_or(LayoutError::ChoiceOutOfRange {
                leaf,
                choice,
                len: m.implementations().len(),
            })?;
        chosen[leaf] = Some(rect);
    }

    if tree.is_empty() {
        return Ok(Layout {
            placed: Vec::new(),
            envelope: Rect::new(0, 0),
        });
    }

    // Bottom-up minimal sizes.
    let mut size: Vec<Rect> = vec![Rect::new(0, 0); tree.len()];
    compute_size(tree, tree.root(), &chosen, &mut size);

    // Top-down placement.
    let mut placed = Vec::with_capacity(leaves.len());
    place(
        tree,
        tree.root(),
        Point::ORIGIN,
        size[tree.root()],
        &size,
        &mut placed,
    );

    Ok(Layout {
        placed,
        envelope: size[tree.root()],
    })
}

/// Iterative post-order size computation (explicit stack: arbitrarily
/// deep floorplans must not exhaust the call stack).
fn compute_size(tree: &FloorplanTree, root: NodeId, chosen: &[Option<Rect>], size: &mut [Rect]) {
    let mut stack = vec![(root, false)];
    while let Some((id, expanded)) = stack.pop() {
        let node = tree.node(id).expect("valid tree");
        if !expanded {
            stack.push((id, true));
            for &c in node.children.iter().rev() {
                stack.push((c, false));
            }
            continue;
        }
        size[id] = match &node.kind {
            NodeKind::Leaf(_) => chosen[id].expect("all leaves resolved"),
            NodeKind::Slice(dir) => {
                let how = match dir {
                    CutDir::Vertical => Compose::Beside,
                    CutDir::Horizontal => Compose::Stack,
                };
                node.children
                    .iter()
                    .map(|&c| size[c])
                    .reduce(|a, b| how.apply(a, b))
                    .expect("slices have children")
            }
            NodeKind::Wheel(_) => wheel::min_envelope([
                size[node.children[0]],
                size[node.children[1]],
                size[node.children[2]],
                size[node.children[3]],
                size[node.children[4]],
            ]),
        };
    }
}

/// Iterative pre-order placement.
fn place(
    tree: &FloorplanTree,
    root: NodeId,
    origin: Point,
    region: Rect,
    size: &[Rect],
    placed: &mut Vec<(NodeId, PlacedRect)>,
) {
    let mut stack = vec![(root, origin, region)];
    while let Some((id, origin, region)) = stack.pop() {
        debug_assert!(region.dominates(size[id]), "region must fit the block");
        let node = tree.node(id).expect("valid tree");
        match &node.kind {
            NodeKind::Leaf(_) => {
                placed.push((id, PlacedRect::new(origin, size[id])));
            }
            NodeKind::Slice(dir) => {
                // Children anchored at cumulative offsets of their minimal
                // extent along the cut axis; they span the region across it.
                let mut offset: Coord = 0;
                for &c in node.children {
                    match dir {
                        CutDir::Vertical => {
                            stack.push((
                                c,
                                Point::new(origin.x + offset, origin.y),
                                Rect::new(size[c].w, region.h),
                            ));
                            offset += size[c].w;
                        }
                        CutDir::Horizontal => {
                            stack.push((
                                c,
                                Point::new(origin.x, origin.y + offset),
                                Rect::new(region.w, size[c].h),
                            ));
                            offset += size[c].h;
                        }
                    }
                }
            }
            NodeKind::Wheel(ch) => {
                let kids = [
                    size[node.children[0]],
                    size[node.children[1]],
                    size[node.children[2]],
                    size[node.children[3]],
                    size[node.children[4]],
                ];
                for (i, (x, y, r)) in wheel::regions(kids, *ch, region).into_iter().enumerate() {
                    stack.push((node.children[i], Point::new(origin.x + x, origin.y + y), r));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::{Chirality, Module};
    use proptest::prelude::*;

    fn domino_wheel() -> (FloorplanTree, ModuleLibrary) {
        let mut t = FloorplanTree::new();
        let ids: Vec<NodeId> = (0..5).map(|m| t.leaf(m)).collect();
        t.wheel(
            Chirality::Clockwise,
            [ids[0], ids[1], ids[2], ids[3], ids[4]],
        );
        let lib: ModuleLibrary = [
            Module::hard("a", Rect::new(1, 2), false),
            Module::hard("b", Rect::new(2, 1), false),
            Module::hard("c", Rect::new(1, 2), false),
            Module::hard("d", Rect::new(2, 1), false),
            Module::hard("e", Rect::new(1, 1), false),
        ]
        .into_iter()
        .collect();
        (t, lib)
    }

    #[test]
    fn domino_pinwheel_tiles_perfectly() {
        let (t, lib) = domino_wheel();
        let layout = realize(&t, &lib, &Assignment::first_fit(5)).expect("realizes");
        assert_eq!(layout.envelope, Rect::new(3, 3));
        assert_eq!(layout.dead_space(), 0);
        assert_eq!(layout.validate(), None);
    }

    #[test]
    fn slice_stack_positions() {
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        t.slice(CutDir::Horizontal, vec![a, b]);
        let lib: ModuleLibrary = [
            Module::hard("a", Rect::new(4, 2), false),
            Module::hard("b", Rect::new(3, 3), false),
        ]
        .into_iter()
        .collect();
        let layout = realize(&t, &lib, &Assignment::first_fit(2)).expect("realizes");
        assert_eq!(layout.envelope, Rect::new(4, 5));
        // b sits on top of a.
        let positions: Vec<(NodeId, Point)> = layout
            .placed
            .iter()
            .map(|&(id, r)| (id, r.origin))
            .collect();
        assert!(positions.contains(&(a, Point::new(0, 0))));
        assert!(positions.contains(&(b, Point::new(0, 2))));
        assert_eq!(layout.validate(), None);
        assert_eq!(layout.dead_space(), 20 - 8 - 9);
    }

    #[test]
    fn whitespace_report_matches_dead_space() {
        let (t, lib) = domino_wheel();
        let tiled = realize(&t, &lib, &Assignment::first_fit(5)).expect("realizes");
        let ws = tiled.whitespace();
        assert_eq!(ws.total, 0);
        assert_eq!(ws.count(), 0);

        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        t.slice(CutDir::Horizontal, vec![a, b]);
        let lib: ModuleLibrary = [
            Module::hard("a", Rect::new(4, 2), false),
            Module::hard("b", Rect::new(3, 3), false),
        ]
        .into_iter()
        .collect();
        let layout = realize(&t, &lib, &Assignment::first_fit(2)).expect("realizes");
        let ws = layout.whitespace();
        assert_eq!(ws.total, layout.dead_space());
        assert_eq!(ws.count(), 1, "the 1x3 slot right of b is one region");
        assert_eq!(ws.largest(), 3);
        let poly = layout.polygonize();
        assert_eq!(poly.whitespace.total, ws.total);
        assert!(!poly.outlines.is_empty());
    }

    #[test]
    fn error_cases() {
        let (t, lib) = domino_wheel();
        assert_eq!(
            realize(&t, &lib, &Assignment::first_fit(3)),
            Err(LayoutError::ChoiceCount {
                got: 3,
                expected: 5
            })
        );
        assert_eq!(
            realize(&t, &lib, &Assignment::new(vec![0, 0, 9, 0, 0])),
            Err(LayoutError::ChoiceOutOfRange {
                leaf: 2,
                choice: 9,
                len: 1
            })
        );
        let small: ModuleLibrary = [Module::hard("only", Rect::new(1, 1), false)]
            .into_iter()
            .collect();
        assert_eq!(
            realize(&t, &small, &Assignment::first_fit(5)),
            Err(LayoutError::MissingModule { leaf: 1, module: 1 })
        );
    }

    #[test]
    fn counterclockwise_wheel_also_valid() {
        let mut t = FloorplanTree::new();
        let ids: Vec<NodeId> = (0..5).map(|m| t.leaf(m)).collect();
        t.wheel(
            Chirality::Counterclockwise,
            [ids[0], ids[1], ids[2], ids[3], ids[4]],
        );
        let lib = generators::module_library(&t, 3, 5);
        let layout = realize(&t, &lib, &Assignment::first_fit(5)).expect("realizes");
        assert_eq!(layout.validate(), None);
    }

    proptest! {
        /// Any assignment of any benchmark realizes to a physically valid
        /// layout whose envelope area is at least the module area sum.
        #[test]
        fn random_assignments_realize_validly(
            seed in 0u64..50,
            tree_seed in 0u64..10,
            leaves in 2usize..20,
        ) {
            let bench = generators::random_floorplan(leaves, 0.4, tree_seed);
            let lib = generators::module_library(&bench.tree, 4, seed);
            // Pseudo-random but in-range choices.
            let choices: Vec<usize> =
                (0..leaves).map(|i| (seed as usize + i * 7) % 4).collect();
            let layout = realize(&bench.tree, &lib, &Assignment::new(choices))
                .expect("realizes");
            prop_assert_eq!(layout.validate(), None);
            prop_assert_eq!(layout.placed.len(), leaves);
        }

        /// The envelope from `realize` is monotone: upgrading one module to
        /// a dominating implementation cannot shrink the floorplan.
        #[test]
        fn envelope_monotone_in_choices(tree_seed in 0u64..10, leaves in 2usize..12) {
            let bench = generators::random_floorplan(leaves, 0.4, tree_seed);
            let lib = generators::module_library(&bench.tree, 3, 77);
            let base = realize(&bench.tree, &lib, &Assignment::first_fit(leaves))
                .expect("realizes");
            // Every single-leaf change still realizes validly.
            for i in 0..leaves {
                let mut choices = vec![0usize; leaves];
                choices[i] = 2;
                let alt = realize(&bench.tree, &lib, &Assignment::new(choices))
                    .expect("realizes");
                prop_assert_eq!(alt.validate(), None);
                // No dominance claim between different implementations —
                // just validity; sizes differ arbitrarily.
                prop_assert!(alt.area() > 0 && base.area() > 0);
            }
        }
    }
}
