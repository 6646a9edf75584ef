//! Visual exports: SVG renderings of layouts and Graphviz DOT renderings
//! of floorplan trees.

use std::fmt::Write as _;

use crate::layout::Layout;
use crate::{FloorplanTree, ModuleLibrary, NodeKind};

/// A muted qualitative palette cycled across modules.
const PALETTE: [&str; 10] = [
    "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3", "#fdb462", "#b3de69", "#fccde5",
    "#d9d9d9", "#bc80bd",
];

/// Renders a realized layout as a standalone SVG document.
///
/// Every module becomes a filled rectangle with a label (the module name
/// when `library` covers the leaf, else the leaf id); the envelope is
/// outlined. The y-axis is flipped so that the floorplan's origin sits at
/// the bottom-left, as in the geometry model.
///
/// ```
/// use fp_tree::{export, generators, layout};
///
/// let bench = generators::fig1();
/// let lib = generators::module_library(&bench.tree, 3, 7);
/// let realized = layout::realize(&bench.tree, &lib, &layout::Assignment::first_fit(5))?;
/// let svg = export::layout_to_svg(&realized, &bench.tree, &lib, 480);
/// assert!(svg.starts_with("<svg"));
/// assert_eq!(svg.matches("<rect").count(), 6); // envelope + 5 modules
/// # Ok::<(), fp_tree::layout::LayoutError>(())
/// ```
#[must_use]
pub fn layout_to_svg(
    layout: &Layout,
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    width_px: u32,
) -> String {
    let env_w = layout.envelope.w.max(1) as f64;
    let env_h = layout.envelope.h.max(1) as f64;
    let scale = f64::from(width_px.max(64)) / env_w;
    let height_px = (env_h * scale).ceil();
    let mut svg = String::new();
    let _ = write!(
        svg,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" viewBox="0 0 {:.2} {:.2}" font-family="monospace">"##,
        f64::from(width_px),
        height_px,
        env_w * scale,
        env_h * scale,
    );
    let _ = write!(
        svg,
        r##"<rect x="0" y="0" width="{:.2}" height="{:.2}" fill="none" stroke="#333" stroke-width="1.5"/>"##,
        env_w * scale,
        env_h * scale,
    );
    for (ord, &(leaf, r)) in layout.placed.iter().enumerate() {
        let x = r.x_min() as f64 * scale;
        // SVG's y grows downward; our layouts grow upward.
        let y = (env_h - r.y_max() as f64) * scale;
        let w = r.size.w as f64 * scale;
        let h = r.size.h as f64 * scale;
        let fill = PALETTE[ord % PALETTE.len()];
        let label = match tree.node(leaf).map(|n| n.kind) {
            Some(NodeKind::Leaf(m)) => library
                .get(m)
                .map_or_else(|| format!("leaf{leaf}"), |module| module.name().to_owned()),
            _ => format!("leaf{leaf}"),
        };
        let _ = write!(
            svg,
            r##"<rect x="{x:.2}" y="{y:.2}" width="{w:.2}" height="{h:.2}" fill="{fill}" stroke="#555" stroke-width="0.75"/>"##,
        );
        let font = (w.min(h) * 0.35).clamp(4.0, 16.0);
        let _ = write!(
            svg,
            r##"<text x="{:.2}" y="{:.2}" font-size="{font:.1}" text-anchor="middle" dominant-baseline="middle">{label}</text>"##,
            x + w / 2.0,
            y + h / 2.0,
        );
    }
    svg.push_str("</svg>");
    svg
}

/// Renders a floorplan tree as Graphviz DOT (leaves labelled with module
/// names when the library covers them).
///
/// ```
/// use fp_tree::{export, generators};
///
/// let bench = generators::fig1();
/// let lib = generators::module_library(&bench.tree, 2, 1);
/// let dot = export::tree_to_dot(&bench.tree, &lib);
/// assert!(dot.starts_with("digraph floorplan {"));
/// assert!(dot.contains("->"));
/// ```
#[must_use]
pub fn tree_to_dot(tree: &FloorplanTree, library: &ModuleLibrary) -> String {
    let mut dot =
        String::from("digraph floorplan {\n  rankdir=TB;\n  node [fontname=monospace];\n");
    for id in 0..tree.len() {
        let node = tree.node(id).expect("in range");
        let (label, shape) = match &node.kind {
            NodeKind::Leaf(m) => {
                let name = library
                    .get(*m)
                    .map_or_else(|| format!("m{m}"), |module| module.name().to_owned());
                (name, "box")
            }
            NodeKind::Slice(dir) => (
                match dir {
                    crate::CutDir::Horizontal => "hsplit".to_owned(),
                    crate::CutDir::Vertical => "vsplit".to_owned(),
                },
                "ellipse",
            ),
            NodeKind::Wheel(ch) => (
                match ch {
                    crate::Chirality::Clockwise => "wheel cw".to_owned(),
                    crate::Chirality::Counterclockwise => "wheel ccw".to_owned(),
                },
                "diamond",
            ),
        };
        let _ = writeln!(dot, "  n{id} [label=\"{label}\", shape={shape}];");
        for &c in node.children {
            let _ = writeln!(dot, "  n{id} -> n{c};");
        }
    }
    dot.push_str("}\n");
    dot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{realize, Assignment};
    use crate::{generators, CutDir, Module};
    use fp_geom::Rect;

    #[test]
    fn svg_contains_all_modules_and_labels() {
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        t.slice(CutDir::Vertical, vec![a, b]);
        let lib: ModuleLibrary = [
            Module::hard("alu", Rect::new(4, 2), false),
            Module::hard("rom", Rect::new(3, 3), false),
        ]
        .into_iter()
        .collect();
        let layout = realize(&t, &lib, &Assignment::first_fit(2)).expect("realizes");
        let svg = layout_to_svg(&layout, &t, &lib, 400);
        assert!(svg.contains(">alu</text>"));
        assert!(svg.contains(">rom</text>"));
        assert_eq!(svg.matches("<rect").count(), 3);
        assert!(svg.ends_with("</svg>"));
    }

    #[test]
    fn svg_of_wheel_benchmark() {
        let bench = generators::fp1();
        let lib = generators::module_library(&bench.tree, 3, 5);
        let layout = realize(&bench.tree, &lib, &Assignment::first_fit(25)).expect("realizes");
        let svg = layout_to_svg(&layout, &bench.tree, &lib, 640);
        assert_eq!(svg.matches("<rect").count(), 26);
        assert_eq!(svg.matches("<text").count(), 25);
    }

    #[test]
    fn dot_structure() {
        let bench = generators::fig1();
        let lib = generators::module_library(&bench.tree, 2, 1);
        let dot = tree_to_dot(&bench.tree, &lib);
        // 8 nodes (5 leaves + 3 slices), 7 edges.
        assert_eq!(dot.matches("shape=box").count(), 5);
        assert_eq!(dot.matches("shape=ellipse").count(), 3);
        assert_eq!(dot.matches("->").count(), 7);
        assert!(dot.contains("m0") || dot.contains("label=\"m0\""));
    }

    #[test]
    fn dot_marks_wheels() {
        let bench = generators::fp1();
        let lib = generators::module_library(&bench.tree, 2, 1);
        let dot = tree_to_dot(&bench.tree, &lib);
        assert_eq!(dot.matches("shape=diamond").count(), 6);
    }
}
