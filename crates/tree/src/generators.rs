//! Benchmark floorplan generators: the FP1–FP4 test floorplans of paper §5
//! (Figure 8), the Figure-1 style example, and seeded random floorplans.
//!
//! The paper's Figure 8 drawings are not machine-readable; these
//! reconstructions preserve the documented structure — the module counts
//! (25 / 49 / 120 / 245), deep hierarchies mixing wheels and slices, and
//! the FP3/FP4 composition "a wheel of five blocks, each block a smaller
//! benchmark floorplan". See `DESIGN.md` for the substitution note.

use fp_prng::StdRng;

use crate::{soft_library, Chirality, CutDir, FloorplanTree, ModuleLibrary, NodeId, NodeKind};

/// A named benchmark floorplan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Benchmark {
    /// Benchmark name (`FP1` … `FP4`, `FIG1`, …).
    pub name: String,
    /// The floorplan topology. Leaf module ids are `0 .. module_count`.
    pub tree: FloorplanTree,
}

/// Incremental builder that hands out sequential module ids.
struct Builder {
    tree: FloorplanTree,
    next_module: usize,
}

impl Builder {
    fn new() -> Self {
        Builder {
            tree: FloorplanTree::new(),
            next_module: 0,
        }
    }

    fn leaf(&mut self) -> NodeId {
        let id = self.tree.leaf(self.next_module);
        self.next_module += 1;
        id
    }

    /// A wheel whose five children are fresh leaves.
    fn leaf_wheel(&mut self, ch: Chirality) -> NodeId {
        let a = self.leaf();
        let b = self.leaf();
        let c = self.leaf();
        let d = self.leaf();
        let e = self.leaf();
        self.tree.wheel(ch, [a, b, c, d, e])
    }

    /// An `rows × cols` grid of fresh leaves built from slices.
    fn grid(&mut self, rows: usize, cols: usize) -> NodeId {
        let mut row_ids = Vec::with_capacity(rows);
        for _ in 0..rows {
            let cells: Vec<NodeId> = (0..cols).map(|_| self.leaf()).collect();
            row_ids.push(if cells.len() == 1 {
                cells[0]
            } else {
                self.tree.slice(CutDir::Vertical, cells)
            });
        }
        if row_ids.len() == 1 {
            row_ids[0]
        } else {
            self.tree.slice(CutDir::Horizontal, row_ids)
        }
    }

    fn finish(self, name: &str, root: NodeId) -> Benchmark {
        let mut tree = self.tree;
        tree.set_root(root);
        tree.validate().expect("generator produced a valid tree");
        Benchmark {
            name: name.to_owned(),
            tree,
        }
    }
}

/// The Figure-1 style running example: a 5-module floorplan with nested
/// slices (two modules beside each other on top of a three-module row).
#[must_use]
pub fn fig1() -> Benchmark {
    let mut b = Builder::new();
    let m0 = b.leaf();
    let m1 = b.leaf();
    let top = b.tree.slice(CutDir::Vertical, vec![m0, m1]);
    let m2 = b.leaf();
    let m3 = b.leaf();
    let m4 = b.leaf();
    let bottom = b.tree.slice(CutDir::Vertical, vec![m2, m3, m4]);
    let root = b.tree.slice(CutDir::Horizontal, vec![top, bottom]);
    b.finish("FIG1", root)
}

/// **FP1** (25 modules): a wheel of five 5-module wheels.
#[must_use]
pub fn fp1() -> Benchmark {
    let mut b = Builder::new();
    let blocks: Vec<NodeId> = (0..5).map(|i| b.leaf_wheel(chirality_for(i))).collect();
    let root = b.tree.wheel(
        Chirality::Clockwise,
        [blocks[0], blocks[1], blocks[2], blocks[3], blocks[4]],
    );
    b.finish("FP1", root)
}

/// The 24-module block of Figure 8(c): a wheel of four 5-wheels around a
/// 2×2 slicing grid (4·5 + 4 = 24).
fn fig8c_block(b: &mut Builder) -> NodeId {
    let arms: Vec<NodeId> = (0..4).map(|i| b.leaf_wheel(chirality_for(i))).collect();
    let centre = b.grid(2, 2);
    b.tree.wheel(
        Chirality::Clockwise,
        [arms[0], arms[1], arms[2], arms[3], centre],
    )
}

/// The 49-module block of Figure 8(b): a wheel of four 10-module cells
/// (two stacked 5-wheels each) around a 3×3 grid (4·10 + 9 = 49).
fn fp2_block(b: &mut Builder) -> NodeId {
    let mut arms = Vec::with_capacity(4);
    for i in 0..4 {
        let lower = b.leaf_wheel(chirality_for(i));
        let upper = b.leaf_wheel(chirality_for(i + 1));
        arms.push(b.tree.slice(CutDir::Horizontal, vec![lower, upper]));
    }
    let centre = b.grid(3, 3);
    b.tree.wheel(
        Chirality::Clockwise,
        [arms[0], arms[1], arms[2], arms[3], centre],
    )
}

/// **FP2** (49 modules): the Figure 8(b) block.
#[must_use]
pub fn fp2() -> Benchmark {
    let mut b = Builder::new();
    let root = fp2_block(&mut b);
    b.finish("FP2", root)
}

/// **FP3** (120 modules): Figure 8(d) — a wheel of five Figure 8(c)
/// 24-module blocks.
#[must_use]
pub fn fp3() -> Benchmark {
    let mut b = Builder::new();
    let blocks: Vec<NodeId> = (0..5).map(|_| fig8c_block(&mut b)).collect();
    let root = b.tree.wheel(
        Chirality::Clockwise,
        [blocks[0], blocks[1], blocks[2], blocks[3], blocks[4]],
    );
    b.finish("FP3", root)
}

/// **FP4** (245 modules): Figure 8(d) with each block the 49-module
/// Figure 8(b) floorplan.
#[must_use]
pub fn fp4() -> Benchmark {
    let mut b = Builder::new();
    let blocks: Vec<NodeId> = (0..5).map(|_| fp2_block(&mut b)).collect();
    let root = b.tree.wheel(
        Chirality::Clockwise,
        [blocks[0], blocks[1], blocks[2], blocks[3], blocks[4]],
    );
    b.finish("FP4", root)
}

/// All four paper benchmarks in order.
#[must_use]
pub fn paper_benchmarks() -> Vec<Benchmark> {
    vec![fp1(), fp2(), fp3(), fp4()]
}

/// FIG1, FP1–FP4 and a 2,500-module mega tree per depth profile: the
/// fixed trees the byte-identity tests run on.
#[cfg(test)]
pub(crate) fn fixed_test_trees() -> Vec<Benchmark> {
    use crate::mega::{mega_floorplan, DepthProfile, MegaConfig};
    let mut benches = vec![fig1()];
    benches.extend(paper_benchmarks());
    for profile in [
        DepthProfile::Balanced,
        DepthProfile::Deep,
        DepthProfile::Wide,
    ] {
        benches.push(mega_floorplan(
            &MegaConfig::new(2_500).with_profile(profile),
        ));
    }
    benches
}

fn chirality_for(i: usize) -> Chirality {
    if i.is_multiple_of(2) {
        Chirality::Clockwise
    } else {
        Chirality::Counterclockwise
    }
}

/// A seeded random floorplan with exactly `leaves` modules: hierarchies
/// are grown top-down, splitting blocks into slices (arity 2–4) or wheels
/// with probability `wheel_prob`.
///
/// # Panics
///
/// Panics if `leaves == 0` or `wheel_prob` is outside `[0, 1]`.
#[must_use]
pub fn random_floorplan(leaves: usize, wheel_prob: f64, seed: u64) -> Benchmark {
    assert!(leaves > 0, "need at least one module");
    assert!(
        (0.0..=1.0).contains(&wheel_prob),
        "wheel_prob must be a probability"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Builder::new();
    let root = grow(&mut b, leaves, wheel_prob, &mut rng);
    b.finish(&format!("RAND{leaves}-{seed}"), root)
}

fn grow(b: &mut Builder, leaves: usize, wheel_prob: f64, rng: &mut StdRng) -> NodeId {
    if leaves == 1 {
        return b.leaf();
    }
    if leaves >= 5 && rng.gen_bool(wheel_prob) {
        // Split into 5 parts of at least 1 each.
        let parts = split_into(rng, leaves, 5);
        let kids: Vec<NodeId> = parts.iter().map(|&p| grow(b, p, wheel_prob, rng)).collect();
        let ch = if rng.gen_bool(0.5) {
            Chirality::Clockwise
        } else {
            Chirality::Counterclockwise
        };
        return b
            .tree
            .wheel(ch, [kids[0], kids[1], kids[2], kids[3], kids[4]]);
    }
    let arity = rng.gen_range(2..=4usize.min(leaves));
    let parts = split_into(rng, leaves, arity);
    let kids: Vec<NodeId> = parts.iter().map(|&p| grow(b, p, wheel_prob, rng)).collect();
    let dir = if rng.gen_bool(0.5) {
        CutDir::Horizontal
    } else {
        CutDir::Vertical
    };
    b.tree.slice(dir, kids)
}

/// Splits `total` into `parts` positive summands, pseudo-randomly.
fn split_into(rng: &mut StdRng, total: usize, parts: usize) -> Vec<usize> {
    debug_assert!(total >= parts);
    let mut sizes = vec![1usize; parts];
    for _ in 0..total - parts {
        let idx = rng.gen_range(0..parts);
        sizes[idx] += 1;
    }
    sizes
}

/// Generates an MCNC-flavoured module library for `tree`: mostly hard,
/// rotatable macros whose areas spread over two orders of magnitude
/// (log-uniform), plus a minority of soft macros with a few shape-curve
/// points — the composition of the classic `ami33`/`ami49` benchmark
/// suites. Deterministic in `seed`.
#[must_use]
pub fn mcnc_like_library(tree: &FloorplanTree, seed: u64) -> ModuleLibrary {
    use crate::{soft_module, Module};
    use fp_geom::{Coord, Rect};
    let count = tree.module_count();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4d43_4e43); // "MCNC"
    (0..count)
        .map(|i| {
            // Areas log-uniform in [50, 5000].
            let area = (50.0 * (100.0f64).powf(rng.gen_range(0.0..1.0))).round() as u64;
            if rng.gen_bool(0.75) {
                // Hard macro with a bounded random aspect ratio, rotatable.
                let aspect = rng.gen_range(1.0..3.0f64);
                let w = ((area as f64 * aspect).sqrt().round() as Coord).max(1);
                let h = area.div_ceil(w).max(1);
                Module::hard(format!("hm{i}"), Rect::new(w, h), true)
            } else {
                let points = rng.gen_range(3..=6);
                soft_module(format!("sm{i}"), area, 2.5, points, &mut rng)
            }
        })
        .collect()
}

/// An `ami33`-flavoured instance: 33 modules, mostly-slicing topology,
/// MCNC-like library. Deterministic.
#[must_use]
pub fn ami33_like() -> (Benchmark, ModuleLibrary) {
    // Seed chosen so the realized layout keeps plausible dead space under
    // the workspace PRNG streams.
    let mut bench = random_floorplan(33, 0.15, 34);
    bench.name = "AMI33L".to_owned();
    let lib = mcnc_like_library(&bench.tree, 34);
    (bench, lib)
}

/// An `ami49`-flavoured instance: 49 modules. Deterministic.
#[must_use]
pub fn ami49_like() -> (Benchmark, ModuleLibrary) {
    let mut bench = random_floorplan(49, 0.15, 49);
    bench.name = "AMI49L".to_owned();
    let lib = mcnc_like_library(&bench.tree, 49);
    (bench, lib)
}

/// Generates a module library sized for `tree`: one soft module per leaf,
/// each with exactly `n` non-redundant implementations, deterministic in
/// `seed`. This mirrors the paper's protocol of testing each floorplan
/// with several module sets (vary the seed) and several `N` values.
#[must_use]
pub fn module_library(tree: &FloorplanTree, n: usize, seed: u64) -> ModuleLibrary {
    let count = tree
        .leaves_in_order()
        .iter()
        .map(|&id| match tree.node(id).expect("leaf exists").kind {
            NodeKind::Leaf(m) => m,
            _ => unreachable!("leaves_in_order returns leaves"),
        })
        .max()
        .map_or(0, |m| m + 1);
    soft_library(count, n, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restructure::restructure;

    #[test]
    fn paper_benchmark_module_counts() {
        let counts: Vec<(String, usize)> = paper_benchmarks()
            .into_iter()
            .map(|b| (b.name.clone(), b.tree.module_count()))
            .collect();
        assert_eq!(
            counts,
            vec![
                ("FP1".to_owned(), 25),
                ("FP2".to_owned(), 49),
                ("FP3".to_owned(), 120),
                ("FP4".to_owned(), 245),
            ]
        );
    }

    #[test]
    fn benchmarks_are_valid_and_restructurable() {
        for bench in paper_benchmarks().into_iter().chain([fig1()]) {
            assert!(bench.tree.validate().is_ok(), "{}", bench.name);
            let bin = restructure(&bench.tree).expect("restructure");
            assert_eq!(
                bin.leaf_count(),
                bench.tree.module_count(),
                "{}",
                bench.name
            );
        }
    }

    #[test]
    fn fp1_has_six_wheels() {
        let fp1 = fp1();
        let wheels = (0..fp1.tree.len())
            .filter(|&i| matches!(fp1.tree.node(i).expect("node").kind, NodeKind::Wheel(_)))
            .count();
        assert_eq!(wheels, 6);
        // 4 wheel stages each => 24 joins; 25 leaves => 49 binary nodes.
        let bin = restructure(&fp1.tree).expect("restructure");
        assert_eq!(bin.len(), 49);
        assert_eq!(bin.lshape_count(), 18);
    }

    #[test]
    fn fig1_is_five_modules() {
        let f = fig1();
        assert_eq!(f.tree.module_count(), 5);
        assert_eq!(f.tree.depth(), 3);
    }

    #[test]
    fn module_ids_are_sequential() {
        for bench in paper_benchmarks() {
            let mut ids: Vec<usize> = bench
                .tree
                .leaves_in_order()
                .iter()
                .map(|&id| match bench.tree.node(id).expect("leaf").kind {
                    NodeKind::Leaf(m) => m,
                    _ => unreachable!(),
                })
                .collect();
            ids.sort_unstable();
            let expected: Vec<usize> = (0..bench.tree.module_count()).collect();
            assert_eq!(ids, expected, "{}", bench.name);
        }
    }

    #[test]
    fn random_floorplans_hit_leaf_counts() {
        for (leaves, seed) in [(1usize, 0u64), (2, 1), (7, 2), (30, 3), (64, 4)] {
            let b = random_floorplan(leaves, 0.5, seed);
            assert_eq!(b.tree.module_count(), leaves, "leaves {leaves}");
            assert!(b.tree.validate().is_ok());
        }
        // Determinism.
        assert_eq!(random_floorplan(20, 0.4, 9), random_floorplan(20, 0.4, 9));
        assert_ne!(random_floorplan(20, 0.4, 9), random_floorplan(20, 0.4, 10));
    }

    #[test]
    fn mcnc_like_instances() {
        let (b33, l33) = ami33_like();
        assert_eq!(b33.tree.module_count(), 33);
        assert_eq!(l33.len(), 33);
        assert!(b33.tree.validate().is_ok());
        let (b49, l49) = ami49_like();
        assert_eq!(b49.tree.module_count(), 49);
        assert_eq!(l49.len(), 49);
        // Deterministic.
        assert_eq!(ami33_like(), ami33_like());
        // Areas spread over at least one order of magnitude.
        let areas: Vec<u128> = l49
            .iter()
            .map(|m| m.implementations().min_area_value().expect("non-empty"))
            .collect();
        let max = areas.iter().max().expect("non-empty");
        let min = areas.iter().min().expect("non-empty");
        assert!(max / min.max(&1) >= 10, "spread {max}/{min}");
    }

    #[test]
    fn module_library_covers_all_leaves() {
        let fp1 = fp1();
        let lib = module_library(&fp1.tree, 6, 11);
        assert_eq!(lib.len(), 25);
        assert!(lib.iter().all(|m| m.implementations().len() == 6));
    }
}
