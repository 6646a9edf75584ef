//! Mega-scale benchmark generators: the FP5+ family (10k–500k modules).
//!
//! The paper's FP1–FP4 floorplans top out at 245 modules — small enough
//! that every join fits in L1 and the parallel scheduler never amortizes
//! its overhead. Modern floorplanners operate at SoC scale, so this module
//! grows deterministic instances in the 10k–500k-module league:
//!
//! * [`MegaConfig`] — module count, depth profile, wheel density,
//!   implementation-list fatness, seed;
//! * [`mega_floorplan`] — iterative (stack-safe) top-down generation; the
//!   same config always produces the same tree, on every platform;
//! * [`mega_library`] — an MCNC-flavoured large library whose soft-macro
//!   shape curves carry the configured number of points;
//! * [`fp5`] … [`fp8`] / [`mega_family`] — the named FP5-10k … FP8-500k
//!   instances the benchmarks and CI refer to.
//!
//! Wheel clusters are fringe-local (a wheel is only placed over a span of
//! at most [`MegaConfig::wheel_span`] modules), mirroring FP1–FP4's
//! pinwheel fabric: the L-shape machinery is exercised densely near the
//! leaves while slice joins dominate asymptotically, keeping L-block
//! candidate counts bounded independent of instance size.

use fp_prng::StdRng;

use crate::generators::Benchmark;
use crate::{Chirality, CutDir, FloorplanTree, ModuleLibrary};

/// Shape of the generated hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DepthProfile {
    /// Mixed arity 2–4 slices: depth ~ `log n` (the FP1–FP4 texture).
    #[default]
    Balanced,
    /// Skewed binary slices (the light child gets 1/16–1/8 of the span):
    /// roughly 8× deeper than [`DepthProfile::Balanced`], stressing
    /// root-path length, while still bounded by `O(log n)` so recursive
    /// consumers (layout realization, rendering) stay stack-safe.
    Deep,
    /// Arity 8–16 slices: shallow and bushy, stressing slice-chain width.
    Wide,
}

impl DepthProfile {
    /// Parses `balanced` / `deep` / `wide` (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns the unrecognized input.
    pub fn parse(s: &str) -> Result<DepthProfile, String> {
        match s.to_ascii_lowercase().as_str() {
            "balanced" => Ok(DepthProfile::Balanced),
            "deep" => Ok(DepthProfile::Deep),
            "wide" => Ok(DepthProfile::Wide),
            other => Err(format!(
                "unknown depth profile `{other}` (expected balanced, deep, or wide)"
            )),
        }
    }

    /// The canonical lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DepthProfile::Balanced => "balanced",
            DepthProfile::Deep => "deep",
            DepthProfile::Wide => "wide",
        }
    }
}

/// Configuration of a mega-scale instance. All fields deterministic: the
/// same config always generates the same tree and library.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaConfig {
    /// Number of module leaves (≥ 1).
    pub modules: usize,
    /// Hierarchy shape.
    pub profile: DepthProfile,
    /// Probability that an eligible span becomes a wheel cluster.
    pub wheel_density: f64,
    /// Maximum span (in modules) a wheel may cover. Keeps L-block
    /// candidate counts bounded regardless of instance size.
    pub wheel_span: usize,
    /// Implementations per module in the generated library (soft-macro
    /// shape-curve points for [`mega_library`]).
    pub impls: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for MegaConfig {
    fn default() -> Self {
        MegaConfig {
            modules: 10_000,
            profile: DepthProfile::Balanced,
            wheel_density: 0.25,
            wheel_span: 60,
            impls: 8,
            seed: 5,
        }
    }
}

impl MegaConfig {
    /// A config for `modules` leaves with every other knob at its default.
    #[must_use]
    pub fn new(modules: usize) -> Self {
        MegaConfig {
            modules,
            ..MegaConfig::default()
        }
    }

    /// Sets the depth profile.
    #[must_use]
    pub fn with_profile(mut self, profile: DepthProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the wheel density (probability in `[0, 1]`).
    #[must_use]
    pub fn with_wheel_density(mut self, wheel_density: f64) -> Self {
        self.wheel_density = wheel_density;
        self
    }

    /// Sets the implementation-list fatness.
    #[must_use]
    pub fn with_impls(mut self, impls: usize) -> Self {
        self.impls = impls;
        self
    }

    /// Sets the PRNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The instance name (`MEGA<modules>-<profile>-<seed>`).
    #[must_use]
    pub fn name(&self) -> String {
        format!("MEGA{}-{}-{}", self.modules, self.profile.name(), self.seed)
    }
}

/// A lightweight plan node: the tree shape is decided top-down first, then
/// emitted bottom-up into the arena (both passes iterative, so 500k-module
/// instances never touch the call stack).
enum PlanKind {
    Leaf,
    Slice(CutDir),
    Wheel(Chirality),
}

struct PlanNode {
    kind: PlanKind,
    /// Indices into the plan arena (empty for leaves).
    children: Vec<usize>,
}

/// Generates the floorplan tree for `cfg`. Deterministic in `cfg`; the
/// construction is fully iterative, so arbitrarily large instances are
/// stack-safe.
///
/// # Panics
///
/// Panics if `cfg.modules == 0` or `cfg.wheel_density` is not a
/// probability.
#[must_use]
pub fn mega_floorplan(cfg: &MegaConfig) -> Benchmark {
    assert!(cfg.modules > 0, "need at least one module");
    assert!(
        (0.0..=1.0).contains(&cfg.wheel_density),
        "wheel_density must be a probability"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4d45_4741); // "MEGA"

    // Phase 1: top-down plan. Work items carry (plan index, span, cut
    // direction for the next slice level).
    let mut plan: Vec<PlanNode> = Vec::with_capacity(cfg.modules * 2);
    plan.push(PlanNode {
        kind: PlanKind::Leaf,
        children: Vec::new(),
    });
    let mut work: Vec<(usize, usize, CutDir)> = vec![(0, cfg.modules, CutDir::Horizontal)];
    let mut parts: Vec<usize> = Vec::new();
    while let Some((idx, span, dir)) = work.pop() {
        if span == 1 {
            continue; // already a leaf placeholder
        }
        let wheel = span >= 5
            && span <= cfg.wheel_span
            && cfg.wheel_density > 0.0
            && rng.gen_bool(cfg.wheel_density);
        if wheel {
            split_spans(&mut rng, span, 5, &mut parts);
            let ch = if rng.gen_bool(0.5) {
                Chirality::Clockwise
            } else {
                Chirality::Counterclockwise
            };
            plan[idx].kind = PlanKind::Wheel(ch);
        } else {
            let arity = match cfg.profile {
                DepthProfile::Balanced => rng.gen_range(2..=4usize.min(span)),
                DepthProfile::Deep => 2,
                DepthProfile::Wide => rng.gen_range(8..=16usize).min(span).max(2),
            };
            if matches!(cfg.profile, DepthProfile::Deep) && span >= 4 {
                // Skewed split: the light child gets 1/16–1/8 of the span,
                // so depth grows ~ log_{16/15}(n) — deep but bounded.
                let light = rng.gen_range((span / 16).max(1)..=(span / 8).max(1));
                parts.clear();
                if rng.gen_bool(0.5) {
                    parts.extend([light, span - light]);
                } else {
                    parts.extend([span - light, light]);
                }
            } else {
                split_spans(&mut rng, span, arity, &mut parts);
            }
            plan[idx].kind = PlanKind::Slice(dir);
        }
        for &part in &parts {
            let child = plan.len();
            plan.push(PlanNode {
                kind: PlanKind::Leaf,
                children: Vec::new(),
            });
            plan[idx].children.push(child);
            work.push((child, part, dir.perpendicular()));
        }
    }

    // Phase 2: iterative post-order emission into the arena. Visiting
    // children left-to-right before the parent makes leaf emission order
    // equal canonical left-to-right leaf order, so sequential module ids
    // line up with `leaves_in_order`.
    enum Task {
        Visit(usize),
        Emit(usize),
    }
    let mut tree = FloorplanTree::new();
    let mut next_module = 0usize;
    let mut ids = vec![usize::MAX; plan.len()];
    let mut tasks = vec![Task::Visit(0)];
    while let Some(task) = tasks.pop() {
        match task {
            Task::Visit(idx) => {
                let node = &plan[idx];
                if node.children.is_empty() {
                    ids[idx] = tree.leaf(next_module);
                    next_module += 1;
                } else {
                    tasks.push(Task::Emit(idx));
                    for &c in node.children.iter().rev() {
                        tasks.push(Task::Visit(c));
                    }
                }
            }
            Task::Emit(idx) => {
                let kids: Vec<usize> = plan[idx].children.iter().map(|&c| ids[c]).collect();
                ids[idx] = match plan[idx].kind {
                    PlanKind::Leaf => unreachable!("leaves have no children"),
                    PlanKind::Slice(dir) => tree.slice(dir, kids),
                    PlanKind::Wheel(ch) => {
                        tree.wheel(ch, [kids[0], kids[1], kids[2], kids[3], kids[4]])
                    }
                };
            }
        }
    }
    tree.set_root(ids[0]);
    debug_assert_eq!(next_module, cfg.modules);
    Benchmark {
        name: cfg.name(),
        tree,
    }
}

/// Splits `span` into `parts` positive summands in O(parts): proportional
/// to random weights, remainder to the first parts.
fn split_spans(rng: &mut StdRng, span: usize, parts: usize, out: &mut Vec<usize>) {
    debug_assert!(span >= parts);
    out.clear();
    let mut weights = [0usize; 16];
    let mut total = 0usize;
    for w in weights.iter_mut().take(parts) {
        *w = rng.gen_range(1..=100);
        total += *w;
    }
    let spare = span - parts; // each part gets 1 guaranteed
    let mut assigned = 0usize;
    for &w in weights.iter().take(parts) {
        let extra = spare * w / total;
        out.push(1 + extra);
        assigned += extra;
    }
    // Distribute the rounding remainder one unit at a time.
    let mut rem = spare - assigned;
    let mut i = 0;
    while rem > 0 {
        out[i] += 1;
        rem -= 1;
        i = (i + 1) % parts;
    }
}

/// An MCNC-flavoured library for a mega instance: 75% hard rotatable
/// macros with log-uniform areas in `[50, 5000]`, 25% soft macros whose
/// shape curves carry `cfg.impls` points (the fatness knob). Deterministic
/// in `cfg.seed`.
#[must_use]
pub fn mega_library(tree: &FloorplanTree, cfg: &MegaConfig) -> ModuleLibrary {
    use crate::{soft_module, Module};
    use fp_geom::{Coord, Rect};
    let count = tree.module_count();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4d43_4e43); // "MCNC"
    (0..count)
        .map(|i| {
            let area = (50.0 * (100.0f64).powf(rng.gen_range(0.0..1.0))).round() as u64;
            if rng.gen_bool(0.75) {
                let aspect = rng.gen_range(1.0..3.0f64);
                let w = ((area as f64 * aspect).sqrt().round() as Coord).max(1);
                let h = area.div_ceil(w).max(1);
                Module::hard(format!("hm{i}"), Rect::new(w, h), true)
            } else {
                soft_module(
                    format!("sm{i}"),
                    area,
                    2.5,
                    cfg.impls.clamp(2, 16),
                    &mut rng,
                )
            }
        })
        .collect()
}

/// Renames a generated benchmark to its family name.
fn named(mut bench: Benchmark, name: &str) -> Benchmark {
    bench.name = name.to_owned();
    bench
}

/// **FP5-10k**: 10 000 modules, balanced profile.
#[must_use]
pub fn fp5() -> Benchmark {
    named(mega_floorplan(&fp5_config()), "FP5-10k")
}

/// The [`MegaConfig`] behind [`fp5`].
#[must_use]
pub fn fp5_config() -> MegaConfig {
    MegaConfig::new(10_000)
}

/// **FP6-50k**: 50 000 modules, deep profile.
#[must_use]
pub fn fp6() -> Benchmark {
    named(mega_floorplan(&fp6_config()), "FP6-50k")
}

/// The [`MegaConfig`] behind [`fp6`].
#[must_use]
pub fn fp6_config() -> MegaConfig {
    MegaConfig::new(50_000)
        .with_profile(DepthProfile::Deep)
        .with_seed(6)
}

/// **FP7-150k**: 150 000 modules, wide profile.
#[must_use]
pub fn fp7() -> Benchmark {
    named(mega_floorplan(&fp7_config()), "FP7-150k")
}

/// The [`MegaConfig`] behind [`fp7`].
#[must_use]
pub fn fp7_config() -> MegaConfig {
    MegaConfig::new(150_000)
        .with_profile(DepthProfile::Wide)
        .with_seed(7)
}

/// **FP8-500k**: 500 000 modules, balanced profile.
#[must_use]
pub fn fp8() -> Benchmark {
    named(mega_floorplan(&fp8_config()), "FP8-500k")
}

/// The [`MegaConfig`] behind [`fp8`].
#[must_use]
pub fn fp8_config() -> MegaConfig {
    MegaConfig::new(500_000).with_seed(8)
}

/// The named mega family in size order: `(name, config)`.
#[must_use]
pub fn mega_family() -> Vec<(&'static str, MegaConfig)> {
    vec![
        ("FP5-10k", fp5_config()),
        ("FP6-50k", fp6_config()),
        ("FP7-150k", fp7_config()),
        ("FP8-500k", fp8_config()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restructure::restructure;
    use crate::NodeKind;

    /// The number of leaves if their module ids run `0, 1, …` in
    /// canonical leaf order, else 0.
    fn sequential_module_count(tree: &FloorplanTree) -> usize {
        let leaves = tree.leaves_in_order();
        for (expect, &id) in leaves.iter().enumerate() {
            match tree.node(id).map(|n| n.kind) {
                Some(NodeKind::Leaf(m)) if m == expect => {}
                _ => return 0,
            }
        }
        leaves.len()
    }

    #[test]
    fn smoke_sizes_and_validity() {
        for modules in [1usize, 2, 5, 64, 1000] {
            let cfg = MegaConfig::new(modules);
            let bench = mega_floorplan(&cfg);
            assert_eq!(bench.tree.module_count(), modules);
            assert!(bench.tree.validate().is_ok());
            assert_eq!(sequential_module_count(&bench.tree), modules);
        }
    }

    #[test]
    fn deterministic_in_config() {
        let cfg = MegaConfig::new(2_000).with_wheel_density(0.3);
        assert_eq!(mega_floorplan(&cfg), mega_floorplan(&cfg));
        let other = cfg.clone().with_seed(99);
        assert_ne!(mega_floorplan(&cfg), mega_floorplan(&other));
    }

    #[test]
    fn profiles_change_depth() {
        let n = 4_000;
        let balanced = mega_floorplan(&MegaConfig::new(n)).tree.depth();
        let deep = mega_floorplan(&MegaConfig::new(n).with_profile(DepthProfile::Deep))
            .tree
            .depth();
        let wide = mega_floorplan(&MegaConfig::new(n).with_profile(DepthProfile::Wide))
            .tree
            .depth();
        assert!(deep > balanced, "deep {deep} <= balanced {balanced}");
        assert!(wide < balanced, "wide {wide} >= balanced {balanced}");
        // Deep stays bounded so recursive consumers are stack-safe.
        assert!(deep < 400, "deep profile unexpectedly deep: {deep}");
    }

    #[test]
    fn wheels_respect_span_bound_and_restructure() {
        let cfg = MegaConfig::new(3_000).with_wheel_density(0.5);
        let bench = mega_floorplan(&cfg);
        let bin = restructure(&bench.tree).expect("valid");
        assert_eq!(bin.leaf_count(), 3_000);
        assert!(bin.lshape_count() > 0, "wheel density 0.5 placed no wheels");
    }

    #[test]
    fn zero_wheel_density_is_pure_slicing() {
        let bench = mega_floorplan(&MegaConfig::new(500).with_wheel_density(0.0));
        let bin = restructure(&bench.tree).expect("valid");
        assert_eq!(bin.lshape_count(), 0);
    }

    #[test]
    fn library_matches_fatness() {
        let cfg = MegaConfig::new(200).with_impls(6);
        let bench = mega_floorplan(&cfg);
        let lib = mega_library(&bench.tree, &cfg);
        assert_eq!(lib.len(), 200);
        // Deterministic.
        assert_eq!(lib, mega_library(&bench.tree, &cfg));
    }

    #[test]
    fn depth_profile_parse_round_trips() {
        for p in [
            DepthProfile::Balanced,
            DepthProfile::Deep,
            DepthProfile::Wide,
        ] {
            assert_eq!(DepthProfile::parse(p.name()), Ok(p));
        }
        assert!(DepthProfile::parse("bogus").is_err());
    }
}
