//! Modules and module libraries.

use core::fmt;

use fp_geom::{Coord, Rect, Staircase};
use fp_prng::StdRng;
use fp_shape::RList;

/// Identifier of a module within a [`ModuleLibrary`].
pub type ModuleId = usize;

/// A module: a named block with a finite set of non-redundant rectangular
/// implementations (its shape list).
///
/// ```
/// use fp_geom::Rect;
/// use fp_tree::Module;
///
/// let m = Module::new("alu", vec![Rect::new(8, 2), Rect::new(4, 4), Rect::new(2, 8)]);
/// assert_eq!(m.implementations().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    name: String,
    implementations: RList,
    /// Bounded-staircase implementations, if any. Each contributes its
    /// bounding box to `implementations` (the footprint the packing
    /// machinery consumes) while the staircase geometry itself is kept
    /// for layout analytics and export. Empty for classic rect modules —
    /// and an empty list leaves serialization and fingerprints exactly
    /// as they were before staircases existed.
    staircases: Vec<Staircase>,
}

impl Module {
    /// Creates a module from candidate implementations (redundant ones are
    /// pruned automatically).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or exceeds [`fp_geom::MAX_COORD`]
    /// (the bound below which all composed floorplan arithmetic is
    /// overflow-free).
    #[must_use]
    pub fn new(name: impl Into<String>, candidates: Vec<Rect>) -> Self {
        Module::with_staircases(name, candidates, Vec::new())
    }

    /// Creates a module from rectangular candidates plus bounded-staircase
    /// implementations. Each staircase's bounding box joins the rectangular
    /// candidate set (that is the footprint selection and packing operate
    /// on); the staircase geometry is retained for whitespace analytics.
    /// Staircases are stored canonically sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if any rectangle or staircase dimension is zero or exceeds
    /// [`fp_geom::MAX_COORD`].
    #[must_use]
    pub fn with_staircases(
        name: impl Into<String>,
        mut candidates: Vec<Rect>,
        mut staircases: Vec<Staircase>,
    ) -> Self {
        let name = name.into();
        for s in &staircases {
            let bb = s.bounding_box();
            assert!(
                bb.w <= fp_geom::MAX_COORD && bb.h <= fp_geom::MAX_COORD,
                "module `{name}`: staircase {s} exceeds MAX_COORD = {}",
                fp_geom::MAX_COORD,
            );
            candidates.push(bb);
        }
        for r in &candidates {
            assert!(
                r.w > 0 && r.h > 0,
                "module `{name}`: implementation {r} has a zero dimension",
            );
            assert!(
                r.w <= fp_geom::MAX_COORD && r.h <= fp_geom::MAX_COORD,
                "module `{name}`: implementation {r} exceeds MAX_COORD = {}",
                fp_geom::MAX_COORD,
            );
        }
        staircases.sort_by(|a, b| a.corners().cmp(b.corners()));
        staircases.dedup();
        Module {
            name,
            implementations: RList::from_candidates(candidates),
            staircases,
        }
    }

    /// Creates a hard module with a fixed footprint, optionally rotatable.
    #[must_use]
    pub fn hard(name: impl Into<String>, footprint: Rect, rotatable: bool) -> Self {
        let mut candidates = vec![footprint];
        if rotatable {
            candidates.push(footprint.rotated());
        }
        Module::new(name, candidates)
    }

    /// The module's name.
    #[inline]
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The module's irreducible implementation list.
    #[inline]
    #[must_use]
    pub fn implementations(&self) -> &RList {
        &self.implementations
    }

    /// The module's bounded-staircase implementations, canonically sorted
    /// (empty for classic rectangular modules).
    #[inline]
    #[must_use]
    pub fn staircases(&self) -> &[Staircase] {
        &self.staircases
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({} impls)", self.name, self.implementations.len())
    }
}

/// A collection of modules indexed by [`ModuleId`] (the ids floorplan tree
/// leaves reference).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModuleLibrary {
    modules: Vec<Module>,
}

impl ModuleLibrary {
    /// An empty library.
    #[must_use]
    pub fn new() -> Self {
        ModuleLibrary {
            modules: Vec::new(),
        }
    }

    /// Adds a module and returns its id.
    pub fn add(&mut self, module: Module) -> ModuleId {
        self.modules.push(module);
        self.modules.len() - 1
    }

    /// The module with the given id, if present.
    #[inline]
    #[must_use]
    pub fn get(&self, id: ModuleId) -> Option<&Module> {
        self.modules.get(id)
    }

    /// Replaces the module at `id`, returning the previous module.
    ///
    /// This is the mutation hook of the session layer: swapping a
    /// module's implementation list in place (same id, so the floorplan
    /// tree's leaves keep referencing it) invalidates exactly the cached
    /// subtree results along the leaf's root path.
    ///
    /// # Errors
    ///
    /// Returns the offered module back when `id` is out of range.
    pub fn set(&mut self, id: ModuleId, module: Module) -> Result<Module, Module> {
        match self.modules.get_mut(id) {
            Some(slot) => Ok(core::mem::replace(slot, module)),
            None => Err(module),
        }
    }

    /// Number of modules.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// `true` if the library has no modules.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Iterator over the modules in id order.
    pub fn iter(&self) -> core::slice::Iter<'_, Module> {
        self.modules.iter()
    }
}

impl core::ops::Index<ModuleId> for ModuleLibrary {
    type Output = Module;

    fn index(&self, id: ModuleId) -> &Module {
        &self.modules[id]
    }
}

impl FromIterator<Module> for ModuleLibrary {
    fn from_iter<T: IntoIterator<Item = Module>>(iter: T) -> Self {
        ModuleLibrary {
            modules: iter.into_iter().collect(),
        }
    }
}

impl Extend<Module> for ModuleLibrary {
    fn extend<T: IntoIterator<Item = Module>>(&mut self, iter: T) {
        self.modules.extend(iter);
    }
}

/// Generates a module with exactly `n` non-redundant implementations drawn
/// from a discretized soft-module shape curve: the implementations
/// approximate a module of roughly `target_area` with aspect ratios within
/// `[1/max_aspect, max_aspect]`, the way soft macros are modelled (and the
/// way the paper's §6 continuous-shape-curve remark suggests).
///
/// Deterministic for a given `rng` state. The result always has exactly `n`
/// implementations (widths strictly decreasing), with small pseudo-random
/// area jitter so different modules differ.
///
/// # Panics
///
/// Panics if `n == 0`, `target_area == 0`, or `max_aspect < 1.0`.
#[must_use]
pub fn soft_module(
    name: impl Into<String>,
    target_area: u64,
    max_aspect: f64,
    n: usize,
    rng: &mut StdRng,
) -> Module {
    assert!(n > 0, "a module needs at least one implementation");
    assert!(target_area > 0, "target area must be positive");
    assert!(max_aspect >= 1.0, "max aspect ratio must be at least 1");

    build_soft(name.into(), target_area, max_aspect, n, rng, false)
}

/// Like [`soft_module`], but the `n` widths spread across the **whole**
/// aspect range instead of clustering densely near the wide end.
///
/// Dense staircases (the default) reproduce the paper's experimental
/// regime — many near-identical implementations whose combinations
/// explode, which is what the selection algorithms exist for. Spread
/// staircases model coarser shape curves and give topology search
/// (`fp-anneal`) genuinely different module shapes to exploit.
///
/// # Panics
///
/// Same as [`soft_module`].
#[must_use]
pub fn soft_module_spread(
    name: impl Into<String>,
    target_area: u64,
    max_aspect: f64,
    n: usize,
    rng: &mut StdRng,
) -> Module {
    assert!(n > 0, "a module needs at least one implementation");
    assert!(target_area > 0, "target area must be positive");
    assert!(max_aspect >= 1.0, "max aspect ratio must be at least 1");
    build_soft(name.into(), target_area, max_aspect, n, rng, true)
}

fn build_soft(
    name: String,
    target_area: u64,
    max_aspect: f64,
    n: usize,
    rng: &mut StdRng,
    spread: bool,
) -> Module {
    let side = (target_area as f64).sqrt();
    let w_max = side * max_aspect.sqrt();
    let w_min = (side / max_aspect.sqrt()).max(1.0);

    // Build the staircase directly: strictly decreasing widths paired with
    // strictly increasing heights are irreducible by construction, so the
    // module has exactly n implementations. Heights track the (jittered)
    // target area with a strict-increase clamp modelling legalization.
    let mut rects = Vec::with_capacity(n);
    let mut w = (w_max.round() as Coord).max(n as Coord);
    let span = w.saturating_sub(w_min.floor() as Coord);
    let base_step: Coord = if spread && n > 1 {
        (span / (n as Coord - 1)).max(1)
    } else {
        1
    };
    let extra: Coord = if spread { (base_step / 2).max(1) } else { 3 };
    let mut h_prev: Coord = 0;
    for i in 0..n {
        let jitter = 1.0 + 0.1 * rng.gen_range(-1.0..1.0f64);
        let h = ((target_area as f64 * jitter) / w as f64).ceil().max(1.0) as Coord;
        let h = h.max(h_prev + 1);
        rects.push(Rect::new(w, h));
        h_prev = h;
        let remaining = (n - i - 1) as Coord;
        if remaining > 0 {
            // The next width must leave room for `remaining` corners >= 1.
            let step = base_step + rng.gen_range(0..=extra);
            let max_step = w - remaining; // keeps w_next >= remaining
            w -= step.clamp(1, max_step.max(1));
        }
    }
    let module = Module::new(name, rects);
    debug_assert_eq!(module.implementations.len(), n);
    module
}

/// Generates a library of `count` dense soft modules with `n`
/// implementations each, deterministically from `seed`.
#[must_use]
pub fn soft_library(count: usize, n: usize, seed: u64) -> ModuleLibrary {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let area = rng.gen_range(40..400);
            soft_module(format!("m{i}"), area, 4.0, n, &mut rng)
        })
        .collect()
}

/// Generates a library of `count` range-spanning soft modules (see
/// [`soft_module_spread`]), deterministically from `seed`.
#[must_use]
pub fn spread_library(count: usize, n: usize, seed: u64) -> ModuleLibrary {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let area = rng.gen_range(40..400);
            soft_module_spread(format!("m{i}"), area, 4.0, n, &mut rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_prunes_redundant_candidates() {
        let m = Module::new("x", vec![Rect::new(4, 4), Rect::new(5, 5), Rect::new(2, 8)]);
        assert_eq!(m.implementations().len(), 2);
        assert_eq!(m.to_string(), "x(2 impls)");
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_COORD")]
    fn oversized_dimensions_rejected() {
        let _ = Module::new("huge", vec![Rect::new(fp_geom::MAX_COORD + 1, 1)]);
    }

    #[test]
    #[should_panic(expected = "zero dimension")]
    fn zero_dimensions_rejected() {
        let _ = Module::new("flat", vec![Rect::new(0, 5)]);
    }

    #[test]
    fn max_coord_boundary_accepted() {
        let m = Module::new("edge", vec![Rect::new(fp_geom::MAX_COORD, 1)]);
        assert_eq!(m.implementations().len(), 1);
    }

    #[test]
    fn hard_module_orientations() {
        let fixed = Module::hard("ram", Rect::new(6, 2), false);
        assert_eq!(fixed.implementations().len(), 1);
        let free = Module::hard("ram", Rect::new(6, 2), true);
        assert_eq!(free.implementations().len(), 2);
        let square = Module::hard("sq", Rect::new(3, 3), true);
        assert_eq!(square.implementations().len(), 1);
    }

    #[test]
    fn library_indexing() {
        let mut lib = ModuleLibrary::new();
        let a = lib.add(Module::hard("a", Rect::new(2, 3), true));
        let b = lib.add(Module::hard("b", Rect::new(4, 4), false));
        assert_eq!(lib.len(), 2);
        assert_eq!(lib[a].name(), "a");
        assert_eq!(lib.get(b).map(Module::name), Some("b"));
        assert_eq!(lib.get(99), None);
    }

    #[test]
    fn soft_module_hits_requested_count() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 5, 20, 40] {
            let m = soft_module("s", 120, 4.0, n, &mut rng);
            assert_eq!(m.implementations().len(), n, "n = {n}");
        }
    }

    #[test]
    fn soft_module_is_deterministic() {
        let a = soft_module("s", 200, 3.0, 10, &mut StdRng::seed_from_u64(9));
        let b = soft_module("s", 200, 3.0, 10, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn soft_library_counts() {
        let lib = soft_library(25, 20, 1);
        assert_eq!(lib.len(), 25);
        assert!(lib.iter().all(|m| m.implementations().len() == 20));
        // Distinct seeds give distinct libraries.
        assert_ne!(lib, soft_library(25, 20, 2));
    }
}
