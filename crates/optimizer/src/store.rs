//! Run-scoped storage of committed blocks.
//!
//! A run commits one non-redundant implementation list per node of the
//! restructured tree. Rather than each list owning its own heap vectors,
//! the lists of a run live in a few typed [`Columns`] and every node keeps
//! one compact [`Block`] record: its kind and the `(offset, len)` spans of
//! its implementations, provenance and chains. Join kernels write into a
//! reusable [`Staged`] block, pruning and selection run there, and
//! [`Columns::commit`] appends the survivors once; leaves and cache hits
//! are appended directly. Dropping a run frees a handful of vectors, and
//! trace-back is an index walk.
//!
//! The serial pass owns one segment of columns. The parallel scheduler
//! gives every task a segment of its own and publishes it when the task
//! completes (DESIGN.md §9), so no worker appends to columns that another
//! worker may be reading.

use core::ops::Range;

use fp_geom::{LShape, Rect};
use fp_shape::RList;

use crate::cache::{CachedBlock, CachedShapes};
use crate::governor::Trip;

/// Which list a block holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Kind {
    /// A rectangular block: an irreducible R-list.
    #[default]
    Rect,
    /// An L-shaped block: L-shapes partitioned into irreducible chains.
    L,
}

/// A half-open range `[off, off + len)` of one column.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Span {
    off: u32,
    len: u32,
}

impl Span {
    fn new(off: usize, len: usize) -> Result<Span, Trip> {
        match (u32::try_from(off), u32::try_from(len)) {
            (Ok(off), Ok(len)) if off.checked_add(len).is_some() => Ok(Span { off, len }),
            _ => Err(Trip::Internal("run storage outgrew 32-bit offsets")),
        }
    }

    fn range(self) -> Range<usize> {
        let off = self.off as usize;
        off..off + self.len as usize
    }
}

/// The compact record of one committed block: its kind and where its
/// lists live.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Block {
    /// The segment of columns holding the lists.
    seg: u32,
    pub(crate) kind: Kind,
    /// Implementations, in `rects` or `lshapes` by kind.
    shapes: Span,
    /// One provenance pair per implementation; empty at a leaf, whose
    /// index is the module's implementation choice itself.
    prov: Span,
    /// Chain spans of an L-block, relative to its first implementation.
    chains: Span,
}

impl Block {
    /// Number of implementations.
    pub(crate) fn len(&self) -> usize {
        self.shapes.len as usize
    }
}

/// An L-block's implementations and its chain spans.
pub(crate) type Chains<'a> = (&'a [LShape], &'a [(u32, u32)]);

/// A borrowed view of one committed block.
#[derive(Clone, Copy)]
pub(crate) enum View<'a> {
    Rect {
        rects: &'a [Rect],
        prov: &'a [(u32, u32)],
    },
    L {
        shapes: &'a [LShape],
        prov: &'a [(u32, u32)],
        /// Contiguous `(start, end)` chain segments; each is an
        /// irreducible L-list.
        chains: &'a [(u32, u32)],
    },
}

impl<'a> View<'a> {
    pub(crate) fn len(self) -> usize {
        match self {
            View::Rect { rects, .. } => rects.len(),
            View::L { shapes, .. } => shapes.len(),
        }
    }

    pub(crate) fn as_rect(self) -> Result<&'a [Rect], Trip> {
        match self {
            View::Rect { rects, .. } => Ok(rects),
            View::L { .. } => Err(Trip::Internal("expected a rectangular block")),
        }
    }

    pub(crate) fn as_l(self) -> Result<Chains<'a>, Trip> {
        match self {
            View::L { shapes, chains, .. } => Ok((shapes, chains)),
            View::Rect { .. } => Err(Trip::Internal("expected an L-shaped block")),
        }
    }

    /// The snapshot the cross-run cache stores (it owns its lists: the
    /// rescue ladder may later shrink the run's copy in place).
    pub(crate) fn to_cached(self) -> CachedBlock {
        let shapes = match self {
            View::Rect { rects, prov } => CachedShapes::Rect {
                rects: rects.to_vec(),
                prov: prov.to_vec(),
            },
            View::L {
                shapes,
                prov,
                chains,
            } => CachedShapes::L {
                shapes: shapes.to_vec(),
                prov: prov.to_vec(),
                chains: chains.to_vec(),
            },
        };
        CachedBlock {
            shapes,
            degradations: Vec::new(),
        }
    }
}

/// One block under construction: the join kernels write here, the
/// L-block prune and the selection policies run here, and
/// [`Columns::commit`] appends what survives. Reused across joins, so a
/// warmed worker builds blocks without allocating.
#[derive(Default)]
pub(crate) struct Staged {
    pub(crate) kind: Kind,
    pub(crate) rects: Vec<Rect>,
    pub(crate) shapes: Vec<LShape>,
    pub(crate) prov: Vec<(u32, u32)>,
    pub(crate) chains: Vec<(u32, u32)>,
    /// Stage-4 candidates with provenance, before their staircase prune.
    pub(crate) pairs: Vec<(Rect, (u32, u32))>,
}

impl Staged {
    /// Empties the buffers for a new block of `kind`.
    pub(crate) fn begin(&mut self, kind: Kind) {
        self.kind = kind;
        self.rects.clear();
        self.shapes.clear();
        self.prov.clear();
        self.chains.clear();
        self.pairs.clear();
    }

    /// Number of implementations.
    pub(crate) fn len(&self) -> usize {
        match self.kind {
            Kind::Rect => self.rects.len(),
            Kind::L => self.shapes.len(),
        }
    }

    /// Copies a committed block in, for re-selection.
    pub(crate) fn load(&mut self, view: View<'_>) {
        match view {
            View::Rect { rects, prov } => {
                self.begin(Kind::Rect);
                self.rects.extend_from_slice(rects);
                self.prov.extend_from_slice(prov);
            }
            View::L {
                shapes,
                prov,
                chains,
            } => {
                self.begin(Kind::L);
                self.shapes.extend_from_slice(shapes);
                self.prov.extend_from_slice(prov);
                self.chains.extend_from_slice(chains);
            }
        }
    }
}

/// Typed columns holding the committed lists of many blocks.
#[derive(Default)]
pub(crate) struct Columns {
    /// This segment's index in its [`Store`].
    seg: u32,
    rects: Vec<Rect>,
    lshapes: Vec<LShape>,
    prov: Vec<(u32, u32)>,
    chains: Vec<(u32, u32)>,
}

impl Columns {
    /// Empty columns for segment `seg` of a store.
    pub(crate) fn new(seg: u32) -> Columns {
        Columns {
            seg,
            ..Columns::default()
        }
    }

    /// The lists of `block`, which must belong to this segment.
    pub(crate) fn view(&self, block: &Block) -> View<'_> {
        debug_assert_eq!(block.seg, self.seg, "block read from another segment");
        let prov = slice(&self.prov, block.prov);
        match block.kind {
            Kind::Rect => View::Rect {
                rects: slice(&self.rects, block.shapes),
                prov,
            },
            Kind::L => View::L {
                shapes: slice(&self.lshapes, block.shapes),
                prov,
                chains: slice(&self.chains, block.chains),
            },
        }
    }

    /// Appends a leaf: the module's implementation list, without
    /// provenance.
    pub(crate) fn push_leaf(&mut self, rects: &[Rect]) -> Result<Block, Trip> {
        Ok(Block {
            seg: self.seg,
            kind: Kind::Rect,
            shapes: append(&mut self.rects, rects)?,
            prov: Span::default(),
            chains: Span::default(),
        })
    }

    /// Appends a staged block.
    pub(crate) fn commit(&mut self, out: &Staged) -> Result<Block, Trip> {
        debug_assert_eq!(out.len(), out.prov.len(), "staged provenance arity");
        let (shapes, chains) = match out.kind {
            Kind::Rect => (append(&mut self.rects, &out.rects)?, Span::default()),
            Kind::L => (
                append(&mut self.lshapes, &out.shapes)?,
                append(&mut self.chains, &out.chains)?,
            ),
        };
        Ok(Block {
            seg: self.seg,
            kind: out.kind,
            shapes,
            prov: append(&mut self.prov, &out.prov)?,
            chains,
        })
    }

    /// Appends a block reconstituted from a cache hit, revalidating what
    /// the engine relies on: one provenance pair per implementation, an
    /// R-list staircase, and L-blocks made of Definition 3 chains that
    /// cover the block in order (the wheel kernels and the L-block prune
    /// assume that structure).
    pub(crate) fn push_cached(&mut self, shapes: &CachedShapes) -> Result<Block, Trip> {
        match shapes {
            CachedShapes::Rect { rects, prov } => {
                if !RList::is_staircase(rects) {
                    return Err(Trip::Internal(
                        "cached rectangular block is not a staircase",
                    ));
                }
                if prov.len() != rects.len() {
                    return Err(Trip::Internal("cached block provenance arity mismatch"));
                }
                Ok(Block {
                    seg: self.seg,
                    kind: Kind::Rect,
                    shapes: append(&mut self.rects, rects)?,
                    prov: append(&mut self.prov, prov)?,
                    chains: Span::default(),
                })
            }
            CachedShapes::L {
                shapes,
                prov,
                chains,
            } => {
                if !fp_shape::prune::is_chain_block(shapes, chains) {
                    return Err(Trip::Internal(
                        "cached L-shaped block is not made of Definition 3 chains",
                    ));
                }
                if prov.len() != shapes.len() {
                    return Err(Trip::Internal("cached block provenance arity mismatch"));
                }
                Ok(Block {
                    seg: self.seg,
                    kind: Kind::L,
                    shapes: append(&mut self.lshapes, shapes)?,
                    prov: append(&mut self.prov, prov)?,
                    chains: append(&mut self.chains, chains)?,
                })
            }
        }
    }

    /// Replaces `block`'s lists with `out`, a re-selection of them: the
    /// spans shrink in place. A leaf gains provenance in a fresh span at
    /// the end of the column.
    pub(crate) fn overwrite(&mut self, block: &mut Block, out: &Staged) -> Result<(), Trip> {
        if block.kind != out.kind {
            return Err(Trip::Internal("re-selection changed a block's kind"));
        }
        match out.kind {
            Kind::Rect => overwrite_span(&mut self.rects, &mut block.shapes, &out.rects)?,
            Kind::L => {
                overwrite_span(&mut self.lshapes, &mut block.shapes, &out.shapes)?;
                overwrite_span(&mut self.chains, &mut block.chains, &out.chains)?;
            }
        }
        if out.prov.len() <= block.prov.len as usize {
            overwrite_span(&mut self.prov, &mut block.prov, &out.prov)
        } else {
            block.prov = append(&mut self.prov, &out.prov)?;
            Ok(())
        }
    }
}

/// A run's committed blocks: one record per binary-tree node (in tree
/// order) over one or more segments of columns.
pub(crate) struct Store {
    pub(crate) segs: Vec<Columns>,
    pub(crate) blocks: Vec<Block>,
}

impl Store {
    /// The committed lists of `node`.
    pub(crate) fn view(&self, node: usize) -> Option<View<'_>> {
        let block = self.blocks.get(node)?;
        Some(self.segs.get(block.seg as usize)?.view(block))
    }

    /// The provenance of `node` (empty at an untouched leaf).
    pub(crate) fn prov(&self, node: usize) -> Option<&[(u32, u32)]> {
        let block = self.blocks.get(node)?;
        Some(slice(&self.segs.get(block.seg as usize)?.prov, block.prov))
    }
}

fn slice<T>(column: &[T], span: Span) -> &[T] {
    debug_assert!(span.range().end <= column.len(), "span out of its column");
    column.get(span.range()).unwrap_or_default()
}

fn append<T: Copy>(column: &mut Vec<T>, items: &[T]) -> Result<Span, Trip> {
    let span = Span::new(column.len(), items.len())?;
    column.extend_from_slice(items);
    Ok(span)
}

fn overwrite_span<T: Copy>(column: &mut [T], span: &mut Span, items: &[T]) -> Result<(), Trip> {
    let start = span.off as usize;
    let dst = column
        .get_mut(start..start + items.len())
        .filter(|_| items.len() <= span.len as usize)
        .ok_or(Trip::Internal("re-selection grew a committed block"))?;
    dst.copy_from_slice(items);
    span.len = items.len() as u32;
    Ok(())
}
