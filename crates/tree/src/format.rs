//! A human-writable text format for floorplan instances (`.fpt`).
//!
//! ```text
//! # comment
//! floorplan demo
//! module cpu 12x6 9x8 6x12
//! module ram 10x5 5x10
//! module io  8x3 4x6
//! tree (hsplit (vsplit cpu ram) io)
//! ```
//!
//! * `floorplan <name>` — optional header naming the instance.
//! * `module <name> [rot] <w>x<h> [...]` — a module and its
//!   implementations (redundant candidates are pruned on load); with the
//!   `rot` keyword every size also contributes its 90°-rotated variant
//!   (free-orientation macros). A size written as slash-joined corners
//!   (`12x2/9x4/5x6`, widths descending, heights ascending) declares a
//!   bounded-staircase implementation: its bounding box joins the
//!   rectangular list and the staircase geometry is kept on the module
//!   (with `rot`, the transposed staircase too).
//! * `tree <expr>` — the topology, where `<expr>` is a module name (one
//!   leaf instance per occurrence) or one of:
//!   * `(hsplit e1 e2 …)` — horizontal cut lines, children stacked
//!     bottom-to-top;
//!   * `(vsplit e1 e2 …)` — vertical cut lines, children left-to-right;
//!   * `(wheel cw|ccw a b c d e)` — an order-5 wheel, children in the
//!     `[A, B, C, D, E]` order of [`crate::NodeKind`].
//!
//! `#` starts a comment that runs to the end of its line, and it ends a
//! word it touches (`12x6#c` is the size `12x6`). Any Unicode whitespace
//! separates words, and `(`/`)` need none around them. Only `\n` ends a
//! line (a `\r` is whitespace), and error columns count chars. Each
//! dimension is what `u64::from_str` accepts (`5x+3` is `5x3`), but a
//! size must start with a digit. The format round-trips through
//! [`write_instance`] / [`parse_instance`].

use core::fmt;
use std::collections::hash_map::{Entry, HashMap};

use fp_geom::{Coord, Rect};

use crate::{Chirality, CutDir, FloorplanTree, Module, ModuleLibrary, NodeId, NodeKind};

/// A parsed floorplan instance: topology plus module library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloorplanInstance {
    /// Instance name (from the `floorplan` header; defaults to
    /// `"floorplan"`).
    pub name: String,
    /// The topology; leaf module ids index `library`.
    pub tree: FloorplanTree,
    /// The module library.
    pub library: ModuleLibrary,
}

/// A parse error with 1-based line and column information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseInstanceError {
    /// 1-based line number of the offending token (0 for end-of-input).
    pub line: usize,
    /// 1-based column of the offending token's first character (0 when no
    /// single token is at fault, e.g. a structural error).
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseInstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "parse error at end of input: {}", self.message)
        } else if self.col == 0 {
            write!(f, "parse error at line {}: {}", self.line, self.message)
        } else {
            write!(
                f,
                "parse error at line {}, column {}: {}",
                self.line, self.col, self.message
            )
        }
    }
}

impl std::error::Error for ParseInstanceError {}

/// An error not tied to any single token: line and column 0.
fn unplaced(message: String) -> ParseInstanceError {
    ParseInstanceError {
        line: 0,
        col: 0,
        message,
    }
}

/// A token. Words are slices of the input. Error messages show the
/// `Debug` form (`Open`, `Close`, `Word("…")`).
#[derive(Debug, Clone, Copy)]
enum Token<'a> {
    Open,
    Close,
    Word(&'a str),
}

/// What a byte means to the lexer. Each byte of a multi-byte UTF-8
/// sequence is `Wide`: only the decoded char says whether it is
/// whitespace.
#[derive(Clone, Copy)]
enum Class {
    Word,
    Space,
    Open,
    Close,
    Comment,
    Wide,
}

/// The [`Class`] of every byte value.
static CLASSES: [Class; 256] = {
    let mut table = [Class::Word; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            b'(' => Class::Open,
            b')' => Class::Close,
            b'#' => Class::Comment,
            // The ASCII chars for which `char::is_whitespace` holds.
            b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ' => Class::Space,
            0x80..=0xFF => Class::Wide,
            _ => Class::Word,
        };
        b += 1;
    }
    table
};

/// A single-pass lexer for the language in the module docs, with one
/// token of lookahead. Words are borrowed from the input and positions
/// are byte offsets; `(line, column)` is computed only when an error is
/// built.
struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the first byte not yet lexed.
    at: usize,
    /// The next token and its byte offset; `None` at end of input.
    peeked: Option<(Token<'a>, usize)>,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        let mut lexer = Lexer {
            input,
            at: 0,
            peeked: None,
        };
        lexer.peeked = lexer.lex();
        lexer
    }

    fn peek(&self) -> Option<(Token<'a>, usize)> {
        self.peeked
    }

    fn next(&mut self) -> Option<(Token<'a>, usize)> {
        let token = self.peeked;
        if token.is_some() {
            self.peeked = self.lex();
        }
        token
    }

    /// The char starting at byte `at`, for bytes of class `Wide`.
    fn wide_char(&self, at: usize) -> Option<char> {
        self.input.get(at..)?.chars().next()
    }

    fn lex(&mut self) -> Option<(Token<'a>, usize)> {
        let bytes = self.input.as_bytes();
        let mut i = self.at;
        let start = loop {
            let &b = bytes.get(i)?;
            match CLASSES[usize::from(b)] {
                Class::Space => i += 1,
                Class::Comment => {
                    i = bytes[i..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(bytes.len(), |n| i + n);
                }
                Class::Open | Class::Close => {
                    self.at = i + 1;
                    let token = if b == b'(' { Token::Open } else { Token::Close };
                    return Some((token, i));
                }
                Class::Wide => match self.wide_char(i) {
                    Some(c) if c.is_whitespace() => i += c.len_utf8(),
                    _ => break i,
                },
                Class::Word => break i,
            }
        };
        while let Some(&b) = bytes.get(i) {
            match CLASSES[usize::from(b)] {
                Class::Word => i += 1,
                Class::Wide => match self.wide_char(i) {
                    Some(c) if !c.is_whitespace() => i += c.len_utf8(),
                    _ => break,
                },
                _ => break,
            }
        }
        self.at = i;
        Some((Token::Word(&self.input[start..i]), start))
    }

    /// An error at byte offset `at`, placed by 1-based line and column.
    fn error(&self, at: usize, message: String) -> ParseInstanceError {
        let before = self.input.get(..at).unwrap_or(self.input);
        let line_start = before.rfind('\n').map_or(0, |n| n + 1);
        ParseInstanceError {
            line: 1 + before.bytes().filter(|&b| b == b'\n').count(),
            col: 1 + before[line_start..].chars().count(),
            message,
        }
    }

    fn expect_word(&mut self, what: &str) -> Result<(&'a str, usize), ParseInstanceError> {
        match self.next() {
            Some((Token::Word(w), at)) => Ok((w, at)),
            Some((other, at)) => Err(self.error(at, format!("expected {what}, found {other:?}"))),
            None => Err(unplaced(format!("expected {what}"))),
        }
    }
}

/// Parses a `<width>x<height>` size; the error is the message, which the
/// caller places.
fn parse_size(word: &str) -> Result<Rect, String> {
    let bad = || format!("expected <width>x<height>, found `{word}`");
    let x = word
        .bytes()
        .position(|b| b == b'x' || b == b'X')
        .ok_or_else(bad)?;
    let (Ok(w), Ok(h)) = (word[..x].parse::<Coord>(), word[x + 1..].parse::<Coord>()) else {
        return Err(bad());
    };
    if w == 0 || h == 0 {
        return Err(format!("zero dimension in `{word}`"));
    }
    if w > fp_geom::MAX_COORD || h > fp_geom::MAX_COORD {
        return Err(format!(
            "dimension in `{word}` exceeds the supported maximum {}",
            fp_geom::MAX_COORD
        ));
    }
    Ok(Rect::new(w, h))
}

/// Parses a staircase token: slash-joined corner sizes
/// (`12x2/9x4/5x6`), validated and canonicalized by
/// [`fp_geom::Staircase::from_corners`].
fn parse_staircase(word: &str) -> Result<fp_geom::Staircase, String> {
    let corners = word
        .split('/')
        .map(|part| parse_size(part).map(|r| (r.w, r.h)))
        .collect::<Result<Vec<_>, _>>()?;
    fp_geom::Staircase::from_corners(corners)
        .map_err(|e| format!("invalid staircase `{word}`: {e}"))
}

/// Capacity for the module list and the name table: the number of lines,
/// as [`write_instance`] puts each module on a line of its own, capped by
/// the number of shortest `module` directives the input could hold.
fn module_capacity(input: &str) -> usize {
    // Counting per chunk in `u8` lanes vectorizes; a plain filtered count
    // runs about ten times slower.
    let lines: usize = input
        .as_bytes()
        .chunks(usize::from(u8::MAX))
        .map(|chunk| usize::from(chunk.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'))))
        .sum();
    lines.min(input.len() / "module m 1x1".len())
}

/// Parses an instance from its text form.
///
/// # Errors
///
/// Returns a [`ParseInstanceError`] with the offending line for syntax
/// errors, unknown module references, arity violations, and structural
/// problems ([`FloorplanTree::validate`] failures).
pub fn parse_instance(input: &str) -> Result<FloorplanInstance, ParseInstanceError> {
    let capacity = module_capacity(input);
    let mut parser = Parser {
        lexer: Lexer::new(input),
        modules: Vec::with_capacity(capacity),
        by_name: HashMap::with_capacity(capacity),
        sizes: Vec::new(),
    };
    let mut name = "floorplan";
    let mut tree: Option<FloorplanTree> = None;

    while let Some((token, at)) = parser.lexer.next() {
        let Token::Word(keyword) = token else {
            return Err(parser
                .lexer
                .error(at, format!("expected a directive, found {token:?}")));
        };
        match keyword {
            "floorplan" => name = parser.lexer.expect_word("an instance name")?.0,
            "module" => parser.module()?,
            "tree" => {
                if tree.is_some() {
                    return Err(parser
                        .lexer
                        .error(at, "duplicate `tree` directive".to_owned()));
                }
                let mut t = FloorplanTree::new();
                let root = parser.expr(&mut t, 0)?;
                t.set_root(root);
                tree = Some(t);
            }
            other => {
                return Err(parser.lexer.error(
                    at,
                    format!("unknown directive `{other}` (expected floorplan/module/tree)"),
                ))
            }
        }
    }

    let tree = tree.ok_or_else(|| unplaced("missing `tree` directive".to_owned()))?;
    tree.validate()
        .map_err(|e| unplaced(format!("invalid tree: {e}")))?;
    Ok(FloorplanInstance {
        name: name.to_owned(),
        tree,
        library: parser.modules.into_iter().collect(),
    })
}

/// Maximum expression nesting the parser accepts; a recursive-descent
/// parser must bound its depth or adversarial inputs (`"((((…"`) exhaust
/// the call stack.
const MAX_NESTING: usize = 200;

/// The lexer plus the modules the directives so far have declared.
struct Parser<'a> {
    lexer: Lexer<'a>,
    modules: Vec<Module>,
    by_name: HashMap<&'a str, usize>,
    /// One module's sizes; reused, so each module gets an exact-size copy.
    sizes: Vec<Rect>,
}

impl<'a> Parser<'a> {
    /// Parses the rest of a `module` directive and adds the module.
    fn module(&mut self) -> Result<(), ParseInstanceError> {
        let lexer = &mut self.lexer;
        let (name, name_at) = lexer.expect_word("a module name")?;
        let Entry::Vacant(slot) = self.by_name.entry(name) else {
            return Err(lexer.error(name_at, format!("duplicate module `{name}`")));
        };
        let rotatable = matches!(lexer.peek(), Some((Token::Word("rot"), _)));
        if rotatable {
            lexer.next();
        }
        self.sizes.clear();
        let mut stairs = Vec::new();
        while let Some((Token::Word(word), at)) = lexer.peek() {
            if !word.as_bytes().first().is_some_and(u8::is_ascii_digit) {
                break;
            }
            lexer.next();
            if word.contains('/') {
                // Staircase implementation: slash-joined corner sizes
                // `w1xh1/w2xh2/...`, widths descending.
                let s = parse_staircase(word).map_err(|m| lexer.error(at, m))?;
                if rotatable {
                    stairs.push(s.transposed());
                }
                stairs.push(s);
            } else {
                let r = parse_size(word).map_err(|m| lexer.error(at, m))?;
                self.sizes.push(r);
                if rotatable {
                    self.sizes.push(r.rotated());
                }
            }
        }
        if self.sizes.is_empty() && stairs.is_empty() {
            return Err(lexer.error(name_at, format!("module `{name}` has no implementations")));
        }
        slot.insert(self.modules.len());
        self.modules
            .push(Module::with_staircases(name, self.sizes.to_vec(), stairs));
        Ok(())
    }

    /// Parses one expression into `tree`.
    fn expr(
        &mut self,
        tree: &mut FloorplanTree,
        depth: usize,
    ) -> Result<NodeId, ParseInstanceError> {
        if depth > MAX_NESTING {
            return Err(unplaced(format!(
                "expression nesting exceeds {MAX_NESTING} levels"
            )));
        }
        match self.lexer.next() {
            Some((Token::Word(w), at)) => match self.by_name.get(w) {
                Some(&id) => Ok(tree.leaf(id)),
                None => Err(self.lexer.error(at, format!("unknown module `{w}`"))),
            },
            Some((Token::Open, _)) => {
                let lexer = &mut self.lexer;
                let (op, op_at) = lexer.expect_word("an operator (hsplit/vsplit/wheel)")?;
                let kind = match op {
                    "hsplit" => NodeKind::Slice(CutDir::Horizontal),
                    "vsplit" => NodeKind::Slice(CutDir::Vertical),
                    "wheel" => {
                        let (ch, ch_at) = lexer.expect_word("a chirality (cw/ccw)")?;
                        match ch {
                            "cw" => NodeKind::Wheel(Chirality::Clockwise),
                            "ccw" => NodeKind::Wheel(Chirality::Counterclockwise),
                            other => {
                                return Err(lexer
                                    .error(ch_at, format!("expected cw or ccw, found `{other}`")))
                            }
                        }
                    }
                    other => return Err(lexer.error(op_at, format!("unknown operator `{other}`"))),
                };
                let mut children = Vec::new();
                while !matches!(self.lexer.peek(), Some((Token::Close, _)) | None) {
                    children.push(self.expr(tree, depth + 1)?);
                }
                // The loop stops at `)` or at the end of input.
                if self.lexer.next().is_none() {
                    return Err(unplaced("expected `)`".to_owned()));
                }
                match kind {
                    NodeKind::Wheel(chirality) => {
                        let arr: [NodeId; 5] = children.try_into().map_err(|c: Vec<NodeId>| {
                            self.lexer.error(
                                op_at,
                                format!("wheel needs exactly 5 children, found {}", c.len()),
                            )
                        })?;
                        Ok(tree.wheel(chirality, arr))
                    }
                    NodeKind::Slice(dir) if children.len() >= 2 => Ok(tree.slice(dir, children)),
                    _ => Err(self
                        .lexer
                        .error(op_at, format!("{op} needs at least 2 children"))),
                }
            }
            Some((Token::Close, at)) => Err(self.lexer.error(at, "unexpected `)`".to_owned())),
            None => Err(unplaced("unexpected end of input in expression".to_owned())),
        }
    }
}

/// Errors reported by [`write_instance`] for instances whose tree and
/// library disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteInstanceError {
    /// A leaf references a module that the library does not contain.
    MissingModule {
        /// The offending tree node.
        node: NodeId,
        /// The module id it references.
        module: usize,
    },
    /// A node id is out of range for the tree.
    InvalidNode {
        /// The offending node id.
        node: NodeId,
    },
}

impl fmt::Display for WriteInstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteInstanceError::MissingModule { node, module } => write!(
                f,
                "tree node {node} references module {module}, which is missing from the library"
            ),
            WriteInstanceError::InvalidNode { node } => {
                write!(f, "tree node {node} is out of range")
            }
        }
    }
}

impl std::error::Error for WriteInstanceError {}

/// Serializes an instance back to its text form (round-trips through
/// [`parse_instance`]).
///
/// # Errors
///
/// [`WriteInstanceError`] when the tree references nodes or modules that
/// do not exist — the instance cannot be represented faithfully.
pub fn write_instance(instance: &FloorplanInstance) -> Result<String, WriteInstanceError> {
    let mut out = String::new();
    out.push_str(&format!("floorplan {}\n", instance.name));
    for module in instance.library.iter() {
        out.push_str(&format!("module {}", module.name()));
        for r in module.implementations().iter() {
            out.push_str(&format!(" {}x{}", r.w, r.h));
        }
        for s in module.staircases() {
            // Staircase Display is the slash-joined corner syntax the
            // parser accepts.
            out.push_str(&format!(" {s}"));
        }
        out.push('\n');
    }
    out.push_str("tree ");
    if !instance.tree.is_empty() {
        write_expr(instance, instance.tree.root(), &mut out)?;
    }
    out.push('\n');
    Ok(out)
}

fn write_expr(
    instance: &FloorplanInstance,
    id: NodeId,
    out: &mut String,
) -> Result<(), WriteInstanceError> {
    let node = instance
        .tree
        .node(id)
        .ok_or(WriteInstanceError::InvalidNode { node: id })?;
    match &node.kind {
        NodeKind::Leaf(m) => {
            let module = instance
                .library
                .get(*m)
                .ok_or(WriteInstanceError::MissingModule {
                    node: id,
                    module: *m,
                })?;
            out.push_str(module.name());
        }
        NodeKind::Slice(dir) => {
            out.push_str(match dir {
                CutDir::Horizontal => "(hsplit",
                CutDir::Vertical => "(vsplit",
            });
            for &c in node.children {
                out.push(' ');
                write_expr(instance, c, out)?;
            }
            out.push(')');
        }
        NodeKind::Wheel(ch) => {
            out.push_str(match ch {
                Chirality::Clockwise => "(wheel cw",
                Chirality::Counterclockwise => "(wheel ccw",
            });
            for &c in node.children {
                out.push(' ');
                write_expr(instance, c, out)?;
            }
            out.push(')');
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = "\
# a demo instance
floorplan demo
module cpu 12x6 9x8 6x12
module ram 10x5 5x10
module io  8x3 4x6      # trailing comment
tree (hsplit (vsplit cpu ram) io)
";

    #[test]
    fn parses_the_demo() {
        let inst = parse_instance(DEMO).expect("parses");
        assert_eq!(inst.name, "demo");
        assert_eq!(inst.library.len(), 3);
        assert_eq!(inst.tree.module_count(), 3);
        assert_eq!(inst.library[0].implementations().len(), 3);
        assert!(inst.tree.validate().is_ok());
    }

    #[test]
    fn wheel_and_reuse() {
        let text = "\
module a 2x1 1x2
module e 1x1
tree (wheel cw a a a a e)
";
        let inst = parse_instance(text).expect("parses");
        assert_eq!(inst.tree.module_count(), 5);
        // Four instances of the same module `a`.
        let bin = crate::restructure::restructure(&inst.tree).expect("valid");
        assert_eq!(bin.lshape_count(), 3);
        assert_eq!(inst.name, "floorplan");
    }

    #[test]
    fn round_trip() {
        for text in [
            DEMO,
            "module a 2x1 1x2\nmodule e 1x1\ntree (wheel ccw a a a a e)\n",
            "module a 1x1\nmodule b 2x2\ntree (vsplit a b a)\n",
        ] {
            let inst = parse_instance(text).expect("parses");
            let written = write_instance(&inst).expect("writable");
            let reparsed = parse_instance(&written).expect("round-trips");
            assert_eq!(inst.name, reparsed.name);
            assert_eq!(inst.library, reparsed.library);
            assert_eq!(inst.tree.module_count(), reparsed.tree.module_count());
            // Second write is a fixpoint.
            assert_eq!(written, write_instance(&reparsed).expect("writable"));
        }
    }

    #[test]
    fn staircase_modules_round_trip() {
        let text = "\
module cpu 12x2/9x4/5x6
module ram rot 10x3/6x5
module io 8x3
tree (hsplit (vsplit cpu ram) io)
";
        let inst = parse_instance(text).expect("parses");
        // The staircase geometry survives on the module, and its bounding
        // box joined the rectangular implementation list.
        assert_eq!(inst.library[0].staircases().len(), 1);
        assert_eq!(
            inst.library[0].staircases()[0].corners(),
            &[(12, 2), (9, 4), (5, 6)]
        );
        assert!(inst.library[0]
            .implementations()
            .iter()
            .any(|r| *r == fp_geom::Rect::new(12, 6)));
        // `rot` adds the transposed staircase as a second implementation.
        assert_eq!(inst.library[1].staircases().len(), 2);

        let written = write_instance(&inst).expect("writable");
        let reparsed = parse_instance(&written).expect("round-trips");
        assert_eq!(inst.library, reparsed.library);
        assert_eq!(written, write_instance(&reparsed).expect("fixpoint"));
    }

    #[test]
    fn staircase_syntax_errors_report_the_line() {
        // Ten strictly-descending teeth exceed MAX_STAIRCASE_STEPS.
        let deep: String = (0..10)
            .map(|i| format!("{}x{}", 20 - i, 2 + i))
            .collect::<Vec<_>>()
            .join("/");
        for (text, needle) in [
            (
                format!("module m {deep}\ntree m\n"),
                "invalid staircase".to_owned(),
            ),
            (
                "module m 12x2/9xx4\ntree m\n".to_owned(),
                "expected <width>x<height>".to_owned(),
            ),
            (
                "module m 12x0/9x4\ntree m\n".to_owned(),
                "zero dimension".to_owned(),
            ),
        ] {
            let err = parse_instance(&text).expect_err(&text);
            assert_eq!(err.line, 1, "{text}");
            assert!(err.message.contains(&needle), "{}: {}", text, err.message);
        }
    }

    #[test]
    fn error_reporting_lines() {
        let cases: &[(&str, usize, &str)] = &[
            ("module m 3xx4\ntree m\n", 1, "expected <width>x<height>"),
            ("module m 0x4\ntree m\n", 1, "zero dimension"),
            (
                "module m 1099511627777x4\ntree m\n",
                1,
                "exceeds the supported maximum",
            ),
            (
                "module m 1x1\nmodule m 2x2\ntree m\n",
                2,
                "duplicate module",
            ),
            ("module m 1x1\ntree (vsplit m)\n", 2, "at least 2 children"),
            (
                "module m 1x1\ntree (wheel cw m m m)\n",
                2,
                "exactly 5 children",
            ),
            (
                "module m 1x1\ntree (wheel sideways m m m m m)\n",
                2,
                "expected cw or ccw",
            ),
            ("module m 1x1\ntree nope\n", 2, "unknown module"),
            ("module m 1x1\ntree (spiral m m)\n", 2, "unknown operator"),
            ("module m 1x1\n", 0, "missing `tree`"),
            ("module m\ntree m\n", 1, "no implementations"),
            ("blorp\n", 1, "unknown directive"),
        ];
        for (text, line, needle) in cases {
            let err = parse_instance(text).expect_err(text);
            assert_eq!(err.line, *line, "{text}");
            assert!(err.message.contains(needle), "{text} -> {}", err.message);
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn rot_keyword_adds_rotations() {
        let inst = parse_instance("module m rot 4x2\ntree (vsplit m m)\n").expect("parses");
        assert_eq!(inst.library[0].implementations().len(), 2);
        let square = parse_instance("module m rot 3x3\ntree (vsplit m m)\n").expect("parses");
        assert_eq!(square.library[0].implementations().len(), 1);
        // `rot` with no sizes is still an error.
        let err = parse_instance("module m rot\ntree m\n").expect_err("no sizes");
        assert!(err.message.contains("no implementations"));
    }

    #[test]
    fn parser_never_panics_on_garbage() {
        // A light fuzz over adversarial inputs: errors are fine, panics
        // are not.
        let inputs = [
            "",
            "(",
            ")",
            "((((",
            "tree",
            "tree (",
            "module",
            "module x",
            "module x 1x1 tree x",
            "tree (wheel cw)",
            "floorplan",
            "module \u{1F600} 1x1\ntree \u{1F600}\n",
            "tree (vsplit (vsplit (vsplit",
            "module m 1x1\ntree ((((m",
            "module m 99999999999999999999x1\ntree m\n",
            "# only a comment",
            "module m 1x1 2x2 3x3 4x4\ntree m m\n",
        ];
        for text in inputs {
            let _ = parse_instance(text);
        }
    }

    #[test]
    fn adversarial_nesting_is_rejected_not_crashed() {
        let bomb = format!(
            "module m 1x1\ntree {}m{}\n",
            "(vsplit m ".repeat(2000),
            ")".repeat(2000)
        );
        let err = parse_instance(&bomb).expect_err("too deep");
        assert!(err.message.contains("nesting exceeds"));
        // At a reasonable depth it parses fine.
        let ok = format!(
            "module m 1x1\ntree {}m m{}\n",
            "(vsplit m ".repeat(150),
            ")".repeat(150)
        );
        assert!(parse_instance(&ok).is_ok());
    }

    #[test]
    fn unbalanced_parens() {
        assert!(parse_instance("module m 1x1\ntree (vsplit m m\n").is_err());
        assert!(parse_instance("module m 1x1\ntree (vsplit m m))\n").is_err());
    }

    #[test]
    fn redundant_implementations_pruned_on_load() {
        let inst = parse_instance("module m 3x3 4x4 2x5\ntree (vsplit m m)\n").expect("parses");
        assert_eq!(inst.library[0].implementations().len(), 2); // 4x4 dominated
    }

    proptest::proptest! {
        /// No input string can panic the parser.
        #[test]
        fn parser_total_on_random_input(text in ".{0,200}") {
            let _ = parse_instance(&text);
        }

        /// Structured-ish random inputs exercise deeper paths.
        #[test]
        fn parser_total_on_token_soup(
            tokens in proptest::collection::vec(
                proptest::prop_oneof![
                    proptest::prelude::Just("module".to_owned()),
                    proptest::prelude::Just("tree".to_owned()),
                    proptest::prelude::Just("floorplan".to_owned()),
                    proptest::prelude::Just("(".to_owned()),
                    proptest::prelude::Just(")".to_owned()),
                    proptest::prelude::Just("vsplit".to_owned()),
                    proptest::prelude::Just("wheel".to_owned()),
                    proptest::prelude::Just("cw".to_owned()),
                    proptest::prelude::Just("rot".to_owned()),
                    proptest::prelude::Just("m".to_owned()),
                    proptest::prelude::Just("3x4".to_owned()),
                ],
                0..40,
            )
        ) {
            let _ = parse_instance(&tokens.join(" "));
        }
    }

    #[test]
    fn generated_benchmarks_round_trip() {
        // The generators build in post-order, as the parser does, so a
        // round trip gives back the same tree and the same text.
        for bench in crate::generators::fixed_test_trees() {
            let library = crate::generators::module_library(&bench.tree, 3, 5);
            let inst = FloorplanInstance {
                name: bench.name,
                tree: bench.tree,
                library,
            };
            let text = write_instance(&inst).expect("writable");
            let parsed = parse_instance(&text).expect("round-trips");
            assert_eq!(write_instance(&parsed).as_ref(), Ok(&text), "{}", inst.name);
            assert_eq!(parsed.tree, inst.tree, "{}", inst.name);
        }
    }

    #[test]
    fn error_reporting_columns() {
        // The offending token's column, not just its line.
        let err = parse_instance("module m 3xx4\ntree m\n").expect_err("bad size");
        assert_eq!((err.line, err.col), (1, 10));
        let err = parse_instance("module m 1x1\ntree nope\n").expect_err("unknown module");
        assert_eq!((err.line, err.col), (2, 6));
        let err = parse_instance("module m 1x1\nmodule m 2x2\ntree m\n").expect_err("dup");
        assert_eq!((err.line, err.col), (2, 8));
        // Structural errors carry no column.
        let err = parse_instance("module m 1x1\n").expect_err("missing tree");
        assert_eq!((err.line, err.col), (0, 0));
        assert!(err.to_string().contains("end of input"));
        // Display mentions both coordinates when known.
        let err = parse_instance("module m 0x4\ntree m\n").expect_err("zero dim");
        assert!(err.to_string().contains("line 1, column 10"), "{err}");
    }

    #[test]
    fn write_instance_reports_missing_modules() {
        let mut tree = FloorplanTree::new();
        tree.leaf(7); // no module 7 in the (empty) library
        let inst = FloorplanInstance {
            name: "broken".into(),
            tree,
            library: ModuleLibrary::new(),
        };
        match write_instance(&inst) {
            Err(WriteInstanceError::MissingModule { node: _, module }) => assert_eq!(module, 7),
            other => panic!("expected MissingModule, got {other:?}"),
        }
    }

    /// The tokenizer-based parser this module's parser replaced, kept
    /// verbatim as the reference for the differential tests.
    mod oracle {
        use std::collections::HashMap;

        use fp_geom::{Coord, Rect};

        use super::super::{FloorplanInstance, ParseInstanceError};
        use crate::{Chirality, CutDir, FloorplanTree, Module, ModuleLibrary, NodeId};

        /// `(line, column)` of a token's first character, both 1-based.
        type Pos = (usize, usize);

        /// A position for errors not tied to any single token.
        const NO_POS: Pos = (0, 0);

        fn err_at(pos: Pos, message: String) -> ParseInstanceError {
            ParseInstanceError {
                line: pos.0,
                col: pos.1,
                message,
            }
        }

        #[derive(Debug, Clone, PartialEq, Eq)]
        enum Token {
            Open,
            Close,
            Word(String),
        }

        /// Tokenized input: `(token, position)` pairs.
        fn tokenize(input: &str) -> Vec<(Token, Pos)> {
            let mut tokens = Vec::new();
            for (idx, raw_line) in input.lines().enumerate() {
                let line_no = idx + 1;
                let line = raw_line.split('#').next().unwrap_or("");
                let mut word = String::new();
                let mut word_col = 0usize;
                let flush = |word: &mut String, word_col: usize, tokens: &mut Vec<(Token, Pos)>| {
                    if !word.is_empty() {
                        tokens.push((Token::Word(std::mem::take(word)), (line_no, word_col)));
                    }
                };
                for (col0, ch) in line.chars().enumerate() {
                    let col = col0 + 1;
                    match ch {
                        '(' => {
                            flush(&mut word, word_col, &mut tokens);
                            tokens.push((Token::Open, (line_no, col)));
                        }
                        ')' => {
                            flush(&mut word, word_col, &mut tokens);
                            tokens.push((Token::Close, (line_no, col)));
                        }
                        c if c.is_whitespace() => flush(&mut word, word_col, &mut tokens),
                        c => {
                            if word.is_empty() {
                                word_col = col;
                            }
                            word.push(c);
                        }
                    }
                }
                flush(&mut word, word_col, &mut tokens);
            }
            tokens
        }

        struct Parser {
            tokens: Vec<(Token, Pos)>,
            pos: usize,
        }

        impl Parser {
            fn peek(&self) -> Option<&(Token, Pos)> {
                self.tokens.get(self.pos)
            }

            fn next(&mut self) -> Option<(Token, Pos)> {
                let t = self.tokens.get(self.pos).cloned();
                if t.is_some() {
                    self.pos += 1;
                }
                t
            }

            fn expect_word(&mut self, what: &str) -> Result<(String, Pos), ParseInstanceError> {
                match self.next() {
                    Some((Token::Word(w), pos)) => Ok((w, pos)),
                    Some((other, pos)) => {
                        Err(err_at(pos, format!("expected {what}, found {other:?}")))
                    }
                    None => Err(err_at(NO_POS, format!("expected {what}"))),
                }
            }
        }

        fn parse_size(word: &str, pos: Pos) -> Result<Rect, ParseInstanceError> {
            let bad = || err_at(pos, format!("expected <width>x<height>, found `{word}`"));
            let (w, h) = word.split_once(['x', 'X']).ok_or_else(bad)?;
            let w: Coord = w.parse().map_err(|_| bad())?;
            let h: Coord = h.parse().map_err(|_| bad())?;
            if w == 0 || h == 0 {
                return Err(err_at(pos, format!("zero dimension in `{word}`")));
            }
            if w > fp_geom::MAX_COORD || h > fp_geom::MAX_COORD {
                return Err(err_at(
                    pos,
                    format!(
                        "dimension in `{word}` exceeds the supported maximum {}",
                        fp_geom::MAX_COORD
                    ),
                ));
            }
            Ok(Rect::new(w, h))
        }

        /// Parses a staircase token: slash-joined corner sizes
        /// (`12x2/9x4/5x6`), validated and canonicalized by
        /// [`fp_geom::Staircase::from_corners`].
        fn parse_staircase(word: &str, pos: Pos) -> Result<fp_geom::Staircase, ParseInstanceError> {
            let mut corners = Vec::new();
            for part in word.split('/') {
                let r = parse_size(part, pos)?;
                corners.push((r.w, r.h));
            }
            fp_geom::Staircase::from_corners(corners)
                .map_err(|e| err_at(pos, format!("invalid staircase `{word}`: {e}")))
        }

        /// Parses an instance from its text form.
        ///
        /// # Errors
        ///
        /// Returns a [`ParseInstanceError`] with the offending line for syntax
        /// errors, unknown module references, arity violations, and structural
        /// problems ([`FloorplanTree::validate`] failures).
        pub fn parse_instance(input: &str) -> Result<FloorplanInstance, ParseInstanceError> {
            let mut parser = Parser {
                tokens: tokenize(input),
                pos: 0,
            };
            let mut name = "floorplan".to_owned();
            let mut library = ModuleLibrary::new();
            let mut by_name: HashMap<String, usize> = HashMap::new();
            let mut tree: Option<FloorplanTree> = None;

            while let Some((token, pos)) = parser.next() {
                let keyword = match token {
                    Token::Word(w) => w,
                    other => {
                        return Err(err_at(
                            pos,
                            format!("expected a directive, found {other:?}"),
                        ))
                    }
                };
                match keyword.as_str() {
                    "floorplan" => {
                        name = parser.expect_word("an instance name")?.0;
                    }
                    "module" => {
                        let (mod_name, name_pos) = parser.expect_word("a module name")?;
                        if by_name.contains_key(&mod_name) {
                            return Err(err_at(name_pos, format!("duplicate module `{mod_name}`")));
                        }
                        let mut rotatable = false;
                        if let Some((Token::Word(w), _)) = parser.peek() {
                            if w == "rot" {
                                rotatable = true;
                                parser.pos += 1;
                            }
                        }
                        let mut sizes = Vec::new();
                        let mut stairs = Vec::new();
                        while let Some((Token::Word(w), wpos)) = parser.peek().cloned() {
                            if !w.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                                break;
                            }
                            parser.pos += 1;
                            if w.contains('/') {
                                // Staircase implementation: slash-joined corner
                                // sizes `w1xh1/w2xh2/...`, widths descending.
                                let s = parse_staircase(&w, wpos)?;
                                if rotatable {
                                    stairs.push(s.transposed());
                                }
                                stairs.push(s);
                            } else {
                                let r = parse_size(&w, wpos)?;
                                sizes.push(r);
                                if rotatable {
                                    sizes.push(r.rotated());
                                }
                            }
                        }
                        if sizes.is_empty() && stairs.is_empty() {
                            return Err(err_at(
                                name_pos,
                                format!("module `{mod_name}` has no implementations"),
                            ));
                        }
                        let id =
                            library.add(Module::with_staircases(mod_name.clone(), sizes, stairs));
                        by_name.insert(mod_name, id);
                    }
                    "tree" => {
                        if tree.is_some() {
                            return Err(err_at(pos, "duplicate `tree` directive".to_owned()));
                        }
                        let mut t = FloorplanTree::new();
                        let root = parse_expr(&mut parser, &by_name, &mut t, 0)?;
                        t.set_root(root);
                        tree = Some(t);
                    }
                    other => {
                        return Err(err_at(
                            pos,
                            format!("unknown directive `{other}` (expected floorplan/module/tree)"),
                        ))
                    }
                }
            }

            let tree = tree.ok_or_else(|| err_at(NO_POS, "missing `tree` directive".to_owned()))?;
            tree.validate()
                .map_err(|e| err_at(NO_POS, format!("invalid tree: {e}")))?;
            Ok(FloorplanInstance {
                name,
                tree,
                library,
            })
        }

        /// Maximum expression nesting the parser accepts; a recursive-descent
        /// parser must bound its depth or adversarial inputs (`"((((…"`) exhaust
        /// the call stack.
        const MAX_NESTING: usize = 200;

        fn parse_expr(
            parser: &mut Parser,
            by_name: &HashMap<String, usize>,
            tree: &mut FloorplanTree,
            depth: usize,
        ) -> Result<NodeId, ParseInstanceError> {
            if depth > MAX_NESTING {
                return Err(err_at(
                    NO_POS,
                    format!("expression nesting exceeds {MAX_NESTING} levels"),
                ));
            }
            match parser.next() {
                Some((Token::Word(w), pos)) => {
                    let id = by_name
                        .get(&w)
                        .ok_or_else(|| err_at(pos, format!("unknown module `{w}`")))?;
                    Ok(tree.leaf(*id))
                }
                Some((Token::Open, _)) => {
                    let (op, op_pos) = parser.expect_word("an operator (hsplit/vsplit/wheel)")?;
                    match op.as_str() {
                        "hsplit" | "vsplit" => {
                            let dir = if op == "hsplit" {
                                CutDir::Horizontal
                            } else {
                                CutDir::Vertical
                            };
                            let mut children = Vec::new();
                            while !matches!(parser.peek(), Some((Token::Close, _)) | None) {
                                children.push(parse_expr(parser, by_name, tree, depth + 1)?);
                            }
                            expect_close(parser)?;
                            if children.len() < 2 {
                                return Err(err_at(
                                    op_pos,
                                    format!("{op} needs at least 2 children"),
                                ));
                            }
                            Ok(tree.slice(dir, children))
                        }
                        "wheel" => {
                            let (ch, ch_pos) = parser.expect_word("a chirality (cw/ccw)")?;
                            let chirality = match ch.as_str() {
                                "cw" => Chirality::Clockwise,
                                "ccw" => Chirality::Counterclockwise,
                                other => {
                                    return Err(err_at(
                                        ch_pos,
                                        format!("expected cw or ccw, found `{other}`"),
                                    ))
                                }
                            };
                            let mut children = Vec::new();
                            while !matches!(parser.peek(), Some((Token::Close, _)) | None) {
                                children.push(parse_expr(parser, by_name, tree, depth + 1)?);
                            }
                            expect_close(parser)?;
                            let arr: [NodeId; 5] =
                                children.try_into().map_err(|c: Vec<NodeId>| {
                                    err_at(
                                        op_pos,
                                        format!(
                                            "wheel needs exactly 5 children, found {}",
                                            c.len()
                                        ),
                                    )
                                })?;
                            Ok(tree.wheel(chirality, arr))
                        }
                        other => Err(err_at(op_pos, format!("unknown operator `{other}`"))),
                    }
                }
                Some((Token::Close, pos)) => Err(err_at(pos, "unexpected `)`".to_owned())),
                None => Err(err_at(
                    NO_POS,
                    "unexpected end of input in expression".to_owned(),
                )),
            }
        }

        fn expect_close(parser: &mut Parser) -> Result<(), ParseInstanceError> {
            match parser.next() {
                Some((Token::Close, _)) => Ok(()),
                Some((other, pos)) => Err(err_at(pos, format!("expected `)`, found {other:?}"))),
                None => Err(err_at(NO_POS, "expected `)`".to_owned())),
            }
        }
    }

    /// Both parsers must give the same result: the same instance, or the
    /// same line, column and message.
    fn assert_same_as_oracle(text: &str) {
        assert_eq!(
            parse_instance(text),
            oracle::parse_instance(text),
            "parsers disagree on {text:?}"
        );
    }

    fn instance_text(tree: FloorplanTree, library: ModuleLibrary) -> String {
        let inst = FloorplanInstance {
            name: "generated".to_owned(),
            tree,
            library,
        };
        write_instance(&inst).expect("writable")
    }

    /// `text` with `rot` on every third line's module and a two-step
    /// staircase added to every fourth.
    fn with_rot_and_staircases(text: &str) -> String {
        let mut out = String::new();
        for (i, line) in text.lines().enumerate() {
            match line.strip_prefix("module ") {
                Some(rest) => {
                    let (name, sizes) = rest.split_once(' ').expect("module line");
                    out.push_str("module ");
                    out.push_str(name);
                    if i % 3 == 0 {
                        out.push_str(" rot");
                    }
                    out.push(' ');
                    out.push_str(sizes);
                    if i % 4 == 0 {
                        out.push_str(&format!(" {}x{}/{}x{}", 9 + i, 2, 3, 5 + i));
                    }
                }
                None => out.push_str(line),
            }
            out.push('\n');
        }
        out
    }

    /// Valid designs (the paper family, small mega instances in every
    /// depth profile, `rot` and staircase modules) followed by the
    /// malformed fixtures.
    fn differential_corpus() -> &'static [String] {
        static CORPUS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        CORPUS.get_or_init(|| {
            use crate::generators;
            use crate::mega::{mega_floorplan, mega_library, DepthProfile, MegaConfig};
            let mut corpus = Vec::new();
            let paper = [
                generators::fp1(),
                generators::fp2(),
                generators::fp3(),
                generators::fp4(),
            ];
            for (i, bench) in paper.into_iter().enumerate() {
                let library = generators::module_library(&bench.tree, 3 + i, 7);
                corpus.push(instance_text(bench.tree, library));
            }
            for profile in [
                DepthProfile::Balanced,
                DepthProfile::Deep,
                DepthProfile::Wide,
            ] {
                let cfg = MegaConfig::new(300).with_profile(profile).with_seed(11);
                let bench = mega_floorplan(&cfg);
                let library = mega_library(&bench.tree, &cfg);
                corpus.push(instance_text(bench.tree, library));
            }
            corpus.push(with_rot_and_staircases(&corpus[1]));
            // Leaves that do not follow the declaration order.
            let mut lines: Vec<&str> = corpus[2].lines().collect();
            let modules = lines.len() - 2;
            lines[1..=modules].reverse();
            corpus.push(lines.join("\n"));
            corpus.extend(
                [
                    include_str!("../../../tests/fixtures/malformed/bad_wheel_arity.fpt"),
                    include_str!("../../../tests/fixtures/malformed/duplicate_module.fpt"),
                    include_str!("../../../tests/fixtures/malformed/truncated.fpt"),
                    include_str!("../../../tests/fixtures/malformed/zero_dimension.fpt"),
                ]
                .map(str::to_owned),
            );
            corpus
        })
    }

    /// How many entries of [`differential_corpus`] are valid designs.
    const VALID_DESIGNS: usize = 9;

    /// What mutations insert: the bytes the grammar cares about,
    /// whitespace the old tokenizer split on (ASCII and Unicode), non-ASCII
    /// letters, and whole keywords.
    const PIECES: &[&str] = &[
        "(",
        ")",
        "#",
        "x",
        "X",
        "/",
        "+",
        "0",
        "1",
        "7",
        "9",
        "\r",
        "\t",
        "\n",
        " ",
        "\u{a0}",
        "\u{2028}",
        "\u{3000}",
        "\u{b}",
        "\u{c}",
        "\u{85}",
        "\u{e9}",
        "\u{df}",
        "\u{3a9}",
        "\u{4e2d}",
        "\u{1F600}",
        " rot ",
        "module ",
        " tree ",
        "wheel cw ",
        "(hsplit ",
        "floorplan ",
        "\r\n",
    ];

    /// Applies `edits` to `text`: each inserts a piece, deletes a char, or
    /// (one time in eight) truncates, at a char boundary.
    fn mutate(text: &str, edits: &[(usize, usize, usize)]) -> String {
        let mut out = text.to_owned();
        for &(at, op, piece) in edits {
            let mut at = at % (out.len() + 1);
            while !out.is_char_boundary(at) {
                at -= 1;
            }
            match op {
                0..=3 => out.insert_str(at, PIECES[piece % PIECES.len()]),
                4..=6 => {
                    if at < out.len() {
                        out.remove(at);
                    }
                }
                _ => out.truncate(at),
            }
        }
        out
    }

    #[test]
    fn differential_corpus_designs_parse() {
        let corpus = differential_corpus();
        for (i, text) in corpus.iter().enumerate() {
            assert_eq!(parse_instance(text).is_ok(), i < VALID_DESIGNS, "{text}");
            assert_same_as_oracle(text);
        }
    }

    proptest::proptest! {
        /// Mutated designs and fixtures get the oracle's exact result.
        #[test]
        fn differential_on_mutated_corpus(
            pick in 0usize..13,
            edits in proptest::collection::vec((0usize..1 << 20, 0usize..8, 0usize..64), 0..6),
        ) {
            let corpus = differential_corpus();
            assert_same_as_oracle(&mutate(&corpus[pick % corpus.len()], &edits));
        }

        /// Arbitrary strings get the oracle's exact result.
        #[test]
        fn differential_on_random_input(text in ".{0,200}") {
            assert_same_as_oracle(&text);
        }

        /// Token soup gets the oracle's exact result.
        #[test]
        fn differential_on_token_soup(
            tokens in proptest::collection::vec(0usize..PIECES.len() + 8, 0..60)
        ) {
            const WORDS: &[&str] = &["m", "n", "3x4", "5X+3", "2x1/1x2", "vsplit", "ccw", "e\u{301}"];
            let text: String = tokens
                .iter()
                .map(|&t| PIECES.get(t).copied().unwrap_or_else(|| WORDS[t - PIECES.len()]))
                .collect::<Vec<_>>()
                .join(" ");
            assert_same_as_oracle(&format!("module m 1x1\nmodule n 2x3 {text}"));
        }
    }

    #[test]
    fn crlf_input_parses_like_lf() {
        let lf = "floorplan crlf\nmodule a 2x1 1x2\nmodule b 3x3\ntree (vsplit a b)\n";
        let crlf = lf.replace('\n', "\r\n");
        assert_eq!(parse_instance(&crlf), parse_instance(lf));
        assert_same_as_oracle(&crlf);
        let err = parse_instance("module a 1x1\r\nmodule a 2x2\r\ntree a\r\n").expect_err("dup");
        assert_eq!((err.line, err.col), (2, 8));
        // A lone `\r` is whitespace, not a line break.
        let err = parse_instance("module a 1x1\rtree nope\n").expect_err("unknown");
        assert_eq!((err.line, err.col), (1, 19));
    }

    #[test]
    fn columns_count_chars_not_bytes() {
        let text = "module \u{f1}and\u{fa} 1x1\ntree (vsplit \u{f1}and\u{fa} bogus)\n";
        let err = parse_instance(text).expect_err("unknown module");
        assert_eq!((err.line, err.col), (2, 20), "{err}");
        assert!(err.message.contains("unknown module `bogus`"));
        assert_same_as_oracle(text);
        // Unicode whitespace separates words too.
        let text = "module\u{a0}a\u{3000}1x1\u{2028}tree a\n";
        assert_eq!(parse_instance(text).expect("parses").library[0].name(), "a");
        assert_same_as_oracle(text);
    }

    #[test]
    fn comment_ends_a_word() {
        let inst = parse_instance("module m 12x6#c 3x3\ntree m\n").expect("parses");
        let sizes: Vec<Rect> = inst.library[0].implementations().iter().copied().collect();
        assert_eq!(sizes, vec![Rect::new(12, 6)]);
        assert_same_as_oracle("module m 12x6#c\ntree (vsplit m#\nm)\n");
    }

    #[test]
    fn dimensions_parse_like_u64_from_str() {
        // `u64::from_str` takes one leading `+`, so `5x+3` is a size...
        let inst = parse_instance("module m 5x+3\ntree m\n").expect("parses");
        assert_eq!(inst.library[0].implementations()[0], Rect::new(5, 3));
        // ...but a size word must start with a digit, and a sign alone or
        // twice is not a number.
        for text in [
            "module m +5x3\ntree m\n",
            "module m 5x++3\ntree m\n",
            "module m 5x+\ntree m\n",
            "module m 5x-3\ntree m\n",
            "module m 5x\ntree m\n",
            "module m 5\ntree m\n",
            "module m 00000000000000000000000005x3\ntree m\n",
            "module m 18446744073709551616x3\ntree m\n",
            "module m 1099511627776x1\ntree m\n",
            "module m 1099511627777x1\ntree m\n",
            "module m 5X3x4\ntree m\n",
            "module m 5X3\ntree m\n",
        ] {
            assert_same_as_oracle(text);
        }
    }

    #[test]
    fn nesting_limit_matches_the_oracle() {
        for depth in [
            MAX_NESTING - 1,
            MAX_NESTING,
            MAX_NESTING + 1,
            MAX_NESTING + 2,
        ] {
            let text = format!(
                "module m 1x1\ntree {}m{}\n",
                "(vsplit m ".repeat(depth),
                ")".repeat(depth)
            );
            assert_eq!(
                parse_instance(&text).is_ok(),
                depth <= MAX_NESTING,
                "{depth}"
            );
            assert_same_as_oracle(&text);
        }
    }

    #[test]
    fn error_on_the_last_line_of_a_large_design() {
        // 50 000 modules, the size of an FP6 design, then a bad tree.
        let mut text = String::from("floorplan big\n");
        let mut tree = String::from("tree (vsplit");
        for i in 0..50_000 {
            text.push_str(&format!(
                "module m{i} {}x{} {}x{}\n",
                40 + i % 17,
                9,
                9,
                40 + i % 13
            ));
            tree.push_str(&format!(" m{i}"));
        }
        tree.push_str(" m\u{e9}nage)\n");
        let col = tree.chars().count() - "m\u{e9}nage)\n".chars().count() + 1;
        text.push_str(&tree);
        let err = parse_instance(&text).expect_err("unknown module");
        assert_eq!((err.line, err.col), (50_002, col));
        assert_same_as_oracle(&text);
    }
}
