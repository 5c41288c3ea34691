//! A lightweight item/function parser over the token stream.
//!
//! simcheck's flow-sensitive analyses need more structure than a flat token
//! stream but far less than a full AST: per-function statement trees with
//! branch shapes (`if`/`match`/loops/early returns) preserved, and a flat
//! *summary* of every expression (calls with receiver chains, identifier
//! uses, `?` operators). Everything the parser does not model — closures,
//! nested items, exotic patterns — degrades to an opaque expression that
//! still harvests its calls and identifiers, so the analyses keep scanning
//! instead of giving up. That is the right failure mode for a linter.
//!
//! The parser never fails: malformed input produces fewer statements, not
//! errors.

use crate::lexer::{Tok, Token};

/// All functions found in one source file, with their statement trees.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every `fn` item, in source order.
    pub fns: Vec<FnDef>,
}

/// One `fn` item (free or inherent/trait method).
#[derive(Debug)]
pub struct FnDef {
    /// The function name.
    pub name: String,
    /// Last path segment of the `impl` type this method lives in, if any
    /// (`impl Watcher<'_>` → `"Watcher"`).
    pub impl_type: Option<String>,
    /// True when the parameter list starts with a `self` receiver.
    pub has_self: bool,
    /// Non-self parameter names, in order.
    pub params: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True when the function is test code (`#[cfg(test)]` span or a test
    /// file) — analyses skip these.
    pub is_test: bool,
    /// The function body.
    pub body: Block,
}

/// A `{ … }` statement sequence.
#[derive(Debug, Default)]
pub struct Block {
    /// The block's statements, in order.
    pub stmts: Vec<Stmt>,
}

/// One statement, with branch structure preserved and everything else
/// flattened into [`ExprInfo`] summaries.
#[derive(Debug)]
pub enum Stmt {
    /// `let <pat> = <init>;` (including `if let`-style destructuring).
    Let {
        /// Lowercase binding names from the pattern (`let (a, b)` → a, b).
        names: Vec<String>,
        /// The initializer expression, when present.
        init: Option<ExprInfo>,
        /// `let … else { … }` diverging block.
        else_block: Option<Block>,
        /// 1-based line of the `let` keyword.
        line: u32,
    },
    /// A bare expression statement.
    Expr(ExprInfo),
    /// `if`/`if let` with optional `else`.
    If {
        /// `if let` pattern bindings (empty for a plain `if`).
        pat: Vec<String>,
        /// The condition (or `if let` scrutinee).
        cond: ExprInfo,
        /// The then-branch.
        then_blk: Block,
        /// The else-branch (a chained `else if` parses as a nested `If`).
        else_blk: Option<Block>,
        /// 1-based line of the `if` keyword.
        line: u32,
    },
    /// `match` with its arms.
    Match {
        /// The matched expression.
        scrutinee: ExprInfo,
        /// The arms, in order.
        arms: Vec<Arm>,
        /// 1-based line of the `match` keyword.
        line: u32,
    },
    /// `while`/`while let`.
    While {
        /// `while let` pattern bindings (empty for a plain `while`).
        pat: Vec<String>,
        /// The loop condition (or `while let` scrutinee).
        cond: ExprInfo,
        /// The loop body.
        body: Block,
        /// 1-based line of the `while` keyword.
        line: u32,
    },
    /// `loop { … }`.
    Loop {
        /// The loop body.
        body: Block,
        /// 1-based line of the `loop` keyword.
        line: u32,
    },
    /// `for <pat> in <iter> { … }`.
    For {
        /// Pattern bindings of the loop variable.
        pat: Vec<String>,
        /// The iterated expression.
        iter: ExprInfo,
        /// The loop body.
        body: Block,
        /// 1-based line of the `for` keyword.
        line: u32,
    },
    /// `return <value>;`.
    Return {
        /// The returned expression, when present.
        value: Option<ExprInfo>,
        /// 1-based line of the `return` keyword.
        line: u32,
    },
    /// `break;` (labels and values are not modelled).
    Break {
        /// 1-based line of the `break` keyword.
        line: u32,
    },
    /// `continue;`.
    Continue {
        /// 1-based line of the `continue` keyword.
        line: u32,
    },
    /// A bare `{ … }` or `unsafe { … }` block.
    Nested(Block),
}

/// One `match` arm; a guard expression is folded in as the body's first
/// statement (flow-equivalent for the analyses).
#[derive(Debug)]
pub struct Arm {
    /// Lowercase binding names of the arm pattern.
    pub pat: Vec<String>,
    /// The arm body (expression arms become a one-statement block).
    pub body: Block,
    /// 1-based line of the arm pattern.
    pub line: u32,
}

/// Flat summary of an expression: enough for use/def and call analysis,
/// deliberately not a tree.
#[derive(Debug, Default)]
pub struct ExprInfo {
    /// Every call site found in the expression.
    pub calls: Vec<Call>,
    /// Every non-keyword identifier with its line (includes method names —
    /// a harmless over-approximation for "is this variable used here").
    pub idents: Vec<(String, u32)>,
    /// True when the expression contains a `?` operator.
    pub has_try: bool,
    /// 1-based line where the expression starts.
    pub line: u32,
}

/// One call site inside an expression.
#[derive(Debug)]
pub struct Call {
    /// Receiver chain for method calls: `self.arena.insert(f)` →
    /// `["self", "arena"]`. `"()"` marks an unresolvable link (a chained
    /// call result). Empty for free/path calls.
    pub recv: Vec<String>,
    /// Path segments for path calls: `SimQueue::new(…)` →
    /// `["SimQueue", "new"]`. Empty for plain method calls.
    pub path: Vec<String>,
    /// The called method or function name (last path segment).
    pub method: String,
    /// Struct-literal field or assignment target feeding this call:
    /// `miss_queue: SimQueue::new(…)` / `self.q = SimQueue::new(…)` →
    /// `Some("miss_queue")` / `Some("q")`.
    pub field_hint: Option<String>,
    /// Identifiers appearing anywhere in the argument list.
    pub arg_idents: Vec<String>,
    /// String-literal arguments, in order of appearance.
    pub args_str: Vec<String>,
    /// Token index where the receiver chain starts (within the scanned
    /// statement slice), for nesting tests.
    pub start: usize,
    /// Token index one past the closing paren.
    pub end: usize,
    /// 1-based line of the method-name token.
    pub line: u32,
    /// 1-based column of the method-name token.
    pub col: u32,
    /// True when the call's result is dropped on the floor: the whole
    /// statement is `recv.method(…);` with nothing consuming the value.
    pub discarded: bool,
}

impl ExprInfo {
    /// True if `name` appears anywhere in this expression.
    pub fn uses(&self, name: &str) -> bool {
        self.idents.iter().any(|(n, _)| n == name)
    }
}

const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "loop", "for", "in", "let", "mut", "ref", "return", "break",
    "continue", "fn", "self", "Self", "pub", "use", "mod", "impl", "struct", "enum", "trait",
    "where", "as", "dyn", "move", "unsafe", "async", "await", "const", "static", "type", "crate",
    "super", "true", "false",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Parses a comment-free token stream into per-function statement trees.
/// `test_spans` are 1-based inclusive line ranges of `#[cfg(test)]` items;
/// functions starting inside one are marked `is_test`.
pub fn parse_file(code: &[Token], test_spans: &[(u32, u32)], file_is_test: bool) -> ParsedFile {
    let mut fns = Vec::new();
    // (impl type name, brace depth the impl body opened at)
    let mut impl_stack: Vec<(Option<String>, i32)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < code.len() {
        match &code[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                i += 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                if let Some(&(_, d)) = impl_stack.last() {
                    if depth <= d {
                        impl_stack.pop();
                    }
                }
                i += 1;
            }
            Tok::Ident(w) if w == "impl" => {
                let (ty, j, has_body) = parse_impl_header(code, i);
                if has_body {
                    impl_stack.push((ty, depth));
                    depth += 1;
                    i = j + 1;
                } else {
                    i = j;
                }
            }
            Tok::Ident(w) if w == "fn" => {
                let start_line = code[i].line;
                let impl_ty = impl_stack.last().and_then(|(t, _)| t.clone());
                let (def, next) = parse_fn(code, i, impl_ty);
                if let Some(mut f) = def {
                    f.is_test = file_is_test
                        || test_spans
                            .iter()
                            .any(|&(a, b)| start_line >= a && start_line <= b);
                    fns.push(f);
                }
                i = next;
            }
            _ => i += 1,
        }
    }
    ParsedFile { fns }
}

fn ident_at(code: &[Token], i: usize) -> Option<&str> {
    match code.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(code: &[Token], i: usize, c: char) -> bool {
    matches!(code.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Skips a balanced `<…>` generic group starting at `i` (which must be
/// `<`). `->` arrows inside (`Fn() -> T` bounds) do not close the group.
fn skip_angles(code: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < code.len() {
        if punct_at(code, j, '<') {
            depth += 1;
        } else if punct_at(code, j, '>') && !(j > 0 && punct_at(code, j - 1, '-')) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if punct_at(code, j, '{') || punct_at(code, j, ';') {
            // Malformed generics; bail before eating a body.
            return j;
        }
        j += 1;
    }
    j
}

/// From `impl` at `i`, returns (type name, index of the body `{` or where
/// scanning stopped, whether a body was found).
fn parse_impl_header(code: &[Token], i: usize) -> (Option<String>, usize, bool) {
    let mut j = i + 1;
    if punct_at(code, j, '<') {
        j = skip_angles(code, j);
    }
    let mut ty: Option<String> = None;
    while j < code.len() {
        match &code[j].tok {
            Tok::Punct('{') => return (ty, j, true),
            Tok::Punct(';') => return (ty, j + 1, false),
            Tok::Punct('<') => j = skip_angles(code, j),
            Tok::Ident(w) if w == "where" => {
                // Type already captured; scan to the body.
                while j < code.len() && !punct_at(code, j, '{') {
                    if punct_at(code, j, ';') {
                        return (ty, j + 1, false);
                    }
                    j += 1;
                }
            }
            Tok::Ident(w) if w == "for" => {
                // `impl Trait for Type`: the segments after `for` win.
                ty = None;
                j += 1;
            }
            Tok::Ident(w) => {
                ty = Some(w.clone());
                j += 1;
            }
            _ => j += 1,
        }
    }
    (ty, j, false)
}

/// From `fn` at `i`, parses one function; returns (parsed def or None, next
/// scan index). Trait method declarations (no body) return None.
fn parse_fn(code: &[Token], i: usize, impl_type: Option<String>) -> (Option<FnDef>, usize) {
    let line = code[i].line;
    let mut j = i + 1;
    let name = match ident_at(code, j) {
        Some(n) => n.to_string(),
        None => return (None, i + 1),
    };
    j += 1;
    if punct_at(code, j, '<') {
        j = skip_angles(code, j);
    }
    if !punct_at(code, j, '(') {
        return (None, j);
    }
    // Parameter list: names are idents at paren depth 1 followed by `:`.
    let mut params = Vec::new();
    let mut has_self = false;
    let mut pd = 0i32;
    while j < code.len() {
        match &code[j].tok {
            Tok::Punct('(') => pd += 1,
            Tok::Punct(')') => {
                pd -= 1;
                if pd == 0 {
                    j += 1;
                    break;
                }
            }
            Tok::Ident(w) if pd == 1 && w == "self" => has_self = true,
            Tok::Ident(w)
                if pd == 1
                    && !is_keyword(w)
                    && punct_at(code, j + 1, ':')
                    && !punct_at(code, j + 2, ':') =>
            {
                params.push(w.clone());
            }
            _ => {}
        }
        j += 1;
    }
    // Return type / where clause: scan to the body `{` (or `;` for a
    // bodyless trait declaration) at bracket depth 0.
    let mut bd = 0i32;
    while j < code.len() {
        match &code[j].tok {
            Tok::Punct('(') | Tok::Punct('[') => bd += 1,
            Tok::Punct(')') | Tok::Punct(']') => bd -= 1,
            Tok::Punct('{') if bd == 0 => break,
            Tok::Punct(';') if bd == 0 => return (None, j + 1),
            _ => {}
        }
        j += 1;
    }
    if j >= code.len() {
        return (None, j);
    }
    let (body, next) = parse_block(code, j);
    (
        Some(FnDef {
            name,
            impl_type,
            has_self,
            params,
            line,
            is_test: false,
            body,
        }),
        next,
    )
}

/// Parses a `{ … }` block whose opening brace is at `i`; returns (block,
/// index past the closing brace).
fn parse_block(code: &[Token], i: usize) -> (Block, usize) {
    let mut stmts = Vec::new();
    let mut j = i + 1;
    while j < code.len() {
        match &code[j].tok {
            Tok::Punct('}') => return (Block { stmts }, j + 1),
            Tok::Punct(';') => j += 1,
            Tok::Punct('{') => {
                let (blk, next) = parse_block(code, j);
                stmts.push(Stmt::Nested(blk));
                j = next;
            }
            Tok::Punct('#') => j = skip_attribute(code, j),
            Tok::Ident(w) => {
                let line = code[j].line;
                match w.as_str() {
                    "let" => {
                        let (s, next) = parse_let(code, j);
                        stmts.push(s);
                        j = next;
                    }
                    "if" => {
                        let (s, next) = parse_if(code, j);
                        stmts.push(s);
                        j = next;
                    }
                    "match" => {
                        let (s, next) = parse_match(code, j);
                        stmts.push(s);
                        j = next;
                    }
                    "while" => {
                        let (s, next) = parse_while(code, j);
                        stmts.push(s);
                        j = next;
                    }
                    "loop" if punct_at(code, j + 1, '{') => {
                        let (body, next) = parse_block(code, j + 1);
                        stmts.push(Stmt::Loop { body, line });
                        j = next;
                    }
                    "for" => {
                        let (s, next) = parse_for(code, j);
                        stmts.push(s);
                        j = next;
                    }
                    "return" => {
                        let (range, next) = scan_to_semi(code, j + 1);
                        let value = if range.is_empty() {
                            None
                        } else {
                            Some(scan_expr(code, range, false))
                        };
                        stmts.push(Stmt::Return { value, line });
                        j = next;
                    }
                    "break" => {
                        let (_, next) = scan_to_semi(code, j + 1);
                        stmts.push(Stmt::Break { line });
                        j = next;
                    }
                    "continue" => {
                        let (_, next) = scan_to_semi(code, j + 1);
                        stmts.push(Stmt::Continue { line });
                        j = next;
                    }
                    "unsafe" if punct_at(code, j + 1, '{') => {
                        let (blk, next) = parse_block(code, j + 1);
                        stmts.push(Stmt::Nested(blk));
                        j = next;
                    }
                    "fn" | "struct" | "enum" | "impl" | "trait" | "mod" | "use" | "type"
                    | "macro_rules" | "extern" | "pub" => {
                        j = skip_item(code, j);
                    }
                    _ => {
                        let (s, next) = parse_expr_stmt(code, j);
                        stmts.push(s);
                        j = next;
                    }
                }
            }
            _ => {
                let (s, next) = parse_expr_stmt(code, j);
                stmts.push(s);
                j = next;
            }
        }
    }
    (Block { stmts }, j)
}

/// Skips a `#[…]` or `#![…]` attribute.
fn skip_attribute(code: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if punct_at(code, j, '!') {
        j += 1;
    }
    if !punct_at(code, j, '[') {
        return i + 1;
    }
    let mut depth = 0i32;
    while j < code.len() {
        match &code[j].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Skips a nested item (fn/struct/const/…): consumes to the terminating
/// `;`, or over the balanced `{…}` body.
fn skip_item(code: &[Token], i: usize) -> usize {
    let mut j = i;
    let mut bd = 0i32;
    while j < code.len() {
        match &code[j].tok {
            Tok::Punct('(') | Tok::Punct('[') => bd += 1,
            Tok::Punct(')') | Tok::Punct(']') => bd -= 1,
            Tok::Punct(';') if bd == 0 => return j + 1,
            Tok::Punct('{') if bd == 0 => {
                let mut depth = 0i32;
                while j < code.len() {
                    match &code[j].tok {
                        Tok::Punct('{') => depth += 1,
                        Tok::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return j + 1;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return j;
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Scans from `i` to the statement end: `;` at depth 0 (consumed) or `}` at
/// depth 0 (not consumed — a trailing expression). Returns (token range,
/// next index).
fn scan_to_semi(code: &[Token], i: usize) -> (std::ops::Range<usize>, usize) {
    let mut depth = 0i32;
    let mut j = i;
    while j < code.len() {
        match &code[j].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('}') => {
                if depth == 0 {
                    return (i..j, j);
                }
                depth -= 1;
            }
            Tok::Punct(';') if depth == 0 => return (i..j, j + 1),
            _ => {}
        }
        j += 1;
    }
    (i..j, j)
}

/// Lowercase binding names from a pattern token range (`Some(x)` → x;
/// uppercase path segments and keywords are not bindings).
fn pattern_names(code: &[Token], range: std::ops::Range<usize>) -> Vec<String> {
    let mut names = Vec::new();
    for k in range {
        if let Tok::Ident(w) = &code[k].tok {
            if !is_keyword(w)
                && w != "_"
                && w.chars()
                    .next()
                    .is_some_and(|c| c.is_lowercase() || c == '_')
                && !punct_at(code, k + 1, ':')
            {
                // `field: binding` struct patterns: the field name is
                // followed by `:` and is not a binding. Shorthand
                // `Struct { field }` binds `field`, which this keeps.
                names.push(w.clone());
            }
        }
    }
    names
}

fn parse_let(code: &[Token], i: usize) -> (Stmt, usize) {
    let line = code[i].line;
    // Pattern (and optional type): up to the first top-level `=` that is
    // not `==`, or the `;` of an initializer-less let.
    let mut depth = 0i32;
    let mut j = i + 1;
    let mut eq = None;
    while j < code.len() {
        match &code[j].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
            Tok::Punct(';') if depth == 0 => break,
            Tok::Punct('=') if depth == 0 && !punct_at(code, j + 1, '=') => {
                eq = Some(j);
                break;
            }
            _ => {}
        }
        j += 1;
    }
    // Binding names come from the pattern part, before any `:` type
    // annotation at depth 0.
    let pat_end = {
        let mut d = 0i32;
        let mut end = eq.unwrap_or(j);
        for k in i + 1..eq.unwrap_or(j) {
            match &code[k].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => d += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => d -= 1,
                Tok::Punct(':')
                    if d == 0 && !punct_at(code, k + 1, ':') && !punct_at(code, k - 1, ':') =>
                {
                    end = k;
                    break;
                }
                _ => {}
            }
        }
        end
    };
    let mut names = pattern_names(code, i + 1..pat_end);
    // A bare `let _ = …` is an explicit drop: surface the wildcard so the
    // analyses can treat the value as discarded rather than escaped.
    if names.is_empty() && pat_end == i + 2 && matches!(&code[i + 1].tok, Tok::Ident(w) if w == "_")
    {
        names.push("_".to_owned());
    }
    let Some(eq) = eq else {
        return (
            Stmt::Let {
                names,
                init: None,
                else_block: None,
                line,
            },
            j + 1,
        );
    };
    // Initializer: to `;` at depth 0, or a `let … else` block. The
    // let-else `else` directly follows a value token; an if/else inside the
    // initializer always follows `}`.
    let mut depth = 0i32;
    let mut k = eq + 1;
    while k < code.len() {
        match &code[k].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('}') => {
                if depth == 0 {
                    // Unclosed statement (trailing expr) — treat as init.
                    let init = scan_expr(code, eq + 1..k, false);
                    return (
                        Stmt::Let {
                            names,
                            init: Some(init),
                            else_block: None,
                            line,
                        },
                        k,
                    );
                }
                depth -= 1;
            }
            Tok::Punct(';') if depth == 0 => {
                // The binding consumes the value: never `discarded`.
                let init = scan_expr(code, eq + 1..k, false);
                return (
                    Stmt::Let {
                        names,
                        init: Some(init),
                        else_block: None,
                        line,
                    },
                    k + 1,
                );
            }
            Tok::Ident(w)
                if w == "else"
                    && depth == 0
                    && k > eq + 1
                    && !punct_at(code, k - 1, '}')
                    && punct_at(code, k + 1, '{') =>
            {
                let init = scan_expr(code, eq + 1..k, false);
                let (blk, next) = parse_block(code, k + 1);
                let next = if punct_at(code, next, ';') {
                    next + 1
                } else {
                    next
                };
                return (
                    Stmt::Let {
                        names,
                        init: Some(init),
                        else_block: Some(blk),
                        line,
                    },
                    next,
                );
            }
            _ => {}
        }
        k += 1;
    }
    let init = scan_expr(code, eq + 1..k, false);
    (
        Stmt::Let {
            names,
            init: Some(init),
            else_block: None,
            line,
        },
        k,
    )
}

/// Scans a control-flow head expression from `i` to the body `{` at
/// bracket depth 0. Returns (range, index of the `{`).
fn scan_to_brace(code: &[Token], i: usize) -> (std::ops::Range<usize>, usize) {
    let mut depth = 0i32;
    let mut j = i;
    while j < code.len() {
        match &code[j].tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('{') if depth == 0 => return (i..j, j),
            Tok::Punct(';') if depth == 0 => return (i..j, j),
            _ => {}
        }
        j += 1;
    }
    (i..j, j)
}

/// Splits an optional `let <pat> = ` prefix off a condition; returns
/// (pattern names, start of the scrutinee expression).
fn split_let_pattern(code: &[Token], i: usize) -> (Vec<String>, usize) {
    if ident_at(code, i) != Some("let") {
        return (Vec::new(), i);
    }
    let mut depth = 0i32;
    let mut j = i + 1;
    while j < code.len() {
        match &code[j].tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('=') if depth == 0 && !punct_at(code, j + 1, '=') => {
                return (pattern_names(code, i + 1..j), j + 1);
            }
            Tok::Punct('{') if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    (Vec::new(), i)
}

fn parse_if(code: &[Token], i: usize) -> (Stmt, usize) {
    let line = code[i].line;
    let (pat, cond_start) = split_let_pattern(code, i + 1);
    let (range, brace) = scan_to_brace(code, cond_start);
    let cond = scan_expr(code, range, false);
    if !punct_at(code, brace, '{') {
        return (Stmt::Expr(cond), brace);
    }
    let (then_blk, mut next) = parse_block(code, brace);
    let mut else_blk = None;
    if ident_at(code, next) == Some("else") {
        if ident_at(code, next + 1) == Some("if") {
            let (nested, after) = parse_if(code, next + 1);
            else_blk = Some(Block {
                stmts: vec![nested],
            });
            next = after;
        } else if punct_at(code, next + 1, '{') {
            let (blk, after) = parse_block(code, next + 1);
            else_blk = Some(blk);
            next = after;
        }
    }
    (
        Stmt::If {
            pat,
            cond,
            then_blk,
            else_blk,
            line,
        },
        next,
    )
}

fn parse_while(code: &[Token], i: usize) -> (Stmt, usize) {
    let line = code[i].line;
    let (pat, cond_start) = split_let_pattern(code, i + 1);
    let (range, brace) = scan_to_brace(code, cond_start);
    let cond = scan_expr(code, range, false);
    if !punct_at(code, brace, '{') {
        return (Stmt::Expr(cond), brace);
    }
    let (body, next) = parse_block(code, brace);
    (
        Stmt::While {
            pat,
            cond,
            body,
            line,
        },
        next,
    )
}

fn parse_for(code: &[Token], i: usize) -> (Stmt, usize) {
    let line = code[i].line;
    // Pattern up to top-level `in`.
    let mut depth = 0i32;
    let mut j = i + 1;
    let mut in_pos = None;
    while j < code.len() {
        match &code[j].tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Ident(w) if w == "in" && depth == 0 => {
                in_pos = Some(j);
                break;
            }
            Tok::Punct('{') if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    let Some(in_pos) = in_pos else {
        let (range, brace) = scan_to_brace(code, i + 1);
        return (Stmt::Expr(scan_expr(code, range, false)), brace);
    };
    let pat = pattern_names(code, i + 1..in_pos);
    let (range, brace) = scan_to_brace(code, in_pos + 1);
    let iter = scan_expr(code, range, false);
    if !punct_at(code, brace, '{') {
        return (Stmt::Expr(iter), brace);
    }
    let (body, next) = parse_block(code, brace);
    (
        Stmt::For {
            pat,
            iter,
            body,
            line,
        },
        next,
    )
}

fn parse_match(code: &[Token], i: usize) -> (Stmt, usize) {
    let line = code[i].line;
    let (range, brace) = scan_to_brace(code, i + 1);
    let scrutinee = scan_expr(code, range, false);
    if !punct_at(code, brace, '{') {
        return (Stmt::Expr(scrutinee), brace);
    }
    let mut arms = Vec::new();
    let mut j = brace + 1;
    while j < code.len() && !punct_at(code, j, '}') {
        if punct_at(code, j, '#') {
            j = skip_attribute(code, j);
            continue;
        }
        let arm_line = code[j].line;
        // Pattern (and optional guard) up to the `=>` at depth 0.
        let mut depth = 0i32;
        let mut k = j;
        let mut arrow = None;
        let mut guard_if = None;
        while k < code.len() {
            match &code[k].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                Tok::Punct('=') if depth == 0 && punct_at(code, k + 1, '>') => {
                    arrow = Some(k);
                    break;
                }
                Tok::Ident(w) if w == "if" && depth == 0 && guard_if.is_none() => {
                    guard_if = Some(k);
                }
                _ => {}
            }
            k += 1;
        }
        let Some(arrow) = arrow else { break };
        let pat_end = guard_if.unwrap_or(arrow);
        let pat = pattern_names(code, j..pat_end);
        let mut body_stmts = Vec::new();
        if let Some(g) = guard_if {
            body_stmts.push(Stmt::Expr(scan_expr(code, g + 1..arrow, false)));
        }
        let body_start = arrow + 2;
        let next = if punct_at(code, body_start, '{') {
            let (blk, after) = parse_block(code, body_start);
            body_stmts.extend(blk.stmts);
            if punct_at(code, after, ',') {
                after + 1
            } else {
                after
            }
        } else {
            // Expression arm: to `,` or the match's closing `}` at depth 0.
            let mut depth = 0i32;
            let mut k = body_start;
            while k < code.len() {
                match &code[k].tok {
                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                    Tok::Punct('}') => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    Tok::Punct(',') if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            // Control-flow expression arms keep their statement shape so the
            // CFG sees the break/continue/return.
            match ident_at(code, body_start) {
                Some("return") => {
                    let value = if body_start + 1 < k {
                        Some(scan_expr(code, body_start + 1..k, false))
                    } else {
                        None
                    };
                    body_stmts.push(Stmt::Return {
                        value,
                        line: code[body_start].line,
                    });
                }
                Some("break") => body_stmts.push(Stmt::Break {
                    line: code[body_start].line,
                }),
                Some("continue") => body_stmts.push(Stmt::Continue {
                    line: code[body_start].line,
                }),
                _ => body_stmts.push(Stmt::Expr(scan_expr(code, body_start..k, false))),
            }
            if punct_at(code, k, ',') {
                k + 1
            } else {
                k
            }
        };
        arms.push(Arm {
            pat,
            body: Block { stmts: body_stmts },
            line: arm_line,
        });
        j = next;
    }
    let end = if punct_at(code, j, '}') { j + 1 } else { j };
    (
        Stmt::Match {
            scrutinee,
            arms,
            line,
        },
        end,
    )
}

fn parse_expr_stmt(code: &[Token], i: usize) -> (Stmt, usize) {
    let (range, mut next) = scan_to_semi(code, i);
    let semi = next > range.end; // a `;` was consumed
    let expr = scan_expr(code, range, semi);
    if next == i {
        // Zero progress on a stray token: skip it so the block loop can't
        // spin forever.
        next = i + 1;
    }
    (Stmt::Expr(expr), next)
}

/// Matching `)` for the `(` at `open`.
fn close_paren(code: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < code.len() {
        match &code[j].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j.saturating_sub(1)
}

/// Builds the flat expression summary for a token range. `stmt_semi` marks
/// a semicolon-terminated expression statement (needed to tell a discarded
/// call result from a tail expression).
fn scan_expr(code: &[Token], range: std::ops::Range<usize>, stmt_semi: bool) -> ExprInfo {
    let start = range.start;
    let end = range.end;
    let mut info = ExprInfo {
        line: code.get(start).map_or(0, |t| t.line),
        ..Default::default()
    };
    let mut k = start;
    while k < end {
        match &code[k].tok {
            Tok::Punct('?') => info.has_try = true,
            Tok::Ident(name) => {
                if !is_keyword(name) {
                    info.idents.push((name.clone(), code[k].line));
                }
                let is_macro = punct_at(code, k + 1, '!');
                if punct_at(code, k + 1, '(') && !is_macro && !is_keyword(name) {
                    info.calls.push(build_call(code, start, end, k, stmt_semi));
                }
            }
            _ => {}
        }
        k += 1;
    }
    info
}

/// Builds a [`Call`] for the callee identifier at `k` (whose next token is
/// the opening paren).
fn build_call(code: &[Token], start: usize, end: usize, k: usize, stmt_semi: bool) -> Call {
    let method = match &code[k].tok {
        Tok::Ident(n) => n.clone(),
        _ => String::new(),
    };
    let open = k + 1;
    let close = close_paren(code, open);
    let mut recv = Vec::new();
    let mut path = Vec::new();
    let mut chain_start = k;
    if k >= 2 && punct_at(code, k - 1, ':') && punct_at(code, k - 2, ':') {
        // Path call: walk `Seg::Seg::name` backward.
        path.push(method.clone());
        let mut m = k;
        while m >= 3 && punct_at(code, m - 1, ':') && punct_at(code, m - 2, ':') {
            if let Some(seg) = ident_at(code, m - 3) {
                path.insert(0, seg.to_string());
                chain_start = m - 3;
                m -= 3;
            } else {
                break;
            }
        }
    } else if k >= 1 && punct_at(code, k - 1, '.') {
        // Method call: walk the receiver chain backward.
        let mut m = k;
        while m >= 1 && punct_at(code, m - 1, '.') {
            if m >= 2 {
                match &code[m - 2].tok {
                    Tok::Ident(seg) => {
                        recv.insert(0, seg.clone());
                        chain_start = m - 2;
                        m -= 2;
                    }
                    Tok::Punct(')') | Tok::Punct(']') => {
                        recv.insert(0, "()".to_string());
                        chain_start = m - 2;
                        break;
                    }
                    Tok::Int(_) => {
                        // Tuple field access (`pair.0.push(…)`).
                        recv.insert(0, "0".to_string());
                        chain_start = m - 2;
                        m -= 2;
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
    }
    // Field/assignment hint: `field: Call(…)` or `field = Call(…)`.
    let mut field_hint = None;
    if chain_start >= 2 {
        let before = chain_start - 1;
        let colon =
            punct_at(code, before, ':') && !(chain_start >= 3 && punct_at(code, before - 1, ':'));
        // A plain `=` (not `==`, `!=`, `<=`, `>=` or a compound assign).
        let assign = punct_at(code, before, '=')
            && !matches!(
                code[before - 1].tok,
                Tok::Punct('=')
                    | Tok::Punct('!')
                    | Tok::Punct('<')
                    | Tok::Punct('>')
                    | Tok::Punct('+')
                    | Tok::Punct('-')
                    | Tok::Punct('*')
                    | Tok::Punct('/')
                    | Tok::Punct('%')
                    | Tok::Punct('&')
                    | Tok::Punct('|')
                    | Tok::Punct('^')
            );
        if colon || assign {
            if let Some(f) = ident_at(code, before - 1) {
                field_hint = Some(f.to_string());
            }
        }
    }
    let mut arg_idents = Vec::new();
    let mut args_str = Vec::new();
    for t in &code[open + 1..close] {
        match &t.tok {
            Tok::Ident(n) if !is_keyword(n) => arg_idents.push(n.clone()),
            Tok::Str(s) => args_str.push(s.clone()),
            _ => {}
        }
    }
    let discarded = stmt_semi && chain_start == start && close + 1 >= end;
    Call {
        recv,
        path,
        method,
        field_hint,
        arg_idents,
        args_str,
        start: chain_start,
        end: close + 1,
        line: code[k].line,
        col: code[k].col,
        discarded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, split_comments};

    fn parse(src: &str) -> ParsedFile {
        let (code, _) = split_comments(lex(src));
        parse_file(&code, &[], false)
    }

    #[test]
    fn fn_and_impl_context() {
        let p = parse("impl Foo { fn go(&mut self, n: u32) {} }\nfn free(x: u32) {}");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "go");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Foo"));
        assert!(p.fns[0].has_self);
        assert_eq!(p.fns[0].params, ["n"]);
        assert_eq!(p.fns[1].impl_type, None);
    }

    #[test]
    fn call_receiver_chains() {
        let p = parse("fn f(&mut self) { self.arena.insert(fetch); }");
        let Stmt::Expr(e) = &p.fns[0].body.stmts[0] else {
            panic!("expr stmt")
        };
        assert_eq!(e.calls.len(), 1);
        assert_eq!(e.calls[0].recv, ["self", "arena"]);
        assert_eq!(e.calls[0].method, "insert");
        assert!(e.calls[0].discarded);
    }

    #[test]
    fn path_calls_keep_string_args() {
        let p = parse(r#"fn f() { let q = SimQueue::new("l2_access", 8); }"#);
        let Stmt::Let { init: Some(e), .. } = &p.fns[0].body.stmts[0] else {
            panic!("let stmt")
        };
        assert_eq!(e.calls[0].path, ["SimQueue", "new"]);
        assert_eq!(e.calls[0].args_str, ["l2_access"]);
    }
}
